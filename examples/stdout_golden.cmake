# Byte-identity gate for the example programs: runs each one and compares
# the SHA-256 of its stdout with the value pinned here. The examples are
# deterministic simulations, so any change to forwarding, verdicts,
# timing or reporting moves a hash. Re-pin only for an intended change.
#
#   cmake -DEXAMPLES_DIR=<build>/examples -P stdout_golden.cmake
set(golden_quickstart
    5b7846eb626ad2a37be9bcf07b4f8b376730365ea69ed9fbce4614eea8b362a8)
set(golden_spam_farm
    0e9fdba236bf081ef829537b8cd6b191255f2cfafcaeed0dd8620008df740c0f)
set(golden_worm_capture
    0676ee9358e8bc5a0001477294aa72fbe82078ccc065f967babbefbb2d6b15bc)
set(golden_policy_dev
    4750f9dff97e5f73cd4f363fb0a83d19c841d0885d11a8f45f9e4366f2cc492e)

set(failed "")
foreach(name quickstart spam_farm worm_capture policy_dev)
  execute_process(COMMAND ${EXAMPLES_DIR}/example_${name}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  string(SHA256 got "${out}")
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "example_${name} exited with ${rc}")
    list(APPEND failed ${name})
  elseif(NOT got STREQUAL golden_${name})
    message(SEND_ERROR "example_${name} stdout sha256 ${got}, "
                       "pinned ${golden_${name}}")
    list(APPEND failed ${name})
  else()
    message(STATUS "example_${name}: stdout matches")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "examples_golden: ${failed} diverged")
endif()
