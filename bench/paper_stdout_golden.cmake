# Byte-identity gate for the paper-reproduction benches: runs one bench
# and compares the SHA-256 of its stdout with the value pinned here. The
# benches are deterministic simulations, so any change to forwarding,
# verdicts, timing or reporting moves a hash. Re-pin only for an
# intended change, and name the re-pin in CHANGES.md.
#
#   cmake -DNAME=<name> -DEXE=<build>/bench/<binary> -P paper_stdout_golden.cmake
set(golden_table1
    a69ba9222dbf16e954e4d7d036b50ca371e944d63e9b10a2ffaf4e8ccf212f59)
set(golden_fig2
    caf842eb7a16bb6dde62456d563bff336facc26aa167e749091370c31b1c0bff)
set(golden_fig3
    aa633929c692064d3d20ad60ea301d01da3cfababd724f748fe2aae9a6f0eee1)
set(golden_fig5
    b6c6b336823d021bf88dab42d99c631ee0dabb4dcec73e8daf4f53ceaf650f84)
set(golden_fig6
    888c74ec7b3f01051323bd37ca870e6496a3c7a376811dd93b3239e3449c1816)
set(golden_fig7
    7f7fcafedcc887b15828f86becbbcf3d7226d10e5540360afe8db60abea393a8)
set(golden_e1
    d4883e30025a68016c87eb31549e7dd1038709ed5247dca19a103ca78e50a507)
set(golden_e2
    3539e651a32c60fd406fa4f65db07e42e2adaa09d8470c436473b48ca1da18cc)
set(golden_e3
    92ef996b49f4bad2f7846d70ccb4c8bd275ae273ee45bbc88963ce1fd1cb0359)
set(golden_e4
    764cb96d4239f85289ac00d1dacebfe03d4d787782398c6117bafd0c8720a991)
set(golden_a1
    6191c9b08b6e515a794fe83293e8d87b8e3a7ca4e91e3a8a6021076dd6c4e81f)

if(NOT DEFINED golden_${NAME})
  message(FATAL_ERROR "no stdout pin for bench '${NAME}'")
endif()
execute_process(COMMAND ${EXE} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
string(SHA256 got "${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME}: ${EXE} exited with ${rc}")
elseif(NOT got STREQUAL golden_${NAME})
  message(FATAL_ERROR "${NAME}: stdout sha256 ${got}, "
                      "pinned ${golden_${NAME}}")
endif()
message(STATUS "${NAME}: stdout matches")
