# Fails when one HostStack::connect against 8,000 open connections costs
# more than 1.5x one against 2,000 (BM_HostStackConnect in the JSON that
# micro_datapath writes): per-connect cost must not grow with the number
# of open connections. Each size is the median of its repetitions: a
# single run now and then lands in a fast or slow mode that has
# nothing to do with the number of open connections, and the median
# ignores it where the minimum or a single run would read it. Run after
# the bench:
#   cmake -DJSON=BENCH_micro.json -P bench/connect_scaling_gate.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
file(READ "${JSON}" json)
string(JSON count LENGTH "${json}" benchmarks)
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
  string(JSON name GET "${json}" benchmarks ${i} name)
  string(JSON aggregate ERROR_VARIABLE no_aggregate
         GET "${json}" benchmarks ${i} aggregate_name)
  if(aggregate STREQUAL "median" AND
     name MATCHES "^BM_HostStackConnect/([0-9]+)(/|$)")
    set(open ${CMAKE_MATCH_1})
    string(JSON unit GET "${json}" benchmarks ${i} time_unit)
    string(JSON cpu GET "${json}" benchmarks ${i} cpu_time)
    if(NOT unit STREQUAL "ns" OR NOT cpu MATCHES "^([0-9]+)")
      message(FATAL_ERROR "${name}: cpu_time '${cpu} ${unit}' is not in ns")
    endif()
    set(ns_${open} ${CMAKE_MATCH_1})  # Whole nanoseconds.
  endif()
endforeach()
if(NOT DEFINED ns_2000 OR NOT DEFINED ns_8000)
  message(FATAL_ERROR
          "BM_HostStackConnect/2000 or /8000 median missing from ${JSON}")
endif()
math(EXPR ratio_x100 "100 * ${ns_8000} / ${ns_2000}")
if(ratio_x100 GREATER 150)
  message(FATAL_ERROR "connect at 8000 open = ${ns_8000} ns, at 2000 = "
                      "${ns_2000} ns: ${ratio_x100}/100 x, needs <= 1.5 x")
endif()
message(STATUS "connect at 8000 open = ${ns_8000} ns, at 2000 = ${ns_2000} ns: "
               "${ratio_x100}/100 x within 1.5 x")
