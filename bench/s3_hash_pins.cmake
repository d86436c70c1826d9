# Byte-identity gate for the s3 smoke sweep: each row of the smoke run's
# BENCH_S3.json must carry the merged event-stream hash and the
# segmented-store hash pinned here for its shard count. Re-pin only for
# an intended change to the detonation workload or the store format.
#   cmake -DJSON=BENCH_S3.json -P bench/s3_hash_pins.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
set(event_hash_1 dd017e83b1102047)
set(segstore_hash_1 e5a295a52d22f23b)
set(event_hash_2 07ae04302de4b6fa)
set(segstore_hash_2 6a6c741c54d74b41)
set(pinned_rows 2)

file(READ "${JSON}" json)
string(JSON smoke GET "${json}" smoke)
if(NOT smoke)
  message(FATAL_ERROR "s3: ${JSON} is not a --smoke run")
endif()
string(JSON rows LENGTH "${json}" rows)
if(NOT rows EQUAL pinned_rows)
  message(FATAL_ERROR "s3: ${rows} rows, pinned ${pinned_rows}")
endif()
math(EXPR last "${rows} - 1")
foreach(i RANGE ${last})
  string(JSON shards GET "${json}" rows ${i} shards)
  foreach(field event_hash segstore_hash)
    string(JSON got GET "${json}" rows ${i} ${field})
    if(NOT got STREQUAL ${field}_${shards})
      message(FATAL_ERROR
        "s3 ${shards}-shard ${field} ${got}, pinned ${${field}_${shards}}")
    endif()
  endforeach()
endforeach()
message(STATUS "s3 smoke: ${rows} rows match their pinned hashes")
