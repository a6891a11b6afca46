# Runs a bench binary under GPUSTM_JOBS=1 and GPUSTM_JOBS=4 and fails unless
# the two BENCH_*.json files are identical once the host-throughput fields
# (jobs, wall_ms*, rounds_per_sec, switches_per_round) are stripped: the
# parallel sweep runner must be invisible in every modeled number.
#
# Usage:
#   cmake -DBENCH=<binary> -DJSON_NAME=<BENCH_x.json> -DWORKDIR=<dir>
#         [-DWORKLOADS=<filter>] -P CompareSweepJson.cmake

if(NOT BENCH OR NOT JSON_NAME OR NOT WORKDIR)
  message(FATAL_ERROR "BENCH, JSON_NAME and WORKDIR are required")
endif()

function(read_stripped INFILE OUTVAR)
  file(READ "${INFILE}" J)
  string(REGEX REPLACE "\"jobs\":[0-9]+," "" J "${J}")
  string(REGEX REPLACE "\"wall_ms_total\":[0-9.eE+-]+," "" J "${J}")
  string(REGEX REPLACE ",\"wall_ms\":[^,}]+" "" J "${J}")
  string(REGEX REPLACE ",\"rounds_per_sec\":[^,}]+" "" J "${J}")
  string(REGEX REPLACE ",\"switches_per_round\":[^,}]+" "" J "${J}")
  set(${OUTVAR} "${J}" PARENT_SCOPE)
endfunction()

foreach(JOBS 1 4)
  set(DIR "${WORKDIR}/jobs${JOBS}")
  file(MAKE_DIRECTORY "${DIR}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            GPUSTM_JOBS=${JOBS} "GPUSTM_BENCH_WORKLOADS=${WORKLOADS}"
            "${BENCH}"
    WORKING_DIRECTORY "${DIR}"
    RESULT_VARIABLE RC
    OUTPUT_QUIET)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "${BENCH} failed under GPUSTM_JOBS=${JOBS}: ${RC}")
  endif()
endforeach()

read_stripped("${WORKDIR}/jobs1/${JSON_NAME}" SERIAL)
read_stripped("${WORKDIR}/jobs4/${JSON_NAME}" PARALLEL)

if(NOT SERIAL STREQUAL PARALLEL)
  message(FATAL_ERROR
    "parallel sweep diverged from serial; compare "
    "${WORKDIR}/jobs1/${JSON_NAME} against ${WORKDIR}/jobs4/${JSON_NAME}")
endif()
message(STATUS "serial and 4-job sweeps are bit-identical (${JSON_NAME})")
