# Runs a bench binary with GPUSTM_SAN unset and with GPUSTM_SAN=1 and fails
# unless (a) the two stdouts are byte-identical and (b) the two BENCH_*.json
# files are identical once the host-throughput fields are stripped: the
# detector observes the simulation but must never perturb a modeled number.
# The detector-on run must also leave behind a parseable simtsan report.
# It records a trace as well (GPUSTM_TRACE), so simtsan and a trace recorder
# share every run, and the trace file must be written.
#
# Usage:
#   cmake -DBENCH=<binary> -DJSON_NAME=<BENCH_x.json> -DWORKDIR=<dir>
#         [-DWORKLOADS=<filter>] -P CompareSanRun.cmake

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

foreach(SAN off on)
  set(DIR "${WORKDIR}/san_${SAN}")
  file(MAKE_DIRECTORY "${DIR}")
  if(SAN STREQUAL "on")
    set(SAN_ENV "GPUSTM_SAN=1" "GPUSTM_SAN_REPORT=${DIR}/simtsan_report.json"
        "GPUSTM_TRACE=${DIR}/run.trace")
  else()
    # GPUSTM_SAN deliberately unset: this is the default user path.
    set(SAN_ENV "GPUSTM_SAN_REPORT=")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            GPUSTM_JOBS=1 "GPUSTM_BENCH_WORKLOADS=${WORKLOADS}" ${SAN_ENV}
            "${BENCH}"
    WORKING_DIRECTORY "${DIR}"
    RESULT_VARIABLE RC
    OUTPUT_FILE "${DIR}/stdout.txt")
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "${BENCH} failed with GPUSTM_SAN=${SAN}: ${RC}")
  endif()
endforeach()

# Stdout carries every human-facing modeled number; require byte identity.
file(READ "${WORKDIR}/san_off/stdout.txt" OUT_OFF)
file(READ "${WORKDIR}/san_on/stdout.txt" OUT_ON)
if(NOT OUT_OFF STREQUAL OUT_ON)
  message(FATAL_ERROR
    "stdout changed under GPUSTM_SAN=1; compare "
    "${WORKDIR}/san_off/stdout.txt against ${WORKDIR}/san_on/stdout.txt")
endif()

read_stripped("${WORKDIR}/san_off/${JSON_NAME}" OFF_JSON)
read_stripped("${WORKDIR}/san_on/${JSON_NAME}" ON_JSON)
if(NOT OFF_JSON STREQUAL ON_JSON)
  message(FATAL_ERROR
    "modeled JSON changed under GPUSTM_SAN=1; compare "
    "${WORKDIR}/san_off/${JSON_NAME} against ${WORKDIR}/san_on/${JSON_NAME}")
endif()

# The detector-on run owns a report file; a clean sweep must say 0 findings.
if(NOT EXISTS "${WORKDIR}/san_on/simtsan_report.json")
  message(FATAL_ERROR "GPUSTM_SAN=1 run left no simtsan report behind")
endif()
file(READ "${WORKDIR}/san_on/simtsan_report.json" REPORT)
if(NOT REPORT MATCHES "\"tool\":\"simtsan\",\"findings\":0,")
  message(FATAL_ERROR
    "simtsan reported findings on a clean sweep: ${REPORT}")
endif()

# The trace recorder ran beside the detector and must have written its
# trace.  The traces run to hundreds of MB, so drop them once checked.
if(NOT EXISTS "${WORKDIR}/san_on/run.trace")
  message(FATAL_ERROR "GPUSTM_SAN=1 GPUSTM_TRACE run left no trace behind")
endif()
file(GLOB TRACES "${WORKDIR}/san_on/run.trace*")
file(REMOVE ${TRACES})

message(STATUS
  "GPUSTM_SAN=1 with GPUSTM_TRACE is invisible in stdout and ${JSON_NAME}; "
  "clean report, trace written")
