# Perf-regression gate over bench/simspeed's rows: fails when any cell's
# rounds_per_sec drops more than 10% below the checked-in floor in
# simspeed_baseline.json.
#
# The baseline floors are ~1/3 of a quiet single-core run, so tripping this
# gate means the round-loop hot path got multiple times slower, not that the
# CI machine had a noisy neighbour.
#
# Usage:
#   cmake -DJSON=<path/to/BENCH_simspeed.json>
#         -DBASELINE=<path/to/simspeed_baseline.json>
#         -P CheckSimspeedRegression.cmake

if(NOT JSON OR NOT BASELINE)
  message(FATAL_ERROR "JSON and BASELINE are required")
endif()
if(NOT EXISTS "${JSON}")
  message(FATAL_ERROR "measured bench output not found: ${JSON}")
endif()

file(READ "${JSON}" MEASURED)
file(READ "${BASELINE}" FLOORS)

string(JSON NUM_FLOORS LENGTH "${FLOORS}" rows)
string(JSON NUM_MEASURED LENGTH "${MEASURED}" rows)
math(EXPR LAST_FLOOR "${NUM_FLOORS} - 1")
math(EXPR LAST_MEASURED "${NUM_MEASURED} - 1")

set(FAILED 0)
foreach(FI RANGE ${LAST_FLOOR})
  string(JSON WL GET "${FLOORS}" rows ${FI} workload)
  string(JSON VAR GET "${FLOORS}" rows ${FI} variant)
  string(JSON FLOOR GET "${FLOORS}" rows ${FI} min_rounds_per_sec)

  # Find the matching row in the measurement.
  set(FOUND 0)
  foreach(MI RANGE ${LAST_MEASURED})
    string(JSON MWL GET "${MEASURED}" rows ${MI} workload)
    string(JSON MVAR GET "${MEASURED}" rows ${MI} variant)
    if(MWL STREQUAL WL AND MVAR STREQUAL VAR)
      set(FOUND 1)
      string(JSON RPS GET "${MEASURED}" rows ${MI} rounds_per_sec)
      string(JSON OK GET "${MEASURED}" rows ${MI} ok)
      if(NOT OK STREQUAL "ON" AND NOT OK STREQUAL "true")
        message(SEND_ERROR "simspeed cell ${WL}/${VAR} did not verify")
        set(FAILED 1)
      endif()
      # Trip when measured < 90% of the floor.
      math(EXPR GATE "${FLOOR} * 9 / 10")
      if(RPS LESS GATE)
        message(SEND_ERROR
          "perf regression: ${WL}/${VAR} throughput "
          "${RPS} rounds/sec is below 90% of the baseline floor ${FLOOR} "
          "(gate ${GATE}); if the slowdown is intended, refresh "
          "bench/simspeed_baseline.json")
        set(FAILED 1)
      else()
        message(STATUS
          "${WL}/${VAR}: ${RPS} rounds/sec >= gate ${GATE} (floor ${FLOOR})")
      endif()
      break()
    endif()
  endforeach()
  if(NOT FOUND)
    message(SEND_ERROR
      "baseline row ${WL}/${VAR} has no row in ${JSON}; did the "
      "simspeed scenario table change without refreshing the baseline?")
    set(FAILED 1)
  endif()
endforeach()

if(FAILED)
  message(FATAL_ERROR "simspeed perf-regression gate failed")
endif()
message(STATUS "simspeed throughput within 10% of baseline floors")
