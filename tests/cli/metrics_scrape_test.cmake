# End-to-end acceptance test of the continuous-telemetry exposition:
#
#   1. a fleet run with --metrics-series must write an OpenMetrics
#      snapshot that suit_obs_check validates and that contains the
#      fleet counters,
#   2. the run's report must be byte-identical to the same run with
#      no telemetry at all (the sampler must not perturb results),
#   3. the interval-dump path must agree with the final dump: a
#      --metrics --metrics-interval run's final metrics JSON still
#      validates and carries the end-state counters.
#
# Invoked by ctest as:
#   cmake -DSUIT_FLEET=<tool> -DSUIT_OBS_CHECK=<tool>
#         -DWORK_DIR=<scratch> -P this_file

if(NOT SUIT_FLEET OR NOT SUIT_OBS_CHECK OR NOT WORK_DIR)
    message(FATAL_ERROR
        "SUIT_FLEET, SUIT_OBS_CHECK and WORK_DIR must be defined")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(FLEET --domains 2000 --shard 128 --jobs 2)

# Reference run: no telemetry.
execute_process(
    COMMAND ${SUIT_FLEET} ${FLEET} --report-json -
    OUTPUT_FILE ${WORK_DIR}/ref.json
    ERROR_VARIABLE ignored
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "reference fleet run failed (exit ${rc})")
endif()

# Telemetry run: sampler + final OpenMetrics snapshot.
execute_process(
    COMMAND ${SUIT_FLEET} ${FLEET} --report-json -
            --metrics-series ${WORK_DIR}/series.txt
    OUTPUT_FILE ${WORK_DIR}/sampled.json
    ERROR_VARIABLE ignored
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "telemetry fleet run failed (exit ${rc})")
endif()
if(NOT EXISTS "${WORK_DIR}/series.txt")
    message(FATAL_ERROR "suit_fleet wrote no --metrics-series file")
endif()

# The sampler must not change the simulation: reports byte-identical.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/ref.json ${WORK_DIR}/sampled.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "telemetry-enabled report differs from the plain run")
endif()

# The snapshot must be valid OpenMetrics text carrying the fleet
# counters.
execute_process(
    COMMAND ${SUIT_OBS_CHECK} --openmetrics ${WORK_DIR}/series.txt
            --require suit_fleet_domains_simulated,suit_sim_runs
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "suit_obs_check rejected the OpenMetrics snapshot "
            "(exit ${rc})")
endif()

# Interval dumps reuse the sampler's snapshot; the final file must
# still be a valid metrics document with the end-state counters.
execute_process(
    COMMAND ${SUIT_FLEET} ${FLEET}
            --metrics ${WORK_DIR}/metrics.json
            --metrics-interval 0.05
            --metrics-series ${WORK_DIR}/series2.txt
    OUTPUT_QUIET
    ERROR_VARIABLE ignored
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "interval-dump fleet run failed (exit ${rc})")
endif()
execute_process(
    COMMAND ${SUIT_OBS_CHECK} --metrics ${WORK_DIR}/metrics.json
            --openmetrics ${WORK_DIR}/series2.txt
            --require fleet.domains.simulated
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "interval-dump artifacts failed validation (exit ${rc})")
endif()

# The validator must bite on a tampered snapshot (duplicate sample).
file(READ ${WORK_DIR}/series.txt CONTENT)
string(REGEX MATCH "suit_sim_runs_total [0-9]+" DUP "${CONTENT}")
file(APPEND ${WORK_DIR}/series.txt "${DUP}\n")
execute_process(
    COMMAND ${SUIT_OBS_CHECK} --openmetrics ${WORK_DIR}/series.txt
    RESULT_VARIABLE rc)
if(rc EQUAL 0)
    message(FATAL_ERROR
            "suit_obs_check accepted a duplicated sample line")
endif()

message(STATUS "metrics scrape e2e ok")
