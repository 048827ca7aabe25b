# End-to-end acceptance test of the flight recorder: interrupted
# fleet runs must leave a valid post-mortem JSONL dump behind.
#
#   1. SIGINT path: --stop-after raises the same internal flag as
#      Ctrl-C after the first shard; the run exits 130 and the dump
#      must carry reason "sigint".
#   2. deadline path: a tiny --deadline-s budget expires mid-run;
#      exit 130 again, reason "deadline".
#
# Both dumps must pass suit_obs_check --flight (monotonic sample
# ids, non-decreasing counters) and carry the fleet series.
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

# --- 1. SIGINT (via --stop-after) ---------------------------------
execute_process(
    COMMAND ${SUIT_FLEET} --domains 10000 --shard 256 --jobs 2
            --stop-after 1
            --flight-recorder ${WORK_DIR}/sigint.jsonl
    OUTPUT_QUIET
    ERROR_VARIABLE ignored
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 130)
    message(FATAL_ERROR
            "stopped fleet run should exit 130, got ${rc}")
endif()
if(NOT EXISTS "${WORK_DIR}/sigint.jsonl")
    message(FATAL_ERROR "no flight dump after --stop-after")
endif()

execute_process(
    COMMAND ${SUIT_OBS_CHECK} --flight ${WORK_DIR}/sigint.jsonl
            --require fleet.shards.executed
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "suit_obs_check rejected the sigint dump (exit ${rc})")
endif()

file(READ ${WORK_DIR}/sigint.jsonl CONTENT)
if(NOT CONTENT MATCHES "\"reason\": \"sigint\"")
    message(FATAL_ERROR "sigint dump carries the wrong reason")
endif()

# --- 2. deadline expiry -------------------------------------------
execute_process(
    COMMAND ${SUIT_FLEET} --domains 200000 --shard 256 --jobs 2
            --deadline-s 0.05
            --flight-recorder ${WORK_DIR}/deadline.jsonl
    OUTPUT_QUIET
    ERROR_VARIABLE ignored
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 130)
    message(FATAL_ERROR
            "deadline-expired fleet run should exit 130, got ${rc}")
endif()

execute_process(
    COMMAND ${SUIT_OBS_CHECK} --flight ${WORK_DIR}/deadline.jsonl
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "suit_obs_check rejected the deadline dump (exit ${rc})")
endif()

file(READ ${WORK_DIR}/deadline.jsonl CONTENT)
if(NOT CONTENT MATCHES "\"reason\": \"deadline\"")
    message(FATAL_ERROR "deadline dump carries the wrong reason")
endif()

# --- validator must bite ------------------------------------------
file(WRITE ${WORK_DIR}/tampered.jsonl
    "{\"schema\": \"suit-flight-v1\", \"reason\": \"x\", \"series\": "
    "[{\"name\": \"a\", \"kind\": \"counter\"}]}\n"
    "{\"sample\": 1, \"host_us\": 1.0, \"values\": [9]}\n"
    "{\"sample\": 2, \"host_us\": 2.0, \"values\": [3]}\n")
execute_process(
    COMMAND ${SUIT_OBS_CHECK} --flight ${WORK_DIR}/tampered.jsonl
    RESULT_VARIABLE rc)
if(rc EQUAL 0)
    message(FATAL_ERROR
            "suit_obs_check accepted a decreasing counter")
endif()

message(STATUS "flight recorder e2e ok")
