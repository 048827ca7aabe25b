# Smoke test of suit_bench_json: run the benchmark scenarios with a
# single repetition (seconds, not minutes), then validate the emitted
# record against the suit-bench-simcore-v7 schema with the tool's own
# --check mode, which requires every scenario key (uarch_generate and
# uarch_o3 included).
#
# Invoked by ctest as:
#   cmake -DSUIT_BENCH_JSON=<tool> -DWORK_DIR=<scratch> -P this_file

if(NOT SUIT_BENCH_JSON OR NOT WORK_DIR)
    message(FATAL_ERROR "SUIT_BENCH_JSON and WORK_DIR must be defined")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
    COMMAND ${SUIT_BENCH_JSON} --reps 1
            --out ${WORK_DIR}/bench.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "suit_bench_json failed (exit ${rc})")
endif()

if(NOT EXISTS "${WORK_DIR}/bench.json")
    message(FATAL_ERROR "suit_bench_json wrote no output file")
endif()

execute_process(
    COMMAND ${SUIT_BENCH_JSON} --check ${WORK_DIR}/bench.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "emitted record fails schema check (exit ${rc})")
endif()

# A corrupted record must be rejected.
file(READ "${WORK_DIR}/bench.json" CONTENT)
string(REPLACE "suit-bench-simcore-v7" "wrong-schema" CONTENT
       "${CONTENT}")
file(WRITE "${WORK_DIR}/corrupt.json" "${CONTENT}")
execute_process(
    COMMAND ${SUIT_BENCH_JSON} --check ${WORK_DIR}/corrupt.json
    RESULT_VARIABLE rc)
if(rc EQUAL 0)
    message(FATAL_ERROR "--check accepted a corrupted record")
endif()
