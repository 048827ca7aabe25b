# End-to-end check of suit_sweep's trace-key dispatch order.
#
# Runs a small shared-domain grid (2 core counts x 2 strategies x 3
# workloads) under a trace-cache cap that holds one workload's two
# streams but not all six traces: at ~5 B/event the largest pair
# (Nginx) takes ~6.0 MiB and all six ~10.3 MiB, so the cap is 8 MiB.
# In job order such a grid evicts and regenerates traces; in
# trace-key order it must generate each of its 3 x 2 distinct
# (workload, seed, stream) traces exactly once.  Runs
# it with --jobs 1 and --jobs 4 and requires:
#   - byte-identical CSVs;
#   - the --jobs 1 footer to report "6 traces generated".
#
# Invoked by ctest as:
#   cmake -DSUIT_SWEEP=<tool> -DWORK_DIR=<scratch> -P this_file

if(NOT SUIT_SWEEP OR NOT WORK_DIR)
    message(FATAL_ERROR "SUIT_SWEEP and WORK_DIR must be defined")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(GRID
    --cpu A --cores 1,2 --strategy e,fV
    --workload 557.xz,Nginx,VLC --trace-cache-mb 8)
set(DISTINCT_KEYS 6)

foreach(jobs 1 4)
    execute_process(
        COMMAND ${SUIT_SWEEP} ${GRID} --jobs ${jobs}
                --out ${WORK_DIR}/jobs${jobs}.csv
        RESULT_VARIABLE rc
        ERROR_VARIABLE err_${jobs})
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "sweep with --jobs ${jobs} failed (exit ${rc}): "
                "${err_${jobs}}")
    endif()
endforeach()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/jobs1.csv ${WORK_DIR}/jobs4.csv
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--jobs 4 CSV differs from the --jobs 1 CSV")
endif()

if(NOT err_1 MATCHES "([0-9]+) traces generated")
    message(FATAL_ERROR "no trace-cache footer in: ${err_1}")
endif()
if(NOT CMAKE_MATCH_1 EQUAL DISTINCT_KEYS)
    message(FATAL_ERROR
            "--jobs 1 generated ${CMAKE_MATCH_1} traces for "
            "${DISTINCT_KEYS} distinct keys: ${err_1}")
endif()
