# End-to-end check that a suit_sweep journal survives a hard kill.
#
# Runs a 64-cell grid four ways:
#   1. uninterrupted serial checkpointed run   -> ref.csv, ref.ckpt
#   2. the same run again                      -> ref2.csv, ref2.ckpt
#   3. checkpointed 2-worker run killed (SIGKILL, by the
#      execute_process timeout) a quarter of the
#      way through run 1's wall time           -> journal.ckpt
#   4. resumed run with 2 workers              -> resumed.csv
# and requires:
#   - resumed.csv to be byte-identical to ref.csv: a kill may leave the
#     journal ending in a torn record, which the resume drops and
#     re-runs;
#   - the two serial runs to leave byte-identical journals (records
#     are appended in completion order, which is fixed when serial).
# Timing the kill off run 1 keeps it mid-run on fast Release builds
# and on slow sanitizer builds alike.
#
# Invoked by ctest as:
#   cmake -DSUIT_SWEEP=<tool> -DWORK_DIR=<scratch> -P this_file

if(NOT SUIT_SWEEP OR NOT WORK_DIR)
    message(FATAL_ERROR "SUIT_SWEEP and WORK_DIR must be defined")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(GRID
    --cpu C --strategy e,fV,V,hybrid --offset -70,-97
    --workload 520.omnetpp,Nginx,557.xz,VLC,502.gcc,505.mcf,531.deepsjeng,541.leela)

foreach(run ref ref2)
    string(TIMESTAMP start_us "%s%f")
    execute_process(
        COMMAND ${SUIT_SWEEP} ${GRID} --jobs 1
                --checkpoint ${WORK_DIR}/${run}.ckpt
                --out ${WORK_DIR}/${run}.csv
        RESULT_VARIABLE rc)
    string(TIMESTAMP end_us "%s%f")
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "serial sweep '${run}' failed (exit ${rc})")
    endif()
    if(run STREQUAL "ref")
        math(EXPR kill_ms "(${end_us} - ${start_us}) / 4000")
    endif()
endforeach()

foreach(pair "ref.csv;ref2.csv" "ref.ckpt;ref2.ckpt")
    list(GET pair 0 a)
    list(GET pair 1 b)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK_DIR}/${a} ${WORK_DIR}/${b}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "two uninterrupted serial runs differ: ${a} vs ${b}")
    endif()
endforeach()

math(EXPR kill_s "${kill_ms} / 1000")
math(EXPR kill_frac "${kill_ms} % 1000")
string(LENGTH "00${kill_frac}" len)
math(EXPR len "${len} - 3")
string(SUBSTRING "00${kill_frac}" ${len} 3 kill_frac)
set(KILL_AFTER_S "${kill_s}.${kill_frac}")
message(STATUS "killing the 2-worker run after ${KILL_AFTER_S} s")
execute_process(
    COMMAND ${SUIT_SWEEP} ${GRID} --jobs 2
            --checkpoint ${WORK_DIR}/journal.ckpt
            --out ${WORK_DIR}/killed.csv
    TIMEOUT ${KILL_AFTER_S}
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
    message(FATAL_ERROR
            "the sweep finished within ${KILL_AFTER_S} s, before the "
            "kill")
endif()
if(NOT EXISTS ${WORK_DIR}/journal.ckpt)
    message(FATAL_ERROR
            "the killed sweep left no journal (killed before it "
            "started?): ${rc}")
endif()

execute_process(
    COMMAND ${SUIT_SWEEP} ${GRID} --jobs 2
            --checkpoint ${WORK_DIR}/journal.ckpt --resume
            --out ${WORK_DIR}/resumed.csv
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "resumed sweep failed (exit ${rc})")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/ref.csv ${WORK_DIR}/resumed.csv
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "CSV resumed after a kill differs from the uninterrupted run")
endif()
