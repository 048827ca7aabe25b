# End-to-end acceptance test of suit_sweep checkpoint/resume.
#
# Runs a small grid three ways:
#   1. uninterrupted serial run            -> ref.csv
#   2. checkpointed run stopped after 3 of
#      its 8 cells (exit code 130)         -> journal
#   3. resumed run with 2 workers          -> resumed.csv
# and requires resumed.csv to be byte-identical to ref.csv.  Also
# checks that resuming a *different* grid against the same journal
# is refused, and repeats the stop and the resume at 4 workers on a
# grid of four trace groups, where a stop leaves unstarted cells in
# every worker's lane.
#
# Invoked by ctest as:
#   cmake -DSUIT_SWEEP=<tool> -DWORK_DIR=<scratch> -P this_file

if(NOT SUIT_SWEEP OR NOT WORK_DIR)
    message(FATAL_ERROR "SUIT_SWEEP and WORK_DIR must be defined")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(GRID
    --cpu C --strategy e,fV --offset -70,-97
    --workload 520.omnetpp,Nginx)

execute_process(
    COMMAND ${SUIT_SWEEP} ${GRID} --jobs 1
            --out ${WORK_DIR}/ref.csv
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "reference sweep failed (exit ${rc})")
endif()

execute_process(
    COMMAND ${SUIT_SWEEP} ${GRID} --jobs 1
            --checkpoint ${WORK_DIR}/journal.bin --stop-after 3
            --out ${WORK_DIR}/partial.csv
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 130)
    message(FATAL_ERROR
            "interrupted sweep exited ${rc}, expected 130")
endif()

# Resuming against a different grid must be refused outright.
execute_process(
    COMMAND ${SUIT_SWEEP} --cpu C --strategy e,fV --offset -50,-97
            --workload 520.omnetpp,Nginx --jobs 1
            --checkpoint ${WORK_DIR}/journal.bin --resume
            --out ${WORK_DIR}/bogus.csv
    RESULT_VARIABLE rc
    ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "fingerprint mismatch was not refused")
endif()
if(NOT err MATCHES "different grid")
    message(FATAL_ERROR
            "mismatch refusal lacks a clear error: ${err}")
endif()

# The real resume, on a different worker count, must complete the
# grid and reproduce the uninterrupted CSV byte for byte.
execute_process(
    COMMAND ${SUIT_SWEEP} ${GRID} --jobs 2
            --checkpoint ${WORK_DIR}/journal.bin --resume
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
            "resumed CSV differs from the uninterrupted run")
endif()

# The parallel leg: stop a 4-worker run of a 16-cell grid (one trace
# group per worker lane) after 6 cells, resume it at 4 workers, and
# compare with a serial run of the same grid.
set(GRID4
    --cpu C --strategy e,fV --offset -70,-97
    --workload 520.omnetpp,Nginx,557.xz,VLC)

execute_process(
    COMMAND ${SUIT_SWEEP} ${GRID4} --jobs 1
            --out ${WORK_DIR}/ref4.csv
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "4-group reference sweep failed (exit ${rc})")
endif()

execute_process(
    COMMAND ${SUIT_SWEEP} ${GRID4} --jobs 4
            --checkpoint ${WORK_DIR}/journal4.bin --stop-after 6
            --out ${WORK_DIR}/partial4.csv
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 130)
    message(FATAL_ERROR
            "interrupted 4-worker sweep exited ${rc}, expected 130")
endif()

execute_process(
    COMMAND ${SUIT_SWEEP} ${GRID4} --jobs 4
            --checkpoint ${WORK_DIR}/journal4.bin --resume
            --out ${WORK_DIR}/resumed4.csv
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "resumed 4-worker sweep failed (exit ${rc})")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/ref4.csv ${WORK_DIR}/resumed4.csv
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "4-worker resumed CSV differs from the serial run")
endif()
