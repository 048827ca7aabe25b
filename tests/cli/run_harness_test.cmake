# Contract test of the run flags shared by the two journaled campaign
# CLIs (suit_sweep, suit_fleet):
#   - --resume without --checkpoint is refused ("needs --checkpoint");
#   - a negative --deadline-s is refused;
#   - --checkpoint P --stop-after 1 stops gracefully with exit 130
#     and names the resume command on stderr, and the following
#     --resume completes with exit 0;
#   - suit_fleet --domains below the demo fleet's rack count is
#     refused instead of spinning.
#
# Invoked by ctest as:
#   cmake -DSUIT_SWEEP=<tool> -DSUIT_FLEET=<tool>
#         -DWORK_DIR=<scratch> -P this_file

if(NOT SUIT_SWEEP OR NOT SUIT_FLEET OR NOT WORK_DIR)
    message(FATAL_ERROR
            "SUIT_SWEEP, SUIT_FLEET and WORK_DIR must be defined")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Small, fast invocations of each tool.
set(SWEEP ${SUIT_SWEEP} --cpu C --strategy fV --offset -97
          --workload 520.omnetpp,Nginx --jobs 1
          --out ${WORK_DIR}/sweep.csv)
set(FLEET ${SUIT_FLEET} --domains 300 --shard 64 --jobs 1)

# Run the command named by the remaining arguments and require a
# failing exit code plus, when @p pattern is non-empty, a matching
# diagnostic.
function(expect_refused label pattern)
    execute_process(
        COMMAND ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(rc EQUAL 0)
        message(FATAL_ERROR "${label}: expected a failure, got exit 0")
    endif()
    if(NOT pattern STREQUAL "" AND NOT "${out}${err}" MATCHES "${pattern}")
        message(FATAL_ERROR
                "${label}: diagnostic lacks '${pattern}': ${err}")
    endif()
endfunction()

foreach(tool SWEEP FLEET)
    expect_refused("${tool} --resume" "needs --checkpoint"
                   ${${tool}} --resume)
    expect_refused("${tool} --deadline-s -1" ""
                   ${${tool}} --deadline-s -1)

    # Interrupt after one journaled unit, then resume to completion.
    set(journal ${WORK_DIR}/${tool}.ckpt)
    execute_process(
        COMMAND ${${tool}} --checkpoint ${journal} --stop-after 1
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 130)
        message(FATAL_ERROR
                "${tool} --stop-after 1 exited ${rc}, expected 130")
    endif()
    string(FIND "${err}" "re-run with --checkpoint ${journal} --resume"
           at)
    if(at EQUAL -1)
        message(FATAL_ERROR
                "${tool} interruption footer lacks the resume "
                "command: ${err}")
    endif()

    execute_process(
        COMMAND ${${tool}} --checkpoint ${journal} --resume
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "${tool} --resume exited ${rc}, expected 0: ${err}")
    endif()
endforeach()

# The demo fleet has five racks, each keeping at least one domain.
expect_refused("fleet --domains 3" "5 racks"
               ${SUIT_FLEET} --domains 3 --jobs 1)
