# End-to-end acceptance of the engines' host spans (obs::Span): a
# checkpointed suit_sweep stopped by --stop-after must leave a valid
# Chrome trace holding its cell span and the journal write stages, a
# traced suit_fleet run must hold its shard span, and the latency
# histograms the spans feed, with the trace cache's generation and
# wait times, must still reach --metrics.
#
# Invoked by ctest as:
#   cmake -DSUIT_SWEEP=<tool> -DSUIT_FLEET=<tool>
#         -DSUIT_OBS_CHECK=<tool> -DWORK_DIR=<scratch> -P this_file

if(NOT SUIT_SWEEP OR NOT SUIT_FLEET OR NOT SUIT_OBS_CHECK
   OR NOT WORK_DIR)
    message(FATAL_ERROR "SUIT_SWEEP, SUIT_FLEET, SUIT_OBS_CHECK and "
            "WORK_DIR must be defined")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Run the command named by the remaining arguments and require exit
# code @p want.
function(run_expect label want)
    execute_process(
        COMMAND ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(NOT rc EQUAL ${want})
        message(FATAL_ERROR
                "${label}: expected exit ${want}, got ${rc}: ${err}")
    endif()
endfunction()

run_expect("suit_sweep --stop-after 2" 130
    ${SUIT_SWEEP} --cpu C --strategy fV --offset -97
        --workload 520.omnetpp,Nginx,557.xz --jobs 2
        --out ${WORK_DIR}/sweep.csv
        --checkpoint ${WORK_DIR}/sweep.ckpt --stop-after 2
        --trace-out ${WORK_DIR}/sweep.json
        --metrics ${WORK_DIR}/sweep_metrics.json)
run_expect("sweep trace spans" 0
    ${SUIT_OBS_CHECK} --trace ${WORK_DIR}/sweep.json
        --require sweep.cell,journal.append,journal.write,journal.fsync)
run_expect("sweep journal metrics" 0
    ${SUIT_OBS_CHECK} --metrics ${WORK_DIR}/sweep_metrics.json
        --require exec.journal.append_ms,exec.journal.writes,trace.generate_ms,sim.trace_cache.wait_ms)

run_expect("suit_fleet" 0
    ${SUIT_FLEET} --domains 300 --shard 64 --jobs 2
        --trace-out ${WORK_DIR}/fleet.json
        --metrics ${WORK_DIR}/fleet_metrics.json)
run_expect("fleet trace spans" 0
    ${SUIT_OBS_CHECK} --trace ${WORK_DIR}/fleet.json
        --require fleet.shard)
run_expect("fleet shard metrics" 0
    ${SUIT_OBS_CHECK} --metrics ${WORK_DIR}/fleet_metrics.json
        --require fleet.shard_ms)
