# End-to-end check of suit_fleet's in-shard trace-key order.
#
# Runs the built-in demo fleet at 20000 domains once with --jobs 1
# (default shard size) and once with --jobs 4 --shard 1000, and
# requires:
#   - byte-identical --report-json documents;
#   - for both runs, footer cache hits + traces generated (one per
#     stream fetched) <= domains / 10.  A shard fetches each
#     (rack, workload, variant) key's traces once for the key's whole
#     run of domains; one fetch per domain would count >= the domain
#     count.
#
# Invoked by ctest as:
#   cmake -DSUIT_FLEET=<tool> -DWORK_DIR=<scratch> -P this_file

if(NOT SUIT_FLEET OR NOT WORK_DIR)
    message(FATAL_ERROR "SUIT_FLEET and WORK_DIR must be defined")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(DOMAINS 20000)
math(EXPR MAX_FETCHES "${DOMAINS} / 10")

foreach(run serial sharded)
    if(run STREQUAL "serial")
        set(run_args --jobs 1)
    else()
        set(run_args --jobs 4 --shard 1000)
    endif()
    execute_process(
        COMMAND ${SUIT_FLEET} --domains ${DOMAINS} ${run_args}
                --report-json ${WORK_DIR}/${run}.json
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "fleet run '${run}' failed (exit ${rc}): ${err}")
    endif()
    if(NOT err MATCHES
       "([0-9]+) traces generated, ([0-9]+) cache hits")
        message(FATAL_ERROR "no trace-cache footer in: ${err}")
    endif()
    math(EXPR fetches "${CMAKE_MATCH_1} + ${CMAKE_MATCH_2}")
    if(fetches GREATER MAX_FETCHES)
        message(FATAL_ERROR
                "fleet run '${run}' made ${fetches} trace fetches for "
                "${DOMAINS} domains (limit ${MAX_FETCHES}): ${err}")
    endif()
endforeach()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/serial.json ${WORK_DIR}/sharded.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "--jobs 4 --shard 1000 report differs from the --jobs 1 "
            "report")
endif()
