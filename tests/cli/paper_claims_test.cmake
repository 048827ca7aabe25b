# Paper conformance: run suit_paper and require
#  - exit 0: every paper claim holds, or misses as a listed expected
#    deviation (a listed deviation that starts to hold fails too);
#  - a suit-claims-v1 record from --json whose header counts its claim
#    lines and whose claim ids are distinct;
#  - EXPERIMENTS.md holding the printed claims table verbatim between
#    its "suit_paper claims" markers, so the documented claims cannot
#    drift from the code.
#
# Invoked by ctest as:
#   cmake -DSUIT_PAPER=<tool> -DEXPERIMENTS=<EXPERIMENTS.md>
#         -DWORK_DIR=<scratch> -P this_file

if(NOT SUIT_PAPER OR NOT EXPERIMENTS OR NOT WORK_DIR)
    message(FATAL_ERROR
        "SUIT_PAPER, EXPERIMENTS and WORK_DIR must be defined")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
    COMMAND ${SUIT_PAPER} --json ${WORK_DIR}/claims.jsonl
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
# paper_section_test.cmake reads the per-experiment sections from here.
file(WRITE "${WORK_DIR}/stdout.txt" "${out}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "suit_paper failed (exit ${rc}): a paper claim fails\n${out}\n${err}")
endif()

file(READ "${WORK_DIR}/claims.jsonl" json)
string(FIND "${json}" "{\"schema\": \"suit-claims-v1\"" pos)
if(NOT pos EQUAL 0)
    message(FATAL_ERROR "claims record lacks the suit-claims-v1 header")
endif()

# Every claim line opens with its id.
string(REGEX MATCH "\"claims\": ([0-9]+)" unused "${json}")
set(declared "${CMAKE_MATCH_1}")
string(REGEX MATCHALL "\n{\"id\": \"[^\"]*\"" ids "${json}")
list(LENGTH ids claim_lines)
if(NOT declared STREQUAL claim_lines)
    message(FATAL_ERROR "the suit-claims-v1 header counts ${declared} "
        "claims, the record holds ${claim_lines} claim lines")
endif()
set(seen "")
foreach(id IN LISTS ids)
    string(REGEX REPLACE "^\n{" "" id "${id}")
    list(FIND seen "${id}" at)
    if(NOT at EQUAL -1)
        message(FATAL_ERROR "two claims share ${id}")
    endif()
    list(APPEND seen "${id}")
endforeach()

# The claims block is the tail of stdout, from its heading on.
string(FIND "${out}" "=== Paper claims" start)
if(start EQUAL -1)
    message(FATAL_ERROR "suit_paper printed no claims table")
endif()
string(SUBSTRING "${out}" ${start} -1 printed)

file(READ "${EXPERIMENTS}" doc)
set(begin_marker "<!-- suit_paper claims: begin -->\n```text\n")
set(end_marker "```\n<!-- suit_paper claims: end -->")
string(FIND "${doc}" "${begin_marker}" begin)
string(FIND "${doc}" "${end_marker}" end)
if(begin EQUAL -1 OR end EQUAL -1)
    message(FATAL_ERROR "EXPERIMENTS.md lacks the suit_paper claims markers")
endif()
string(LENGTH "${begin_marker}" marker_len)
math(EXPR begin "${begin} + ${marker_len}")
math(EXPR len "${end} - ${begin}")
string(SUBSTRING "${doc}" ${begin} ${len} documented)

if(NOT documented STREQUAL printed)
    file(WRITE "${WORK_DIR}/claims.txt" "${printed}")
    message(FATAL_ERROR
        "EXPERIMENTS.md's claims block differs from suit_paper's output; "
        "replace it with ${WORK_DIR}/claims.txt")
endif()
