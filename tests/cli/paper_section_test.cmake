# One experiment of the paper runner: in the stdout and suit-claims-v1
# record that suit_paper_claims leaves in WORK_DIR, require
#  - the experiment's "SUIT reproduction — HEADING" section;
#  - at least one claim whose id starts with one of ID_PREFIXES
#    (comma-separated, e.g. "fig8,fig9"), each of them a pass or a
#    listed expected deviation.
#
# Invoked by ctest (fixture suit_paper_output) as:
#   cmake -DWORK_DIR=<suit_paper_claims' scratch> -DHEADING=<text>
#         -DID_PREFIXES=<list> -P this_file

if(NOT WORK_DIR OR NOT HEADING OR NOT ID_PREFIXES)
    message(FATAL_ERROR "WORK_DIR, HEADING and ID_PREFIXES must be defined")
endif()
foreach(f stdout.txt claims.jsonl)
    if(NOT EXISTS "${WORK_DIR}/${f}")
        message(FATAL_ERROR "${WORK_DIR}/${f} is missing: "
            "suit_paper_claims did not run")
    endif()
endforeach()

file(READ "${WORK_DIR}/stdout.txt" out)
string(FIND "\n${out}" "\nSUIT reproduction — ${HEADING}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "suit_paper printed no \"${HEADING}\" section")
endif()

# Claim lines hold free text (with semicolons), so read them one id at
# a time rather than as a CMake list of lines.
file(READ "${WORK_DIR}/claims.jsonl" json)
string(REPLACE "," ";" prefixes "${ID_PREFIXES}")
set(checked 0)
foreach(prefix IN LISTS prefixes)
    string(REPLACE "." "\\." prefix_re "${prefix}")
    string(REGEX MATCHALL "\n{\"id\": \"${prefix_re}\\.[^\"]*\""
        ids "${json}")
    foreach(id IN LISTS ids)
        string(REGEX REPLACE "^\n{\"id\": \"(.*)\"$" "\\1" id "${id}")
        string(REPLACE "." "\\." id_re "${id}")
        string(REGEX MATCH
            "\n{\"id\": \"${id_re}\"[^\n]*\"verdict\": \"([a-z_]+)\""
            unused "${json}")
        set(verdict "${CMAKE_MATCH_1}")
        if(NOT verdict STREQUAL "pass" AND
           NOT verdict STREQUAL "expected_deviation")
            message(FATAL_ERROR "claim ${id}: verdict \"${verdict}\"")
        endif()
        math(EXPR checked "${checked} + 1")
    endforeach()
endforeach()
if(checked EQUAL 0)
    message(FATAL_ERROR "no claim id starts with ${ID_PREFIXES}")
endif()
message(STATUS "\"${HEADING}\" section: ${checked} claims hold")
