# The artifact check: one alr_sim or alr_serve run writes its
# observability artifacts into its own scratch directory, then
# alr_diff check holds them to every schema, conservation and
# cross-document invariant and fails on any finding.
#
#   cmake -DTOOL=<alr_sim|alr_serve> -DDIFF=<alr_diff> -DWORK=<scratch dir>
#         -DSTDOUT=<file for the run's stdout>
#         "-DCHECK=report.json|timeline.json|..."
#         "-DARGS=--gen|stencil3d:24|--kernel|spmv|..." -P artifact_check.cmake
string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" ";" files "${CHECK}")
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(COMMAND "${TOOL}" ${args}
                WORKING_DIRECTORY "${WORK}" OUTPUT_FILE "${STDOUT}"
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "0")
    message(FATAL_ERROR "${TOOL} exited '${rc}'\n${err}")
endif()
execute_process(COMMAND "${DIFF}" check ${files}
                WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "0")
    message(FATAL_ERROR "alr_diff check exited '${rc}'\n${out}${err}")
endif()
message(STATUS "${out}")
