# Run one deterministic BENCH writer in its own scratch directory and
# gate its fresh output against the committed baseline with alr_diff:
# any drift in a modeled field fails the test.
#
#   cmake -DBENCH=<bench> -DDIFF=<alr_diff> -DJSON=BENCH_x.json
#         -DBASELINE_DIR=<source dir> -DWORK=<scratch dir>
#         -P bench_gate.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${WORK}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "0")
    message(FATAL_ERROR "${BENCH} exited '${rc}'\n${err}")
endif()
execute_process(COMMAND "${DIFF}" "${BASELINE_DIR}/${JSON}" "${JSON}"
                        --fail-on "cycles>0,bytes>0,energy>0,stats>0"
                WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "0")
    message(FATAL_ERROR "alr_diff exited '${rc}' on ${JSON}\n${out}${err}")
endif()
