# The timing-memo oracle: a profiled run always walks, while an
# unprofiled one replays a schedule's timing memo whenever its entry
# state repeats, so the two must model the same cycles, bytes, energy
# and stats.  (alr_sim --ab cannot check this: it profiles both sides,
# and both walk.)  Runs one alr_sim workload both ways in its own
# scratch directory and fails on any modeled difference.
#
#   cmake -DSIM=<alr_sim> -DDIFF=<alr_diff> -DWORK=<scratch dir>
#         "-DARGS=--gen|stencil3d:20|--kernel|pcg" -P memo_oracle.cmake
string(REPLACE "|" ";" args "${ARGS}")
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
foreach(side off on)
    set(extra --json --stats)
    if(side STREQUAL "on")
        list(APPEND extra --profile profile.json)
    endif()
    execute_process(COMMAND "${SIM}" ${args} ${extra}
                    WORKING_DIRECTORY "${WORK}" OUTPUT_FILE ${side}.json
                    RESULT_VARIABLE rc ERROR_VARIABLE err)
    if(NOT "${rc}" STREQUAL "0")
        message(FATAL_ERROR "alr_sim (profiler ${side}) exited '${rc}'\n${err}")
    endif()
endforeach()
execute_process(COMMAND "${DIFF}" off.json on.json
                        --fail-on "cycles>0,bytes>0,energy>0,stats>0"
                WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "0")
    message(FATAL_ERROR "alr_diff exited '${rc}'\n${out}${err}")
endif()
