# Run a command and pass only when it exits with a given code.
#
#   cmake -DEXPECT=1 "-DCMD=prog|arg1|arg2" -P expect_exit.cmake
#
# CMD separates its arguments with '|' (a ';' list would be split by
# add_test).  A crash (abort, signal) never matches a numeric EXPECT.
string(REPLACE "|" ";" cmd "${CMD}")
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT}")
    message(FATAL_ERROR "exit '${rc}', expected ${EXPECT}\n${err}")
endif()
message(STATUS "exit ${rc} as expected: ${err}")
