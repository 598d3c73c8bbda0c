# Run one driver invocation and require a clean user-error exit: status
# 2 and a `fatal:` line on stderr.  A signal (an uncaught exception's
# abort), a zero exit or a missing message fails the test.
#
#   cmake -DCMD=<binary> -DARGS="k=v;k2=v2" -P expect_fatal.cmake
execute_process(COMMAND ${CMD} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${CMD} ${ARGS}: exit '${rc}', want 2\n${err}")
endif()
if(NOT err MATCHES "fatal: ")
  message(FATAL_ERROR "${CMD} ${ARGS}: no 'fatal:' message\n${err}")
endif()
