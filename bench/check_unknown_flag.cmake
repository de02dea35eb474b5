# Runs a bench with flags it does not know and fails unless it exits with
# status 2 and a one-line "unknown flag" reason on stderr, before it runs
# anything.
#
#   cmake -DBENCH=<bench binary> -DARGS="<flags>" -P check_unknown_flag.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
string(FIND "${err}" "unknown flag '" reason)
if(NOT rc EQUAL 2 OR reason EQUAL -1 OR NOT out STREQUAL "")
  message(FATAL_ERROR "${BENCH} ${ARGS}: exit ${rc}, stdout:\n${out}\nstderr:\n${err}")
endif()
