# gpucomm_chaos rejects a bad --connections or --queries value with exit
# status 2, a one-line reason and its usage line, before it connects or
# starts a thread. The socket path does not exist: a value that slipped
# through would reach the connect and exit 1 instead.
#
#   cmake -DCHAOS=<gpucomm_chaos> -DFLAG=<flag> -DVALUE=<value> -P check_chaos_usage.cmake
execute_process(COMMAND "${CHAOS}" --socket no-such.sock "${FLAG}" "${VALUE}"
                RESULT_VARIABLE rc ERROR_VARIABLE err)
string(FIND "${err}" "${FLAG} requires an integer in" reason)
string(FIND "${err}" "usage: " usage)
if(NOT rc EQUAL 2 OR reason EQUAL -1 OR usage EQUAL -1)
  message(FATAL_ERROR "gpucomm_chaos ${FLAG} ${VALUE}: exit ${rc}, stderr:\n${err}")
endif()
