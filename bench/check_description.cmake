# Runs one bench twice into the same fresh data directory and fails unless
# description.csv is byte-identical after both runs and holds no duplicate
# line.
#
#   cmake -DBENCH=<bench binary> -DDATA_DIR=<temp dir> -P check_description.cmake
file(REMOVE_RECURSE "${DATA_DIR}")
set(ENV{GPUCOMM_DATA_DIR} "${DATA_DIR}")
foreach(run 1 2)
  execute_process(COMMAND "${BENCH}" RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc} on run ${run}")
  endif()
  file(READ "${DATA_DIR}/description.csv" desc_${run})
endforeach()
if(NOT desc_1 STREQUAL desc_2)
  message(FATAL_ERROR "description.csv changed between runs:\n"
                      "--- run 1\n${desc_1}--- run 2\n${desc_2}")
endif()
file(STRINGS "${DATA_DIR}/description.csv" lines)
set(unique_lines ${lines})
list(REMOVE_DUPLICATES unique_lines)
list(LENGTH lines count)
list(LENGTH unique_lines unique_count)
if(count EQUAL 0 OR NOT count EQUAL unique_count)
  message(FATAL_ERROR "description.csv is empty or holds duplicate lines:\n${desc_2}")
endif()
