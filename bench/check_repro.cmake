# Runs one paper bench into a fresh data directory and fails unless every CSV
# it writes, description.csv aside, is byte-identical to the checked-in copy.
# On a mismatch it names the first differing file.
#
#   cmake -DBENCH=<bench binary> -DDATA_DIR=<temp dir> -DREF_DIR=<repo data/>
#         [-DARGS="<bench flags>"] -P check_repro.cmake
file(REMOVE_RECURSE "${DATA_DIR}")
set(ENV{GPUCOMM_DATA_DIR} "${DATA_DIR}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args} RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(GLOB csvs RELATIVE "${DATA_DIR}" "${DATA_DIR}/*.csv")
list(REMOVE_ITEM csvs description.csv)
if(NOT csvs)
  message(FATAL_ERROR "${BENCH} wrote no CSV into ${DATA_DIR}")
endif()
list(SORT csvs)
foreach(csv IN LISTS csvs)
  if(NOT EXISTS "${REF_DIR}/${csv}")
    message(FATAL_ERROR "${csv} has no checked-in copy in ${REF_DIR}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${DATA_DIR}/${csv}"
                          "${REF_DIR}/${csv}" RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${csv} differs from the checked-in ${REF_DIR}/${csv} "
                        "(regenerated copy: ${DATA_DIR}/${csv})")
  endif()
endforeach()
