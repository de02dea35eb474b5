# Pins gpucomm_cli's two run paths to each other and its cell harness to the
# worker count. Runs the CLI into a fresh WORK_DIR and compares, byte for
# byte:
#  (a) the --metrics-out manifest of a plain run (the scenario runner the
#      server uses) with the same run's manifest when --trace and --profile
#      route it through the telemetry path;
#  (b) the manifest and stdout of a --jobs 1 cell sweep with --jobs 4;
#  (c) the table of a coupled multi-size sweep with the tables the same run
#      prints with --metrics-out and with --profile, whose profiled
#      iterations must not move the noise stream under a later size.
#
#   cmake -DCLI=<gpucomm_cli> -DWORK_DIR=<temp dir> -P check_cli_paths.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_bare name)
  execute_process(COMMAND "${CLI}" ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_FILE "${WORK_DIR}/${name}.out")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gpucomm_cli ${ARGN} exited with ${rc}")
  endif()
endfunction()

function(run_cli name)
  run_bare(${name} ${ARGN} --metrics-out "${WORK_DIR}/${name}.json")
endfunction()

function(expect_same a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK_DIR}/${a}"
                          "${WORK_DIR}/${b}" RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${WORK_DIR}/${a} and ${WORK_DIR}/${b} differ")
  endif()
endfunction()

set(coupled --system leonardo --op allreduce --mechanism ccl --gpus 8 --min 65536
            --max 1048576 --iters 5)
run_cli(plain ${coupled})
run_cli(traced ${coupled} --trace "${WORK_DIR}/trace.json" --profile)
expect_same(plain.json traced.json)

set(cells --system lumi --op alltoall --mechanism mpi --gpus 16 --min 4096 --max 262144
          --iters 4)
run_cli(jobs1 ${cells} --jobs 1)
run_cli(jobs4 ${cells} --jobs 4)
expect_same(jobs1.json jobs4.json)
expect_same(jobs1.out jobs4.out)

# Group-scattered ranks cross the noisy inter-switch links, so an extra
# iteration between sizes shows in the timings (the packed `coupled` row
# above passes even with one).
set(scattered --system leonardo --op alltoall --mechanism mpi --gpus 8 --placement groups
              --min 65536 --max 1048576 --iters 4)
run_bare(scattered ${scattered})
run_cli(scattered_manifest ${scattered})
run_bare(scattered_profile ${scattered} --profile)
expect_same(scattered.out scattered_manifest.out)
# --profile prints its breakdowns after the table.
file(READ "${WORK_DIR}/scattered.out" table)
string(LENGTH "${table}" table_length)
file(READ "${WORK_DIR}/scattered_profile.out" profiled_table LIMIT ${table_length})
if(NOT profiled_table STREQUAL table)
  message(FATAL_ERROR "--profile changed the table: compare ${WORK_DIR}/scattered.out "
                      "with the head of ${WORK_DIR}/scattered_profile.out")
endif()
