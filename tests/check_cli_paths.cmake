# Pins gpucomm_cli's two run paths to each other and its cell harness to the
# worker count. Runs the CLI into a fresh WORK_DIR and compares, byte for
# byte:
#  (a) the --metrics-out manifest of a plain run (the scenario runner the
#      server uses) with the same run's manifest when --trace and --profile
#      route it through the telemetry path;
#  (b) the manifest and stdout of a --jobs 1 cell sweep with --jobs 4;
#  (c) the table of a coupled multi-size sweep with the tables the same run
#      prints with --metrics-out and with --profile, whose profiled
#      iterations must not move the noise stream under a later size;
#  (d) the --counters output, --timeseries CSV and --trace of a coupled
#      sweep with those of the same run with --metrics-out and with
#      --profile, whose profiled iterations must not reach those reports.
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

# With --profile the breakdowns sit between the counters and the heatmap;
# without it, stdout must be the rest, unchanged.
set(observed ${coupled} --counters)
foreach(run observed observed_manifest observed_profile)
  set(extra)
  if(run STREQUAL "observed_manifest")
    set(extra --metrics-out "${WORK_DIR}/${run}.json")
  elseif(run STREQUAL "observed_profile")
    set(extra --profile)
  endif()
  run_bare(${run} ${observed} --timeseries "${WORK_DIR}/${run}.csv"
           --trace "${WORK_DIR}/${run}.trace.json" ${extra})
endforeach()
foreach(run observed_manifest observed_profile)
  expect_same(observed.csv ${run}.csv)
  expect_same(observed.trace.json ${run}.trace.json)
endforeach()
expect_same(observed.out observed_manifest.out)
file(READ "${WORK_DIR}/observed.out" unprofiled)
file(READ "${WORK_DIR}/observed_profile.out" profiled)
string(LENGTH "${unprofiled}" unprofiled_length)
string(LENGTH "${profiled}" profiled_length)
string(FIND "${profiled}" "== profile:" profile_at)
if(profile_at EQUAL -1 OR profile_at GREATER unprofiled_length)
  message(FATAL_ERROR "${WORK_DIR}/observed_profile.out has no profile after the counters")
endif()
math(EXPR tail_at "${profiled_length} - ${unprofiled_length} + ${profile_at}")
string(SUBSTRING "${unprofiled}" 0 ${profile_at} unprofiled_head)
string(SUBSTRING "${unprofiled}" ${profile_at} -1 unprofiled_tail)
string(SUBSTRING "${profiled}" 0 ${profile_at} profiled_head)
string(SUBSTRING "${profiled}" ${tail_at} -1 profiled_tail)
if(NOT profiled_head STREQUAL unprofiled_head OR NOT profiled_tail STREQUAL unprofiled_tail)
  message(FATAL_ERROR "--profile changed the other reports: compare ${WORK_DIR}/observed.out "
                      "with ${WORK_DIR}/observed_profile.out")
endif()
