// Command-line microbenchmark driver, mirroring the paper artifact's
// src/microbench binaries: one invocation = one experiment, human-readable
// table on stdout.
//
// Usage:
//   gpucomm_cli --system leonardo --op allreduce --mechanism ccl
//               --gpus 16 --min 1024 --max 1073741824 [--space host]
//               [--untuned] [--sl N] [--placement packed|switches|groups]
//               [--nodes N] [--no-noise] [--iters N] [--seed N] [--jobs N]
//               [--trace out.json] [--counters] [--profile]
//               [--timeseries out.csv] [--bucket-us N]
//               [--metrics-out out.json] [--dump-schedule] [--faults spec]
//   gpucomm_cli --serve [--serve-jobs N] [--serve-cache-mb N]
//               [--serve-socket path] [--serve-deadline-ms N]
//               [--serve-max-queue N] [--serve-max-line-bytes N]
//               [--serve-cache-file path] [--serve-snapshot-every N]
//
// Flags are validated strictly (harness/cli_args.hpp): a malformed value or
// unknown name prints one line on stderr and exits with status 2.
//
// --trace writes a Chrome-trace JSON (load in chrome://tracing or Perfetto)
// of every flow's queue/transfer spans; --counters prints per-link and
// per-NIC utilization tables after the results. --profile prints, per size,
// the critical-path breakdown of one representative iteration (per-round
// serialization / contention / propagation / fault-recovery / overhead,
// summing exactly to the end-to-end time) and the top bottleneck links on
// the critical path. --timeseries writes per-link bucketed throughput CSV
// (bucket width --bucket-us) and prints a congestion heatmap. --metrics-out
// writes a machine-readable run manifest JSON (config, seed, git version,
// schedule identities incl. wire_exact, full latency/goodput percentiles,
// and any profile/time-series/counter sections that were enabled); the file
// is byte-identical across runs with the same configuration and seed. None
// of these flags changes the simulated timings or another flag's report:
// the profiled iterations run after the measured ones, with only the
// profiler attached.
//
// --faults takes a fault-schedule file, or an inline spec with ';' between
// events ("at 100us down link 4; at 300us up link 4" — see
// fault/fault_schedule.hpp for the grammar). Iterations whose recovery
// retries are exhausted count in the `fails` column instead of the stats.
//
// --jobs N switches the sweep to the deterministic cell harness
// (docs/PERFORMANCE.md): every (size, rep) becomes an independent
// simulation seeded from (--seed, size, rep) and the cells run on N worker
// threads; the merged tables and manifest are byte-identical for any N.
// Because each cell owns its cluster, --jobs is rejected together with the
// whole-run telemetry flags and --faults. Without --jobs the classic
// coupled serial run (one cluster, one noise stream) is kept.
//
// --dump-schedule prints, instead of timings, the Schedule IR the mechanism
// would execute for the op at each size in the sweep — the output of the
// same plan() the implementations run, so what you see is what is timed.
//
// --serve runs the persistent scenario server (docs/SERVER.md): JSON-lines
// queries on stdin (or on --serve-socket), one response line per query with
// the same RunManifest the standalone --metrics-out run writes — byte for
// byte, at any --serve-jobs and any cache state. Scenario flags cannot be
// combined with it; every parameter arrives per query.
//
// op: pingpong | alltoall | allreduce | broadcast | allgather | reducescatter
// mechanism: staging | devcopy | ccl | mpi
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "gpucomm/gpucomm.hpp"
#include "gpucomm/serve/scenario.hpp"
#include "gpucomm/serve/server.hpp"
#include "gpucomm/serve/socket.hpp"

using namespace gpucomm;

namespace {

constexpr const char* kUsage =
    "usage: %s --system S --op OP --mechanism M --gpus N\n"
    "  [--min B --max B]               transfer-size sweep bounds (bytes, x4 steps,\n"
    "                                  at most 1 TiB)\n"
    "  [--space host|device]           where communication buffers live\n"
    "  [--untuned] [--sl N]            default env / service level (virtual lane)\n"
    "  [--placement packed|switches|groups]  rank placement across the fabric\n"
    "  [--nodes N]                     node-count override (default: from --gpus)\n"
    "  [--no-noise]                    drained system: no production noise field\n"
    "  [--iters N] [--seed N]          iteration override / cluster RNG seed\n"
    "  [--jobs N]                      deterministic cell harness: every\n"
    "                                  (size, rep) is an independent simulation\n"
    "                                  with a seed derived from (--seed, size,\n"
    "                                  rep), run on N workers; output is byte-\n"
    "                                  identical for any N (incompatible with\n"
    "                                  --trace/--counters/--profile/\n"
    "                                  --timeseries/--faults)\n"
    "  [--trace out.json]              Chrome-trace of every flow's lifecycle\n"
    "  [--counters]                    per-link / per-NIC utilization tables\n"
    "  [--profile]                     per-round critical-path breakdown and the\n"
    "                                  top bottleneck links on the critical path\n"
    "  [--timeseries out.csv]          bucketed per-link throughput + heatmap\n"
    "  [--bucket-us N]                 time-series bucket width (default 50us)\n"
    "  [--metrics-out out.json]        machine-readable run manifest (config,\n"
    "                                  seed, git version, schedule identity,\n"
    "                                  full percentiles; deterministic output)\n"
    "  [--dump-schedule]               print the Schedule IR instead of timings\n"
    "  [--faults spec]                 fault schedule file or inline spec\n"
    "or: %s --serve                    persistent scenario server: JSON-lines\n"
    "                                  queries on stdin, one response per line\n"
    "                                  (docs/SERVER.md)\n"
    "  [--serve-jobs N]                worker threads answering queries\n"
    "  [--serve-cache-mb N]            cross-query cache budget (default 256)\n"
    "  [--serve-socket path]           listen on a unix socket instead of stdio\n"
    "                                  (concurrent connections; shutdown or\n"
    "                                  SIGTERM drains in-flight work)\n"
    "  [--serve-deadline-ms N]         default per-query queue-wait budget;\n"
    "                                  expired queries answer error \"deadline\"\n"
    "  [--serve-max-queue N]           admission bound; overflow answers error\n"
    "                                  \"overloaded\" with retry_after_ms (0 = off)\n"
    "  [--serve-max-line-bytes N]      longest accepted request line (default 1MiB)\n"
    "  [--serve-cache-file path]       crash-safe cache snapshot, loaded at start,\n"
    "                                  written at shutdown and every\n"
    "  [--serve-snapshot-every N]      ...N answered queries (default 256)\n";

/// Print the schedule(s) the communicator's plan() selects at each size in
/// the sweep. For allgather the sweep size is the per-rank contribution,
/// matching time_allgather.
void dump_schedules(Communicator& comm, const serve::Scenario& s) {
  for (const Bytes b : s.sizes) {
    const auto plans = comm.plan(s.op, b);
    std::printf("-- %s @ %s --\n", s.query.op.c_str(), format_bytes(b).c_str());
    if (plans.empty()) {
      std::printf("(no schedule: point-to-point or unsupported op)\n");
      continue;
    }
    for (std::size_t i = 0; i < plans.size(); ++i) {
      if (plans.size() > 1) std::printf("[concurrent schedule %zu]\n", i);
      std::fputs(sched::describe(plans[i]).c_str(), stdout);
    }
  }
}

/// Solver section of --counters: how the flow network's reallocation events
/// were answered (incremental vs full vs no-work), why full solves happened,
/// and the size distribution of the component subproblems. None of it
/// changes the simulated timings.
void print_solver_stats(const net::SolverStats& s) {
  std::printf("\n-- flow-network solver --\n");
  std::printf("reallocations   %10llu\n", (unsigned long long)s.reallocations);
  std::printf("  incremental   %10llu\n", (unsigned long long)s.incremental_events);
  std::printf("  full          %10llu  (first %llu, link-state %llu, noise %llu, "
              "config %llu, threshold %llu)\n",
              (unsigned long long)s.full_solves, (unsigned long long)s.fallback_first,
              (unsigned long long)s.fallback_link_state, (unsigned long long)s.fallback_noise,
              (unsigned long long)s.fallback_config, (unsigned long long)s.fallback_threshold);
  std::printf("  reference     %10llu\n", (unsigned long long)s.reference_solves);
  std::printf("  no-work       %10llu\n", (unsigned long long)s.no_work_events);
  std::printf("component solves %9llu  (cache hits %llu, misses %llu)\n",
              (unsigned long long)s.component_solves, (unsigned long long)s.cache_hits,
              (unsigned long long)s.cache_misses);
  std::printf("component sizes (log2 flows):");
  std::size_t last = 0;
  for (std::size_t b = 0; b < s.component_size_log2.size(); ++b) {
    if (s.component_size_log2[b] != 0) last = b;
  }
  for (std::size_t b = 0; b <= last; ++b) {
    std::printf(" [2^%zu]=%llu", b, (unsigned long long)s.component_size_log2[b]);
  }
  std::printf("\n");
}

int run_serve(const cli::CliArgs& a, const char* argv0) {
  serve::ServeOptions o;
  o.jobs = a.serve_jobs;
  o.cache_bytes = static_cast<std::size_t>(a.serve_cache_mb) << 20;
  o.deadline_ms = a.serve_deadline_ms;
  o.max_queue = a.serve_max_queue;
  o.max_line_bytes = a.serve_max_line_bytes;
  o.cache_file = a.serve_cache_file;
  o.snapshot_every = a.serve_snapshot_every;
  if (a.serve_socket.empty()) {
    serve::serve_loop(std::cin, std::cout, o);
    return 0;
  }
  serve::ServeResult result;
  std::string err;
  if (!serve::serve_socket(a.serve_socket, o, result, err)) {
    std::fprintf(stderr, "%s: --serve-socket: %s\n", argv0, err.c_str());
    return 1;
  }
  // The drain tally goes to stderr: on a SIGTERM drain there is no client
  // left to receive a shutdown response line.
  std::fprintf(stderr,
               "%s: serve drained: %llu answered, %llu shed, %llu lines\n", argv0,
               (unsigned long long)result.counters.answered,
               (unsigned long long)(result.counters.shed_overload +
                                    result.counters.shed_deadline),
               (unsigned long long)result.answered);
  return 0;
}

/// A run with no telemetry-printing flags goes through the same scenario
/// runner the server uses — which is exactly what makes a server response's
/// manifest byte-identical to the standalone --metrics-out artifact.
int run_plain(const cli::CliArgs& a) {
  std::string err;
  const auto out = serve::run_scenario(serve::query_from_cli(a), nullptr,
                                       /*want_manifest=*/!a.metrics_out.empty(), a.jobs, err);
  if (out == nullptr) throw std::invalid_argument(err);
  std::fputs(out->header.c_str(), stdout);
  std::fputs(out->table.c_str(), stdout);
  if (!a.metrics_out.empty()) {
    std::ofstream f(a.metrics_out, std::ios::binary);
    if (f) f << out->manifest_pretty;
    if (!f) {
      std::fprintf(stderr, "failed to write manifest to %s\n", a.metrics_out.c_str());
      return 1;
    }
  }
  return 0;
}

/// The telemetry-printing flags: whole-run sinks attach to one coupled
/// cluster (cell mode rejects these flags at parse time), which the scenario
/// runner's own steps then drive.
int run_observed(const cli::CliArgs& a) {
  const serve::Scenario s = serve::resolve_scenario(serve::query_from_cli(a));
  Cluster cluster(s.config, s.cluster);

  // Telemetry is attached before the communicator so constructor-time traffic
  // (none today) would also be captured; off by default, zero overhead.
  std::unique_ptr<telemetry::TraceRecorder> recorder;
  std::unique_ptr<telemetry::CounterSet> counters;
  std::unique_ptr<metrics::ScheduleProfiler> profiler;
  std::unique_ptr<metrics::TimeSeries> timeseries;
  telemetry::MultiSink sinks;
  if (!a.trace_path.empty()) {
    recorder = std::make_unique<telemetry::TraceRecorder>(&cluster.graph());
    sinks.add(recorder.get());
  }
  if (a.counters) {
    counters = std::make_unique<telemetry::CounterSet>(cluster.graph());
    sinks.add(counters.get());
  }
  if (a.profile || !a.metrics_out.empty()) {
    // Attached by CoupledRun::profile for one representative iteration per
    // size only, so a long sweep does not accumulate every iteration.
    profiler = std::make_unique<metrics::ScheduleProfiler>();
  }
  if (!a.timeseries_path.empty()) {
    timeseries = std::make_unique<metrics::TimeSeries>(
        cluster.graph(), microseconds(static_cast<double>(a.bucket_us)));
    sinks.add(timeseries.get());
  }
  if (recorder || counters || timeseries) cluster.set_telemetry(&sinks);

  serve::CoupledRun run(s, cluster);
  if (a.dump_schedule) {
    std::printf("# %s %s %s, %d GPUs (%d nodes): schedule dump\n", a.system.c_str(),
                a.mechanism.c_str(), a.op.c_str(), a.gpus, s.cluster.nodes);
    dump_schedules(run.comm(), s);
    return 0;
  }
  const serve::SweepResult sweep = run.sweep();
  const serve::Tabulated t = serve::tabulate(s, sweep);
  std::fputs(t.header.c_str(), stdout);
  std::fputs(t.table.c_str(), stdout);

  // The whole-run sinks and solver counters cover the measured iterations:
  // they close here, and the profiled iterations reach the profiler alone.
  const SimTime end = cluster.engine().now();
  const net::SolverStats solver = cluster.network().solver_stats();
  if (counters) counters->finalize(end);
  if (timeseries) timeseries->finalize(end);
  if (profiler) run.profile(sweep, *profiler);

  if (counters) {
    telemetry::print_report(std::cout, *counters, end);
    print_solver_stats(solver);
  }
  if (profiler && a.profile) {
    metrics::print_profile(std::cout, profiler->build(), &cluster.graph());
  }
  if (timeseries) {
    timeseries->render_heatmap(std::cout);
    std::ofstream csv(a.timeseries_path);
    if (csv) timeseries->write_csv(csv);
    if (!csv) {
      std::fprintf(stderr, "failed to write time series to %s\n", a.timeseries_path.c_str());
      return 1;
    }
  }
  if (!a.metrics_out.empty() &&
      !metrics::write_manifest_file(a.metrics_out, t.manifest, profiler.get(),
                                    timeseries.get(), counters.get())) {
    std::fprintf(stderr, "failed to write manifest to %s\n", a.metrics_out.c_str());
    return 1;
  }
  if (recorder && !telemetry::write_chrome_trace_file(a.trace_path, *recorder)) {
    std::fprintf(stderr, "failed to write trace to %s\n", a.trace_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string parse_error;
  const std::optional<cli::CliArgs> parsed = cli::parse_cli(argc, argv, parse_error);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], parse_error.c_str());
    std::fprintf(stderr, kUsage, argv[0], argv[0]);
    return 2;
  }
  const cli::CliArgs& a = *parsed;
  if (a.help) {
    std::printf(kUsage, argv[0], argv[0]);
    return 0;
  }
  if (a.serve) return run_serve(a, argv[0]);
  const bool observed = !a.trace_path.empty() || a.counters || a.profile ||
                        !a.timeseries_path.empty() || a.dump_schedule;
  try {
    return observed ? run_observed(a) : run_plain(a);
  } catch (const std::exception& e) {
    // Bad --nodes or --faults values, and construction failures.
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}
