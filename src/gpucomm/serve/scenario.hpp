// The shared scenario runner: one ScenarioQuery in, one experiment out.
// gpucomm_cli and the --serve loop run every experiment through the same
// steps (resolve_scenario, then CoupledRun or sweep_cells, then tabulate),
// so a server response's manifest is byte-identical to the standalone
// --metrics-out artifact by construction, not by parallel maintenance of
// two code paths. run_scenario composes the steps for a plain CLI run and
// for every served query; the CLI's telemetry flags compose them around
// their own sinks. Anything that consumes cluster RNG therefore consumes it
// in one order, which is what the byte-for-byte contract rests on.
//
// ServerCaches holds the cross-query caches (docs/SERVER.md): whole
// responses and constructed topologies. Both are exact-compare and hold
// values bit-identical to recomputation, so the determinism contract
// survives any cache state: warm answers equal cold answers byte for byte.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/cluster/topo_snapshot.hpp"
#include "gpucomm/comm/communicator.hpp"
#include "gpucomm/fault/fault_schedule.hpp"
#include "gpucomm/harness/runner.hpp"
#include "gpucomm/metrics/run_manifest.hpp"
#include "gpucomm/serve/cache.hpp"
#include "gpucomm/serve/query.hpp"

namespace gpucomm::fault {
class FaultInjector;
}

namespace gpucomm::serve {

/// A query resolved against its system: everything the runs need.
struct Scenario {
  ScenarioQuery query;
  SystemConfig config;
  Mechanism mechanism = Mechanism::kMpi;
  CollectiveOp op = CollectiveOp::kPingPong;
  /// Build the cluster with these: nodes derived from gpus unless
  /// overridden, placement, noise and seed from the query.
  ClusterOptions cluster;
  CommOptions comm;
  fault::FaultSchedule faults;
  std::vector<Bytes> sizes;
  /// Per size: run_config_for(size), iterations overridden by query.iters.
  std::vector<RunConfig> runs;
};

/// Resolve `q`. A readable "faults" file is loaded as a schedule file;
/// anything else is an inline spec with ';' for newlines. Throws
/// std::invalid_argument with a one-line message when the node count
/// cannot host the ranks or the fault spec does not parse.
Scenario resolve_scenario(const ScenarioQuery& q);

/// What a sweep measured, one entry per size.
struct SweepResult {
  /// The mechanism cannot run this alltoall. available() is a pure function
  /// of the mechanism's configuration, so every size stalls.
  bool stalled = false;
  std::vector<Samples> samples;  // empty when stalled
  std::vector<metrics::RunManifest::PlanInfo> plans;
};

/// The coupled harness: one cluster and one noise stream across the sweep.
class CoupledRun {
 public:
  /// Attach the fault injector, then the communicator, to `cluster`, which
  /// was built from s.config and s.cluster with any telemetry attached.
  /// Both must outlive the run. Throws std::invalid_argument ("--faults:
  /// ...") when the schedule names something the cluster lacks.
  CoupledRun(const Scenario& s, Cluster& cluster);
  ~CoupledRun();

  Communicator& comm() { return *comm_; }

  /// run_iterations per size, then plan() per size.
  SweepResult sweep();

  /// One unmeasured iteration per size with `profiler` attached as the
  /// cluster's only sink, so it records exactly those iterations; their
  /// spans become each size's representative breakdown. Call it after
  /// sweep() and after closing any whole-run sink, so that neither the
  /// timings nor those reports depend on profiling. Nothing runs for a
  /// stalled sweep.
  void profile(const SweepResult& measured, metrics::ScheduleProfiler& profiler);

 private:
  const Scenario& s_;
  Cluster& cluster_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<Communicator> comm_;
};

/// The deterministic cell harness: every (size, rep) is an independent
/// simulation on its own cluster cloned from `topo`, seeded by
/// cell_seed(seed, size, rep), run on `jobs` workers. The result is
/// byte-identical for any `jobs`. Plans and availability come from a
/// pristine planning cluster.
SweepResult sweep_cells(const Scenario& s, const TopologySnapshot& topo, int jobs);

/// A finished experiment: the "# system mechanism op, ..." header line and
/// the aligned results table the CLI prints, and the manifest without its
/// optional profile/time-series/counter sections.
struct Tabulated {
  std::string header;
  std::string table;
  metrics::RunManifest manifest;
};
Tabulated tabulate(const Scenario& s, const SweepResult& sweep);

/// Everything run_scenario renders: the header + table, and the manifest in
/// both artifact (pretty) and JSON-lines (compact) form. Immutable once
/// built; the response cache shares it.
struct ScenarioOutput {
  std::string header;            // "# leonardo mpi allreduce, ..." line
  std::string table;             // aligned results table text
  std::string manifest_pretty;   // --metrics-out artifact bytes
  std::string manifest_compact;  // same document, single line
  std::size_t cost_bytes() const {
    return sizeof(ScenarioOutput) + header.size() + table.size() +
           manifest_pretty.size() + manifest_compact.size();
  }
};

/// Cross-query caches, budgeted from --serve-cache-mb: 9/10 of the budget
/// for whole responses, 1/10 for constructed topologies.
class ServerCaches {
 public:
  explicit ServerCaches(std::size_t total_bytes)
      : topologies("topology", total_bytes / 10),
        responses("responses", total_bytes - total_bytes / 10) {}

  ExactCache<TopologySnapshot> topologies;
  ExactCache<ScenarioOutput> responses;

  std::vector<CacheStats> stats() const { return {topologies.stats(), responses.stats()}; }
};

/// Run one scenario. `caches` may be nullptr (no reuse, e.g. a one-shot CLI
/// run). `want_manifest` controls the coupled-mode profiler gating exactly
/// as the CLI's --metrics-out does: when true, one extra unmeasured
/// profiled iteration per size runs after the measured sweep and the
/// manifest carries the profile section; the server always passes true. `jobs` is the cell harness's
/// worker count (the CLI's --jobs; the server passes 1, since it already
/// answers queries on its own pool). Returns nullptr with a one-line
/// `error` on invalid fault specs or construction failures.
std::shared_ptr<const ScenarioOutput> run_scenario(const ScenarioQuery& q,
                                                   ServerCaches* caches,
                                                   bool want_manifest, int jobs,
                                                   std::string& error);

}  // namespace gpucomm::serve
