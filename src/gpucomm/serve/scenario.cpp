#include "gpucomm/serve/scenario.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "gpucomm/cluster/placement.hpp"
#include "gpucomm/fault/fault_injector.hpp"
#include "gpucomm/harness/parallel.hpp"
#include "gpucomm/harness/table.hpp"
#include "gpucomm/metrics/profiler.hpp"
#include "gpucomm/metrics/version.hpp"
#include "gpucomm/runtime/clock.hpp"
#include "gpucomm/systems/registry.hpp"

namespace gpucomm::serve {

namespace {

std::optional<fault::FaultSchedule> resolve_faults(const std::string& spec,
                                                   std::string& error) {
  if (std::ifstream probe(spec); probe.good()) {
    return fault::load_fault_schedule(spec, &error);
  }
  std::string text = spec;
  for (char& c : text) {
    if (c == ';') c = '\n';
  }
  return fault::parse_fault_schedule(text, &error);
}

/// One timed iteration of `op` on `comm` (pingpong reports half round-trip).
SimTime run_op(Communicator& comm, CollectiveOp op, Bytes b) {
  switch (op) {
    case CollectiveOp::kPingPong:
      return SimTime{comm.time_pingpong(0, comm.size() - 1, b).ps / 2};
    case CollectiveOp::kAlltoall: return comm.time_alltoall(b);
    case CollectiveOp::kAllreduce: return comm.time_allreduce(b);
    case CollectiveOp::kBroadcast: return comm.time_broadcast(0, b);
    case CollectiveOp::kAllgather: return comm.time_allgather(b);
    case CollectiveOp::kReduceScatter: return comm.time_reduce_scatter(b);
    case CollectiveOp::kSend: break;
  }
  throw std::invalid_argument("op has no benchmark run");
}

/// The mechanism's communicator over the scenario's first `gpus` ranks.
std::unique_ptr<Communicator> comm_for(const Scenario& s, Cluster& cluster) {
  return make_comm(s.mechanism, cluster, first_n_gpus(cluster, s.query.gpus), s.comm);
}

bool stalls(const Scenario& s, const Communicator& comm) {
  return s.op == CollectiveOp::kAlltoall && !comm.available(CollectiveOp::kAlltoall);
}

/// Topology for the scenario's (system, nodes, placement), through the cache
/// when present.
std::shared_ptr<const TopologySnapshot> topology_for(const Scenario& s,
                                                     ServerCaches* caches) {
  const int nodes = s.cluster.nodes;
  const Placement placement = s.cluster.placement;
  if (caches == nullptr) return build_topology_snapshot(s.config, nodes, placement);
  const std::string key = s.config.name + "|nodes=" + std::to_string(nodes) +
                          "|placement=" + cli::placement_name(placement);
  if (auto hit = caches->topologies.find(key)) return hit;
  auto snap = build_topology_snapshot(s.config, nodes, placement);
  caches->topologies.insert(key, snap, snap->memory_bytes());
  return snap;
}

std::shared_ptr<const ScenarioOutput> run_scenario_impl(const ScenarioQuery& q,
                                                        ServerCaches* caches,
                                                        bool want_manifest, int jobs) {
  const Scenario s = resolve_scenario(q);
  const std::shared_ptr<const TopologySnapshot> topo = topology_for(s, caches);
  std::unique_ptr<metrics::ScheduleProfiler> profiler;
  SweepResult sweep;
  if (q.cells) {
    sweep = sweep_cells(s, *topo, jobs);
  } else {
    Cluster cluster(*topo, s.cluster);
    CoupledRun run(s, cluster);
    sweep = run.sweep();
    if (want_manifest) {
      profiler = std::make_unique<metrics::ScheduleProfiler>();
      run.profile(sweep, *profiler);
    }
  }

  Tabulated t = tabulate(s, sweep);
  auto out = std::make_shared<ScenarioOutput>();
  out->header = std::move(t.header);
  out->table = std::move(t.table);
  std::ostringstream pretty;
  metrics::write_manifest(pretty, t.manifest, profiler.get(), nullptr, nullptr,
                          metrics::JsonWriter::Style::kPretty);
  out->manifest_pretty = pretty.str();
  std::ostringstream compact;
  metrics::write_manifest(compact, t.manifest, profiler.get(), nullptr, nullptr,
                          metrics::JsonWriter::Style::kCompact);
  out->manifest_compact = compact.str();
  return out;
}

}  // namespace

Scenario resolve_scenario(const ScenarioQuery& q) {
  Scenario s;
  s.query = q;
  s.config = system_by_name(q.system);
  const std::optional<Mechanism> mechanism = mechanism_named(q.mechanism);
  const std::optional<CollectiveOp> op = op_named(q.op);
  if (!mechanism || !op) throw std::invalid_argument("unknown op or mechanism");
  s.mechanism = *mechanism;
  s.op = *op;

  const int per_node = s.config.gpus_per_node;
  const int nodes = q.nodes > 0 ? q.nodes : std::max(1, (q.gpus + per_node - 1) / per_node);
  if (nodes * per_node < q.gpus) {
    throw std::invalid_argument(std::to_string(nodes) + " nodes cannot host " +
                                std::to_string(q.gpus) + " GPUs (" +
                                std::to_string(per_node) + " per node)");
  }
  s.cluster.nodes = nodes;
  s.cluster.placement = q.placement;
  s.cluster.enable_noise = q.noise;
  s.cluster.seed = q.seed;
  s.comm.env = q.tuned ? s.config.tuned_env() : s.config.default_env;
  s.comm.space = q.space;
  s.comm.service_level = q.service_level;
  if (q.service_level != 0) {
    s.comm.env.ccl_ib_sl = q.service_level;
    s.comm.env.ucx_ib_sl = q.service_level;
  }

  if (!q.faults.empty()) {
    std::string err;
    const auto loaded = resolve_faults(q.faults, err);
    if (!loaded.has_value()) throw std::invalid_argument("--faults: " + err);
    s.faults = *loaded;
  }

  s.sizes = cli::sweep_sizes(q.min_bytes, q.max_bytes);
  for (const Bytes b : s.sizes) {
    s.runs.push_back(run_config_for(b));
    if (q.iters > 0) s.runs.back().iterations = q.iters;
  }
  return s;
}

CoupledRun::CoupledRun(const Scenario& s, Cluster& cluster) : s_(s), cluster_(cluster) {
  if (!s.query.faults.empty()) {
    try {
      injector_ = std::make_unique<fault::FaultInjector>(cluster, s.faults);
    } catch (const std::exception& e) {
      throw std::invalid_argument(std::string("--faults: ") + e.what());
    }
  }
  comm_ = comm_for(s, cluster);
}

CoupledRun::~CoupledRun() = default;

SweepResult CoupledRun::sweep() {
  SweepResult r;
  r.stalled = stalls(s_, *comm_);
  r.samples.resize(s_.sizes.size());
  for (std::size_t i = 0; i < s_.sizes.size() && !r.stalled; ++i) {
    const Bytes b = s_.sizes[i];
    r.samples[i] = run_iterations(
        cluster_, s_.runs[i], [&] { return run_op(*comm_, s_.op, b); },
        [&] { return comm_->last_op_failed(); });
  }
  for (const Bytes b : s_.sizes) {
    r.plans.push_back(metrics::plan_info(b, comm_->plan(s_.op, b)));
  }
  return r;
}

void CoupledRun::profile(const SweepResult& measured, metrics::ScheduleProfiler& profiler) {
  if (measured.stalled) return;
  cluster_.set_telemetry(&profiler);
  for (const Bytes b : s_.sizes) run_op(*comm_, s_.op, b);
}

SweepResult sweep_cells(const Scenario& s, const TopologySnapshot& topo, int jobs) {
  SweepResult r;
  {
    Cluster planning(topo, s.cluster);
    const auto comm = comm_for(s, planning);
    r.stalled = stalls(s, *comm);
    for (const Bytes b : s.sizes) {
      r.plans.push_back(metrics::plan_info(b, comm->plan(s.op, b)));
    }
  }
  if (r.stalled) {
    r.samples.resize(s.sizes.size());
    return r;
  }
  r.samples = run_cell_sweep(
      s.sizes.size(), [&](std::size_t i) { return s.runs[i].iterations; }, jobs,
      [&](std::size_t i, int rep) -> CellResult {
        ClusterOptions copt = s.cluster;
        copt.seed = cell_seed(s.query.seed, i, static_cast<std::uint64_t>(rep));
        Cluster cluster(topo, copt);
        const auto comm = comm_for(s, cluster);
        if (NoiseField* noise = cluster.noise_field()) noise->resample();
        const SimTime t = run_op(*comm, s.op, s.sizes[i]);
        const MeasurementClock clock(cluster.config().timer_resolution);
        return {clock.measure(SimTime::zero(), t).micros(), comm->last_op_failed()};
      });
  return r;
}

Tabulated tabulate(const Scenario& s, const SweepResult& sweep) {
  const ScenarioQuery& q = s.query;
  Tabulated out;
  std::ostringstream hs;
  hs << "# " << q.system << ' ' << q.mechanism << ' ' << q.op << ", " << q.gpus << " GPUs ("
     << s.cluster.nodes << " nodes), " << (q.space == MemSpace::kHost ? "host" : "gpu")
     << " buffers, " << (q.tuned ? "tuned" : "default env")
     << (q.faults.empty() ? "" : ", faults injected") << "\n";
  out.header = hs.str();

  metrics::RunManifest& m = out.manifest;
  m.version = metrics::build_version();
  m.system = q.system;
  m.op = q.op;
  m.mechanism = q.mechanism;
  m.placement = cli::placement_name(q.placement);
  m.space = q.space == MemSpace::kHost ? "host" : "device";
  m.gpus = q.gpus;
  m.nodes = s.cluster.nodes;
  m.service_level = q.service_level;
  m.iters = q.iters;
  m.tuned = q.tuned;
  m.seed = q.seed;
  m.faults = q.faults;
  m.harness = q.cells ? "cells" : "coupled";
  m.plans = sweep.plans;

  Table t({"size", "iters", "fails", "median_us", "mean_us", "p95_us", "goodput_gbps"});
  for (std::size_t i = 0; i < s.sizes.size(); ++i) {
    const Bytes b = s.sizes[i];
    metrics::RunManifest::Result result;
    result.bytes = b;
    result.iterations = s.runs[i].iterations;
    if (sweep.stalled) {
      t.add_row({format_bytes(b), "-", "-", "stall", "stall", "stall", "-"});
      result.stalled = true;
      m.results.push_back(result);
      continue;
    }
    const Summary lat = sweep.samples[i].summary();
    const Summary gp = sweep.samples[i].goodput_summary(b);
    t.add_row({format_bytes(b), std::to_string(s.runs[i].iterations),
               std::to_string(lat.failed), fmt(lat.median), fmt(lat.mean), fmt(lat.p95),
               fmt(gp.median, 1)});
    result.latency_us = lat;
    result.goodput_gbps = gp;
    m.results.push_back(result);
  }
  std::ostringstream ts;
  t.print(ts);
  out.table = ts.str();
  return out;
}

std::shared_ptr<const ScenarioOutput> run_scenario(const ScenarioQuery& q,
                                                   ServerCaches* caches,
                                                   bool want_manifest, int jobs,
                                                   std::string& error) {
  // want_manifest is part of the response key: in coupled mode only the true
  // variant's manifest carries the profile section (the server only ever
  // runs the true variant).
  std::string key;
  if (caches != nullptr) {
    key = q.canonical_key() + "|manifest=" + (want_manifest ? "1" : "0");
    if (auto hit = caches->responses.find(key)) return hit;
  }
  std::shared_ptr<const ScenarioOutput> out;
  try {
    out = run_scenario_impl(q, caches, want_manifest, jobs);
  } catch (const std::exception& e) {
    error = e.what();
    return nullptr;
  }
  if (out != nullptr && caches != nullptr) {
    caches->responses.insert(key, out, out->cost_bytes());
  }
  return out;
}

}  // namespace gpucomm::serve
