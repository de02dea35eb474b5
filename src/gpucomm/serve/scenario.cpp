#include "gpucomm/serve/scenario.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "gpucomm/cluster/placement.hpp"
#include "gpucomm/comm/ccl/ccl_comm.hpp"
#include "gpucomm/comm/devcopy.hpp"
#include "gpucomm/comm/mpi/mpi_comm.hpp"
#include "gpucomm/comm/staging.hpp"
#include "gpucomm/fault/fault_injector.hpp"
#include "gpucomm/harness/parallel.hpp"
#include "gpucomm/harness/runner.hpp"
#include "gpucomm/harness/table.hpp"
#include "gpucomm/metrics/profiler.hpp"
#include "gpucomm/metrics/run_manifest.hpp"
#include "gpucomm/metrics/version.hpp"
#include "gpucomm/runtime/clock.hpp"
#include "gpucomm/systems/registry.hpp"
#include "gpucomm/telemetry/sink.hpp"

namespace gpucomm::serve {

Mechanism mechanism_of(const std::string& name) {
  static const std::map<std::string, Mechanism> kMap{
      {"staging", Mechanism::kStaging},
      {"devcopy", Mechanism::kDeviceCopy},
      {"ccl", Mechanism::kCcl},
      {"mpi", Mechanism::kMpi}};
  const auto it = kMap.find(name);
  if (it == kMap.end()) throw std::invalid_argument("unknown mechanism: " + name);
  return it->second;
}

CollectiveOp op_of(const std::string& name) {
  static const std::map<std::string, CollectiveOp> kMap{
      {"pingpong", CollectiveOp::kPingPong},
      {"alltoall", CollectiveOp::kAlltoall},
      {"allreduce", CollectiveOp::kAllreduce},
      {"broadcast", CollectiveOp::kBroadcast},
      {"allgather", CollectiveOp::kAllgather},
      {"reducescatter", CollectiveOp::kReduceScatter}};
  const auto it = kMap.find(name);
  if (it == kMap.end()) throw std::invalid_argument("unknown op: " + name);
  return it->second;
}

std::unique_ptr<Communicator> make_comm(Mechanism m, Cluster& c, int gpus,
                                        const CommOptions& opt) {
  std::vector<int> ranks = first_n_gpus(c, gpus);
  switch (m) {
    case Mechanism::kStaging: return std::make_unique<StagingComm>(c, ranks, opt);
    case Mechanism::kDeviceCopy: return std::make_unique<DeviceCopyComm>(c, ranks, opt);
    case Mechanism::kCcl: return std::make_unique<CclComm>(c, ranks, opt);
    case Mechanism::kMpi: return std::make_unique<MpiComm>(c, ranks, opt);
  }
  return nullptr;
}

SimTime run_op(Communicator& comm, const std::string& op, Bytes b) {
  if (op == "pingpong") return SimTime{comm.time_pingpong(0, comm.size() - 1, b).ps / 2};
  if (op == "alltoall") return comm.time_alltoall(b);
  if (op == "allreduce") return comm.time_allreduce(b);
  if (op == "broadcast") return comm.time_broadcast(0, b);
  if (op == "allgather") return comm.time_allgather(b);
  if (op == "reducescatter") return comm.time_reduce_scatter(b);
  throw std::invalid_argument("unknown op: " + op);
}

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

int resolved_nodes(const SystemConfig& cfg, int gpus, int nodes_override) {
  const int derived = std::max(1, (gpus + cfg.gpus_per_node - 1) / cfg.gpus_per_node);
  const int nodes = nodes_override > 0 ? nodes_override : derived;
  if (nodes * cfg.gpus_per_node < gpus) {
    throw std::invalid_argument(std::to_string(nodes) + " nodes cannot host " +
                                std::to_string(gpus) + " GPUs (" +
                                std::to_string(cfg.gpus_per_node) + " per node)");
  }
  return nodes;
}

namespace {

/// Topology for (system, nodes, placement), through the cache when present.
std::shared_ptr<const TopologySnapshot> topology_for(const SystemConfig& cfg, int nodes,
                                                     Placement placement,
                                                     ServerCaches* caches) {
  if (caches == nullptr) return build_topology_snapshot(cfg, nodes, placement);
  const std::string key = cfg.name + "|nodes=" + std::to_string(nodes) +
                          "|placement=" + cli::placement_name(placement);
  if (auto hit = caches->topologies.find(key)) return hit;
  auto snap = build_topology_snapshot(cfg, nodes, placement);
  caches->topologies.insert(key, snap, snap->memory_bytes());
  return snap;
}

/// One size of a cells-mode sweep: `reps` independent simulations seeded
/// from (seed, size index, rep), merged in rep order — exactly the CLI's
/// run_cell_sweep cell body, so the merged Samples are bit-identical to a
/// standalone --jobs run.
Samples run_cell_size(const ScenarioQuery& q, const TopologySnapshot& topo,
                      const ClusterOptions& copt, const CommOptions& opt,
                      std::size_t size_idx, Bytes bytes, int reps) {
  const Mechanism mech = mechanism_of(q.mechanism);
  std::vector<Samples> merged = run_cell_sweep(
      1, [&](std::size_t) { return reps; }, 1,
      [&](std::size_t, int rep) -> CellResult {
        ClusterOptions cell_copt = copt;
        cell_copt.seed = cell_seed(q.seed, size_idx, static_cast<std::uint64_t>(rep));
        Cluster cell_cluster(topo, cell_copt);
        auto cell_comm = make_comm(mech, cell_cluster, q.gpus, opt);
        if (NoiseField* noise = cell_cluster.noise_field()) noise->resample();
        const SimTime t = run_op(*cell_comm, q.op, bytes);
        const MeasurementClock clock(cell_cluster.config().timer_resolution);
        return {clock.measure(SimTime::zero(), t).micros(), cell_comm->last_op_failed()};
      });
  return merged[0];
}

std::shared_ptr<const ScenarioOutput> run_scenario_impl(const ScenarioQuery& q,
                                                        ServerCaches* caches,
                                                        bool want_manifest,
                                                        std::string& error) {
  const SystemConfig cfg = system_by_name(q.system);
  const int nodes = resolved_nodes(cfg, q.gpus, q.nodes);

  fault::FaultSchedule schedule;
  if (!q.faults.empty()) {
    std::string err;
    const auto loaded = resolve_faults(q.faults, err);
    if (!loaded.has_value()) {
      error = "--faults: " + err;
      return nullptr;
    }
    schedule = *loaded;
  }

  ClusterOptions copt;
  copt.nodes = nodes;
  copt.placement = q.placement;
  copt.enable_noise = q.noise;
  copt.net_shards = q.net_shards;
  copt.seed = q.seed;
  CommOptions opt;
  opt.env = q.tuned ? cfg.tuned_env() : cfg.default_env;
  opt.space = q.space;
  opt.service_level = q.service_level;
  if (q.service_level != 0) {
    opt.env.ccl_ib_sl = q.service_level;
    opt.env.ucx_ib_sl = q.service_level;
  }

  const std::shared_ptr<const TopologySnapshot> topo =
      topology_for(cfg, nodes, q.placement, caches);

  auto out = std::make_shared<ScenarioOutput>();
  metrics::RunManifest manifest;
  manifest.version = metrics::build_version();
  manifest.system = q.system;
  manifest.op = q.op;
  manifest.mechanism = q.mechanism;
  manifest.placement = cli::placement_name(q.placement);
  manifest.space = q.space == MemSpace::kHost ? "host" : "device";
  manifest.gpus = q.gpus;
  manifest.nodes = nodes;
  manifest.service_level = q.service_level;
  manifest.iters = q.iters;
  manifest.tuned = q.tuned;
  manifest.seed = q.seed;
  manifest.faults = q.faults;
  manifest.harness = q.cells ? "cells" : "coupled";

  {
    std::ostringstream hs;
    hs << "# " << q.system << ' ' << q.mechanism << ' ' << q.op << ", " << q.gpus
       << " GPUs (" << nodes << " nodes), "
       << (q.space == MemSpace::kHost ? "host" : "gpu") << " buffers, "
       << (q.tuned ? "tuned" : "default env")
       << (q.faults.empty() ? "" : ", faults injected") << "\n";
    out->header = hs.str();
  }

  const std::vector<Bytes> sizes = cli::sweep_sizes(q.min_bytes, q.max_bytes);
  std::vector<RunConfig> rcs;
  for (const Bytes b : sizes) {
    rcs.push_back(run_config_for(b));
    if (q.iters > 0) rcs.back().iterations = q.iters;
  }
  const CollectiveOp op = op_of(q.op);
  const metrics::ScheduleProfiler* manifest_profiler = nullptr;
  std::unique_ptr<metrics::ScheduleProfiler> profiler;
  std::vector<Samples> samples(sizes.size());
  // available() is a pure function of the mechanism's configuration, so an
  // alltoall it cannot run stalls every size of the sweep.
  bool stalled = false;

  if (q.cells) {
    // Plans and availability come from a pristine planning cluster; the
    // cells never touch it.
    Cluster planning(*topo, copt);
    auto comm = make_comm(mechanism_of(q.mechanism), planning, q.gpus, opt);
    stalled = q.op == "alltoall" && !comm->available(CollectiveOp::kAlltoall);
    for (const Bytes b : sizes) {
      manifest.plans.push_back(metrics::plan_info(b, comm->plan(op, b)));
    }
    for (std::size_t s = 0; s < sizes.size() && !stalled; ++s) {
      samples[s] = run_cell_size(q, *topo, copt, opt, s, sizes[s], rcs[s].iterations);
    }
  } else {
    // Coupled run: one cluster, one noise stream across the sweep —
    // constructed and driven in the exact CLI order (telemetry before the
    // injector before the communicator; plan() per size after the runs) so
    // anything consuming cluster RNG consumes it identically.
    Cluster cluster(*topo, copt);
    telemetry::MultiSink sinks;
    if (want_manifest) {
      profiler = std::make_unique<metrics::ScheduleProfiler>();
      profiler->set_enabled(false);
      sinks.add(profiler.get());
      cluster.set_telemetry(&sinks);
    }
    std::unique_ptr<fault::FaultInjector> injector;
    if (!q.faults.empty()) {
      try {
        injector = std::make_unique<fault::FaultInjector>(cluster, schedule);
      } catch (const std::exception& e) {
        error = std::string("--faults: ") + e.what();
        return nullptr;
      }
    }
    auto comm = make_comm(mechanism_of(q.mechanism), cluster, q.gpus, opt);
    stalled = q.op == "alltoall" && !comm->available(CollectiveOp::kAlltoall);
    for (std::size_t s = 0; s < sizes.size() && !stalled; ++s) {
      const Bytes b = sizes[s];
      samples[s] = run_iterations(
          cluster, rcs[s], [&] { return run_op(*comm, q.op, b); },
          [&] { return comm->last_op_failed(); });
      if (profiler) {
        profiler->set_enabled(true);
        run_op(*comm, q.op, b);
        profiler->set_enabled(false);
      }
    }
    for (const Bytes b : sizes) {
      manifest.plans.push_back(metrics::plan_info(b, comm->plan(op, b)));
    }
    manifest_profiler = profiler.get();
  }

  Table t({"size", "iters", "fails", "median_us", "mean_us", "p95_us", "goodput_gbps"});
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const Bytes b = sizes[s];
    metrics::RunManifest::Result result;
    result.bytes = b;
    result.iterations = rcs[s].iterations;
    if (stalled) {
      t.add_row({format_bytes(b), "-", "-", "stall", "stall", "stall", "-"});
      result.stalled = true;
      manifest.results.push_back(result);
      continue;
    }
    const Summary lat = samples[s].summary();
    const Summary gp = samples[s].goodput_summary(b);
    t.add_row({format_bytes(b), std::to_string(rcs[s].iterations),
               std::to_string(lat.failed), fmt(lat.median), fmt(lat.mean), fmt(lat.p95),
               fmt(gp.median, 1)});
    result.latency_us = lat;
    result.goodput_gbps = gp;
    manifest.results.push_back(result);
  }
  {
    std::ostringstream ts;
    t.print(ts);
    out->table = ts.str();
  }
  {
    std::ostringstream pretty;
    metrics::write_manifest(pretty, manifest, manifest_profiler, nullptr, nullptr,
                            metrics::JsonWriter::Style::kPretty);
    out->manifest_pretty = pretty.str();
    std::ostringstream compact;
    metrics::write_manifest(compact, manifest, manifest_profiler, nullptr, nullptr,
                            metrics::JsonWriter::Style::kCompact);
    out->manifest_compact = compact.str();
  }
  return out;
}

}  // namespace

std::shared_ptr<const ScenarioOutput> run_scenario(const ScenarioQuery& q,
                                                   ServerCaches* caches,
                                                   bool want_manifest,
                                                   std::string& error) {
  // want_manifest is part of the response key: in coupled mode the profiled
  // extra iteration advances the cluster between sizes, so the two variants
  // are distinct experiments (the server only ever runs the true variant).
  std::string key;
  if (caches != nullptr) {
    key = q.canonical_key() + "|manifest=" + (want_manifest ? "1" : "0");
    if (auto hit = caches->responses.find(key)) return hit;
  }
  std::shared_ptr<const ScenarioOutput> out;
  try {
    out = run_scenario_impl(q, caches, want_manifest, error);
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
