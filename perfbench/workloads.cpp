// The three benchmark workloads. Each one repeats a paper bench's own calls
// (bench/fig03_intranode_pingpong, bench/fig09_alltoall_scalability,
// bench/fig10_allreduce_scalability) in the same order, through Cluster, the communicators' time_* helpers,
// run_iterations and the scale model, and formats every result row the way
// that bench does so it can be compared with the checked-in data/ CSV. No
// file is written.
#include <string>
#include <vector>

#include "bench.hpp"
#include "bench_common.hpp"
#include "gpucomm/scale/scale_model.hpp"

namespace perfbench {

using namespace gpucomm;

namespace {

std::uint64_t hash_of(SimTime t) { return fnv1a(&t.ps, sizeof t.ps); }

std::uint64_t hash_of(const Samples& s) {
  std::uint64_t h = fnv1a(s.us.data(), s.us.size() * sizeof(double));
  return fnv1a(s.aborted_us.data(), s.aborted_us.size() * sizeof(double), h);
}

std::uint64_t hash_of(const ScaleResult& r) {
  const std::uint64_t h = fnv1a(&r.goodput_gbps, sizeof r.goodput_gbps);
  return fnv1a(&r.stalled, sizeof r.stalled, h);
}

/// The paper's per-system measurement caps (fig09/fig10, Sec. V-C).
int system_cap(const SystemConfig& cfg, Library lib) {
  if (cfg.name == "leonardo") return 1024;
  if (cfg.name == "alps") return lib == Library::kMpi ? 2048 : 4096;
  return 4096;
}

/// *CCL alltoall hangs at the paper's reported rank counts (fig09 "stall").
bool stalls(const SystemConfig& cfg, Library lib, int gpus) {
  return lib == Library::kCcl && cfg.ccl.alltoall_stall_ranks > 0 &&
         gpus >= cfg.ccl.alltoall_stall_ranks;
}

Mechanism mechanism_of(Library lib) {
  return lib == Library::kCcl ? Mechanism::kCcl : Mechanism::kMpi;
}

/// One exact flow simulation of a scalability cell (fig09/fig10): a fresh
/// cluster with the job scattered over switches, one collective.
SimTime exact_cell(Context& ctx, const SystemConfig& cfg, Library lib, int gpus,
                   CollectiveOp kind, Bytes buffer) {
  ClusterOptions copt;
  copt.nodes = gpus / cfg.gpus_per_node;
  copt.placement = Placement::kScatterSwitches;
  BenchCluster cluster(ctx, cfg, copt);
  CommOptions opt;
  opt.env = cfg.tuned_env();
  auto comm = ctx.make_comm(mechanism_of(lib), *cluster, first_n_gpus(*cluster, gpus), opt);
  const SimTime t = ctx.op([&] {
    return kind == CollectiveOp::kAlltoall ? comm->time_alltoall(buffer)
                                           : comm->time_allreduce(buffer);
  });
  ctx.plan(*comm, kind, buffer);
  return t;
}

/// Exact-sim cells then model rows of one scalability figure, in the
/// bench's order. `exact_limit` is the largest exact-sim GPU count.
void scalability(Context& ctx, const char* figure, CollKind kind, Bytes buffer,
                 int exact_limit) {
  const CollectiveOp op =
      kind == CollKind::kAlltoall ? CollectiveOp::kAlltoall : CollectiveOp::kAllreduce;
  const std::vector<SystemConfig> systems = all_systems();
  for (const SystemConfig& cfg : systems) {
    ctx.probe_shapes.push_back(
        {cfg.name, exact_limit / cfg.gpus_per_node, Placement::kScatterSwitches});
  }
  for (const SystemConfig& cfg : systems) {
    const std::string csv = std::string(figure) + "_" + cfg.name + ".csv";
    for (int gpus = cfg.gpus_per_node; gpus <= exact_limit; gpus *= 2) {
      for (const Library lib : {Library::kCcl, Library::kMpi}) {
        if (gpus > system_cap(cfg, lib) ||
            (kind == CollKind::kAlltoall && stalls(cfg, lib, gpus))) {
          continue;
        }
        if (ctx.done()) return;
        const SimTime t = exact_cell(ctx, cfg, lib, gpus, op, buffer);
        ctx.add({csv,
                 {std::to_string(gpus), to_string(lib), fmt(goodput_gbps(buffer, t), 2),
                  "exact-sim"},
                 hash_of(t)});
      }
    }
  }
  for (const SystemConfig& cfg : systems) {
    const std::string csv = std::string(figure) + "_" + cfg.name + ".csv";
    for (int gpus = exact_limit * 2; gpus <= 4096; gpus *= 2) {
      for (const Library lib : {Library::kCcl, Library::kMpi}) {
        if (gpus > system_cap(cfg, lib) ||
            (kind == CollKind::kAlltoall && stalls(cfg, lib, gpus))) {
          continue;
        }
        if (ctx.done()) return;
        ScaleResult r;
        {
          ScopedSpan s(ctx.tracer(), "scale.point");
          r = kind == CollKind::kAlltoall ? alltoall_at_scale(cfg, lib, buffer, gpus)
                                          : allreduce_at_scale(cfg, lib, buffer, gpus);
        }
        ctx.add({csv, {std::to_string(gpus), to_string(lib), fmt(r.goodput_gbps, 2), "model"},
                 hash_of(r), /*seeded=*/false});
      }
    }
  }
}

// --- intranode_pingpong: fig03 ----------------------------------------------

void intranode_pingpong(Context& ctx) {
  for (const SystemConfig& cfg : all_systems()) {
    ctx.probe_shapes.push_back({cfg.name, 1, Placement::kPacked});
  }
  for (const SystemConfig& cfg : all_systems()) {
    BenchCluster cluster(ctx, cfg, {.nodes = 1});
    CommOptions opt;
    opt.env = cfg.tuned_env();
    std::vector<Mechanism> mechanisms{Mechanism::kStaging, Mechanism::kCcl, Mechanism::kMpi};
    if (cfg.gpu.peer_access) mechanisms.insert(mechanisms.begin() + 1, Mechanism::kDeviceCopy);
    for (const Bytes b : bench::size_sweep()) {
      for (const Mechanism m : mechanisms) {
        if (ctx.done()) return;
        auto comm = ctx.make_comm(m, *cluster, {0, 1}, opt);
        Samples s;
        {
          ScopedSpan run(ctx.tracer(), "harness.run");
          s = run_iterations(*cluster, run_config_for(b), [&] {
            ++ctx.iterations;
            return SimTime{ctx.op([&] { return comm->time_pingpong(0, 1, b); }).ps / 2};
          });
        }
        ctx.plan(*comm, CollectiveOp::kPingPong, b);
        ctx.add({"fig03_" + cfg.name + ".csv",
                 {format_bytes(b), to_string(m), fmt(s.summary().median),
                  fmt(s.goodput_summary(b).median, 1)},
                 hash_of(s)});
      }
    }
  }
}

// --- alltoall_exact: fig09 ------------------------------------------------------

void alltoall_exact(Context& ctx) { scalability(ctx, "fig09", CollKind::kAlltoall, 2_MiB, 64); }

// --- allreduce_exact: fig10 plus the LUMI MPI 64/128-GPU exact points ---------

void allreduce_exact(Context& ctx) {
  scalability(ctx, "fig10", CollKind::kAllreduce, 1_GiB, 32);
  const SystemConfig lumi = system_by_name("lumi");
  for (const int gpus : {64, 128}) {
    if (ctx.done()) return;
    const SimTime t = exact_cell(ctx, lumi, Library::kMpi, gpus, CollectiveOp::kAllreduce, 1_GiB);
    ctx.add({"", {std::to_string(gpus), "mpi", fmt(goodput_gbps(1_GiB, t), 2), "exact-sim"},
             hash_of(t)});
  }
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> kAll = {
      {"intranode_pingpong", intranode_pingpong},
      {"alltoall_exact", alltoall_exact},
      {"allreduce_exact", allreduce_exact},
  };
  return kAll;
}

}  // namespace perfbench
