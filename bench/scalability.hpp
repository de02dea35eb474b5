// The scalability sweep Fig. 9 and Fig. 10 share (Sec. V-C/V-D): one
// collective at one buffer size on every system, from one node up to 4,096
// GPUs within each system's job caps, as per-GPU goodput.
//
// Up to the figure's switch point the exact flow simulation runs, one
// independent cell per (system, scale, library) on the --jobs worker pool
// (serial when absent). Cells are consumed in canonical order, so the
// tables are byte-identical for any worker count (docs/PERFORMANCE.md).
// Beyond the switch point the analytic scale model takes over; the source
// column says which produced a row. NCCL/RCCL alltoall stalls at the
// paper's reported rank counts, and those rows read "stall".
//
// `--exact-point <gpus>` instead runs a single LUMI GPU-aware-MPI point
// through the exact flow simulation at any scale and prints its wall time
// on its own line, outside the CSV: the CI scale-smoke entry (4,096 GPUs
// under a wall-clock budget). `repro_fig09_exact_point` pins the 64-GPU row.
#pragma once

#include <chrono>
#include <string>

#include "bench_common.hpp"
#include "gpucomm/harness/parallel.hpp"
#include "gpucomm/scale/scale_model.hpp"

namespace gpucomm::bench {

/// What distinguishes one scalability figure from the other.
struct ScalabilityFigure {
  std::string figure;       // header label, e.g. "Fig. 9"
  std::string description;  // header description
  std::string stem;         // CSV stem: <stem>_<system>.csv, <stem>_exact_point.csv
  /// The collective. It picks the exact-sim call and the scale model; an
  /// alltoall also gets the stall rows and the expected-goodput banner.
  CollKind op;
  Bytes buffer;
  /// The largest exact-sim scale; the scale model produces every larger row.
  int exact_limit_gpus;
};

namespace detail {

/// The paper's per-system measurement caps (job-size limits, Sec. V-C).
inline int system_cap(const SystemConfig& cfg, Library lib) {
  if (cfg.name == "leonardo") return 1024;
  if (cfg.name == "alps") return lib == Library::kMpi ? 2048 : 4096;
  return 4096;
}

/// NCCL/RCCL alltoall hangs at the paper's reported rank counts; those rows
/// are reported as "stall" without simulating.
inline bool stalls(const ScalabilityFigure& fig, const SystemConfig& cfg, Library lib,
                   int gpus) {
  return fig.op == CollKind::kAlltoall && lib == Library::kCcl &&
         cfg.ccl.alltoall_stall_ranks > 0 && gpus >= cfg.ccl.alltoall_stall_ranks;
}

inline double exact_goodput(const ScalabilityFigure& fig, const SystemConfig& cfg,
                            Library lib, int gpus) {
  ClusterOptions copt;
  copt.nodes = gpus / cfg.gpus_per_node;
  // Production-like allocation: jobs spread over many switches (Sec. III-A).
  copt.placement = Placement::kScatterSwitches;
  Cluster cluster(cfg, copt);
  CommOptions opt;
  opt.env = cfg.tuned_env();
  auto comm = make_comm(lib == Library::kCcl ? Mechanism::kCcl : Mechanism::kMpi, cluster,
                        first_n_gpus(cluster, gpus), opt);
  const SimTime t = fig.op == CollKind::kAlltoall ? comm->time_alltoall(fig.buffer)
                                                  : comm->time_allreduce(fig.buffer);
  return goodput_gbps(fig.buffer, t);
}

/// One LUMI GPU-aware-MPI point (the only library x system pair the paper
/// measured at 4,096 GPUs without a stall), timed so the CI scale-smoke job
/// can enforce a wall-clock budget.
inline int run_exact_point(const ScalabilityFigure& fig, int gpus) {
  const SystemConfig cfg = system_by_name("lumi");
  if (gpus % cfg.gpus_per_node != 0) {
    std::cerr << fig.stem << ": --exact-point must be a multiple of " << cfg.gpus_per_node
              << " (LUMI GPUs per node)\n";
    return 2;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const double goodput = exact_goodput(fig, cfg, Library::kMpi, gpus);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  Table t({"gpus", "library", "goodput_gbps", "source"});
  t.add_row({std::to_string(gpus), to_string(Library::kMpi), fmt(goodput, 2), "exact-sim"});
  emit(t, fig.stem + "_exact_point.csv");
  std::cout << "exact-point wall time: " << fmt(wall_s, 2) << " s\n";
  return 0;
}

}  // namespace detail

/// The whole bench: parse the shared flags, then write one table per system
/// (or the single --exact-point row). Returns the exit status.
inline int run_scalability(int argc, char** argv, const ScalabilityFigure& fig) {
  init(argc, argv, Sweep::kScalability);
  header(fig.figure, fig.description);
  if (exact_point() > 0) return detail::run_exact_point(fig, exact_point());

  // Every row of every system's table, in print order. Stall and model rows
  // are filled here; exact-sim rows are the cells, filled by the pool.
  struct Row {
    const SystemConfig* cfg;
    int gpus;
    Library lib;
    std::string goodput, source;
  };
  const std::vector<SystemConfig> systems = all_systems();
  std::vector<Row> rows;
  std::vector<std::size_t> cells;  // indices of the exact-sim rows
  for (const SystemConfig& cfg : systems) {
    for (int gpus = cfg.gpus_per_node; gpus <= 4096; gpus *= 2) {
      for (const Library lib : {Library::kCcl, Library::kMpi}) {
        if (gpus > detail::system_cap(cfg, lib)) continue;
        if (detail::stalls(fig, cfg, lib, gpus)) {
          rows.push_back({&cfg, gpus, lib, "stall", "benchmark hang"});
        } else if (gpus <= fig.exact_limit_gpus) {
          cells.push_back(rows.size());
          rows.push_back({&cfg, gpus, lib, "", "exact-sim"});
        } else {
          const ScaleResult r = fig.op == CollKind::kAlltoall
                                    ? alltoall_at_scale(cfg, lib, fig.buffer, gpus)
                                    : allreduce_at_scale(cfg, lib, fig.buffer, gpus);
          rows.push_back({&cfg, gpus, lib, fmt(r.goodput_gbps, 2), "model"});
        }
      }
    }
  }
  run_cells(jobs(), cells.size(), [&](std::size_t i) {
    Row& row = rows[cells[i]];
    row.goodput = fmt(detail::exact_goodput(fig, *row.cfg, row.lib, row.gpus), 2);
  });

  auto row = rows.begin();
  for (const SystemConfig& cfg : systems) {
    std::cout << "\n--- " << cfg.name;
    if (fig.op == CollKind::kAlltoall) {
      std::cout << " (asymptotic expected " << fmt(cfg.nic_bw_per_gpu / 1e9, 0)
                << " Gb/s per GPU)";
    }
    std::cout << " ---\n";
    Table t({"gpus", "library", "goodput_gbps", "source"});
    for (; row != rows.end() && row->cfg == &cfg; ++row) {
      t.add_row({std::to_string(row->gpus), to_string(row->lib), row->goodput, row->source});
    }
    emit(t, fig.stem + "_" + cfg.name + ".csv");
  }
  return 0;
}

}  // namespace gpucomm::bench
