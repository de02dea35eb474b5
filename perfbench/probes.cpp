// Layer probes of the traced run: each times one layer's public function on
// the workload's own inputs, on probe instances separate from the measured
// clusters, so a probe that consumes a cluster RNG (inter_node_route,
// NoiseField::resample) can never perturb a measured result.
#include <cstring>

#include "bench.hpp"
#include "gpucomm/net/fairshare.hpp"
#include "gpucomm/systems/registry.hpp"
#include "gpucomm/topology/forwarding.hpp"
#include "gpucomm/topology/intra_node.hpp"

namespace perfbench {

using namespace gpucomm;

namespace {

constexpr double kMinProbeS = 0.02;

/// Host cost of one probed function: the mean, over the workload's probe
/// shapes, of its per-call time on each shape, so one system's cheap calls
/// do not drown another's costly ones.
struct PerCall {
  double sum_us = 0;
  int shapes = 0;

  /// Repeat `batch` (which returns the calls it made) for at least
  /// kMinProbeS on one shape.
  template <class Batch>
  void measure(Batch&& batch) {
    const auto t0 = Clock::now();
    std::uint64_t calls = 0;
    double elapsed = 0;
    do {
      calls += batch();
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (elapsed < kMinProbeS);
    sum_us += elapsed * 1e6 / static_cast<double>(calls);
    ++shapes;
  }
  double us() const { return shapes == 0 ? 0.0 : sum_us / shapes; }
};

}  // namespace

bool run_probes(Context& ctx, std::map<std::string, double>& layers) {
  PerCall intra, inter, allreduce_peak, alltoall_peak, resample;
  for (const ProbeShape& shape : ctx.probe_shapes) {
    const SystemConfig cfg = system_by_name(shape.system);
    ClusterOptions opt;
    opt.nodes = shape.nodes;
    opt.placement = shape.placement;
    opt.seed = ctx.seed();
    {
      Cluster probe(cfg, opt);
      const int per_node = probe.gpus_per_node();
      intra.measure([&] {
        std::uint64_t calls = 0;
        for (int n = 0; n < probe.num_nodes(); ++n) {
          for (int a = 0; a < per_node; ++a) {
            for (int b = 0; b < per_node; ++b) {
              if (a == b) continue;
              probe.intra_node_route(n * per_node + a, n * per_node + b);
              ++calls;
            }
          }
        }
        return calls;
      });
      if (probe.num_nodes() > 1) {
        // Every GPU to the GPU of the same local index on every other node.
        inter.measure([&] {
          std::uint64_t calls = 0;
          for (int a = 0; a < probe.total_gpus(); ++a) {
            for (int b = probe.local_index(a); b < probe.total_gpus(); b += per_node) {
              if (probe.same_node(a, b)) continue;
              probe.inter_node_route(probe.gpu_device(a), a, probe.gpu_device(b), b);
              ++calls;
            }
          }
          return calls;
        });
      }
      const std::vector<DeviceId>& node_gpus = probe.node(0).gpus;
      allreduce_peak.measure([&] {
        expected_allreduce_goodput(probe.graph(), node_gpus, gpu_fabric_options());
        return 1;
      });
      alltoall_peak.measure([&] {
        expected_alltoall_goodput(probe.graph(), node_gpus, gpu_fabric_options());
        return 1;
      });
    }
    if (cfg.noise.production_noise) {
      Cluster noisy(cfg, opt);
      resample.measure([&] {
        noisy.noise_field()->resample();
        return 1;
      });
    }
  }
  layers["cluster.intra_route_us"] = intra.us();
  layers["cluster.inter_route_us"] = inter.us();
  layers["topology.allreduce_peak_us"] = allreduce_peak.us();
  layers["topology.alltoall_peak_us"] = alltoall_peak.us();
  layers["noise.resample_us"] = resample.us();

  // Fill: the largest concurrent flow set the sink saw, re-solved by the hot
  // path's FairshareSolver and held bit-equal to the reference allocator.
  const std::vector<Route>& routes = ctx.sink().largest_routes();
  layers["net.fill_flows"] = static_cast<double>(routes.size());
  layers["net.fill_ms"] = 0;
  if (routes.empty()) return true;
  FairshareProblem problem{ctx.sink().largest_capacity(), routes, {}};
  const std::vector<Bandwidth> reference = maxmin_fair_rates(problem);
  std::vector<const Route*> flows;
  for (const Route& r : routes) flows.push_back(&r);
  const std::vector<Bandwidth> no_caps;
  FairshareSolver solver;
  bool equal = true;
  PerCall fill;
  fill.measure([&] {
    const std::vector<Bandwidth>& rates = solver.solve(problem.capacity, flows, no_caps);
    equal = equal && rates.size() == reference.size() &&
            std::memcmp(rates.data(), reference.data(), rates.size() * sizeof(Bandwidth)) == 0;
    return 1;
  });
  layers["net.fill_ms"] = fill.us() / 1e3;
  return equal;
}

}  // namespace perfbench
