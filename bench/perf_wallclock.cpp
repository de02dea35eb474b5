// Wall-clock performance tracking (not a paper figure): the incremental
// network core's event replay, emitted through --json so CI can archive the
// trend (BENCH_perf.json).
//
// A flow-event replay over a regional fabric (up to 16,384 links and 2^20
// flows) runs through the Network's full-resolve reference mode (every
// component re-solved on every event) and the incremental/partitioned mode.
// Every completion timestamp must match bit-for-bit between the modes (a
// 1-ulp rate divergence shifts a picosecond deadline); the wall-clock ratio
// is the tracked speedup and must stay >= 2x on the largest row.
//
// Wall-clock numbers vary with the host; the speedup column is the quantity
// tracked across commits.
#include <chrono>
#include <cstdlib>

#include "bench_common.hpp"
#include "gpucomm/net/network.hpp"
#include "gpucomm/sim/random.hpp"

using namespace gpucomm;
using namespace gpucomm::bench;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

// A "regional" fabric: independent regions of 16 links each (two leaves of
// three GPUs and a shared spine), so most reallocation events are local to
// one region. This is the shape that favors the incremental solver; the
// full-resolve reference re-solves the whole active set on every event,
// which is exactly what every pre-PR-7 run paid.
struct ReplayScript {
  struct Entry {
    std::uint32_t region;
    std::uint8_t src, dst;  // GPU index within the region, 0..5
    Bytes bytes;
  };
  int regions = 0;
  int waves = 0;
  std::vector<Entry> entries;  // wave-major, one per (wave, region)
};

ReplayScript make_replay_script(int regions, int flows, std::uint64_t seed) {
  ReplayScript sc;
  sc.regions = regions;
  sc.waves = flows / regions;
  sc.entries.reserve(static_cast<std::size_t>(sc.waves) * regions);
  Rng rng(seed);
  for (int w = 0; w < sc.waves; ++w) {
    for (int r = 0; r < regions; ++r) {
      ReplayScript::Entry e;
      e.region = static_cast<std::uint32_t>(r);
      e.src = static_cast<std::uint8_t>(rng.uniform_int(6));
      e.dst = static_cast<std::uint8_t>(rng.uniform_int(6));
      if (e.dst == e.src) e.dst = (e.dst + 1) % 6;
      e.bytes = static_cast<Bytes>(128_KiB << rng.uniform_int(5));  // 128 KiB .. 2 MiB
      sc.entries.push_back(e);
    }
  }
  return sc;
}

/// Replay the script through one solver configuration; returns wall-clock ms
/// and appends every (flow index, completion ps) pair to `delivered`.
double run_replay(const ReplayScript& sc, SolverMode mode,
                  std::vector<std::pair<std::uint32_t, std::int64_t>>& delivered) {
  Graph g;
  struct Region {
    std::vector<LinkId> up;  // gpu -> leaf duplex, 6 per region
    LinkId trunk[2];         // leaf -> spine duplex
  };
  std::vector<Region> regions(sc.regions);
  for (Region& region : regions) {
    const DeviceId spine = g.add_device({DeviceKind::kSwitch, -1, 0, "spine"});
    DeviceId leaves[2];
    for (int l = 0; l < 2; ++l) {
      leaves[l] = g.add_device({DeviceKind::kSwitch, -1, l, "leaf"});
      region.trunk[l] =
          g.add_duplex_link(leaves[l], spine, gbps(200), microseconds(2), LinkType::kLeafSpine);
    }
    for (int k = 0; k < 6; ++k) {
      const DeviceId gpu = g.add_device({DeviceKind::kGpu, 0, k, "gpu"});
      region.up.push_back(
          g.add_duplex_link(gpu, leaves[k / 3], gbps(100), microseconds(1), LinkType::kNvLink));
    }
  }

  Engine engine;
  Network net(engine, g);
  net.set_solver_mode(mode);
  delivered.reserve(delivered.size() + sc.entries.size());

  // One engine event per wave; the network coalesces the wave's starts into
  // a single reallocation, completions then arrive one event each.
  for (int w = 0; w < sc.waves; ++w) {
    engine.at(microseconds(static_cast<double>(w) * 30.0), [&, w] {
      const std::size_t base = static_cast<std::size_t>(w) * sc.regions;
      for (int i = 0; i < sc.regions; ++i) {
        const ReplayScript::Entry& e = sc.entries[base + i];
        const Region& region = regions[e.region];
        Route route;
        route.push_back(region.up[e.src]);
        if (e.src / 3 != e.dst / 3) {
          route.push_back(region.trunk[e.src / 3]);
          route.push_back(region.trunk[e.dst / 3] + 1);
        }
        route.push_back(region.up[e.dst] + 1);
        const std::uint32_t index = static_cast<std::uint32_t>(base + i);
        net.start_flow({std::move(route), e.bytes, 0, 0}, [&delivered, index](SimTime t) {
          delivered.emplace_back(index, t.ps);
        });
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  engine.run();
  return ms_since(t0);
}

void replay_section(Table& t) {
  struct Scale {
    int regions, flows;
  };
  double gate_speedup = 0;
  for (const Scale s : {Scale{64, 1 << 16}, Scale{256, 1 << 18}, Scale{1024, 1 << 20}}) {
    const ReplayScript sc = make_replay_script(s.regions, s.flows, /*seed=*/0xcafe + s.flows);
    std::vector<std::pair<std::uint32_t, std::int64_t>> full, inc;

    const double full_ms = run_replay(sc, SolverMode::kFullResolve, full);
    const double inc_ms = run_replay(sc, SolverMode::kIncremental, inc);
    if (inc != full) {
      std::cerr << "error: incremental replay diverged from the full-resolve reference\n";
      std::exit(1);
    }

    const double speedup = full_ms / inc_ms;
    gate_speedup = speedup;
    t.add_row({std::to_string(16 * s.regions), std::to_string(s.flows), fmt(full_ms, 1),
               fmt(inc_ms, 1), fmt(speedup, 2)});
  }
  if (gate_speedup < 2.0) {
    std::cerr << "error: incremental speedup below the 2x floor on the largest replay\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  gpucomm::bench::init(argc, argv);
  header("perf", "wall-clock: incremental network core event replay");

  std::cout << "\n--- incremental: event replay, full re-solve vs incremental "
               "(identical completions) ---\n";
  Table replay({"links", "flows", "full_ms", "incremental_ms", "speedup"});
  replay_section(replay);
  show(replay, "perf_incremental");

  return 0;
}
