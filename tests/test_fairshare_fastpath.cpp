// FairshareSolver (the Network hot path) must produce bit-identical rates
// and traces to maxmin_fair_rates (the documented reference) on any input —
// the regression-timing pins depend on it. These tests hold the two together
// on randomized problems and the edge cases (caps, empty routes,
// zero-capacity links), and exercise the Network-level fast paths: the O(1)
// flow_rate index and the epoch cache that skips re-solving when a
// reallocation's input is unchanged.
#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "gpucomm/net/fairshare.hpp"
#include "gpucomm/net/network.hpp"

namespace gpucomm {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<const Route*> route_ptrs(const FairshareProblem& p) {
  std::vector<const Route*> ptrs;
  ptrs.reserve(p.flows.size());
  for (const std::vector<LinkId>& r : p.flows) ptrs.push_back(&r);
  return ptrs;
}

/// Exact (==, not near) comparison of rates and traces: the solver contract
/// is the same floating-point operation sequence, not just the same values.
void expect_identical(const FairshareProblem& p, FairshareSolver& solver) {
  FairshareTrace want_trace;
  const std::vector<Bandwidth> want = maxmin_fair_rates(p, &want_trace);
  FairshareTrace got_trace;
  const std::vector<Bandwidth> got = solver.solve(p.capacity, route_ptrs(p), p.caps, &got_trace);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got_trace.bottleneck, want_trace.bottleneck);
  EXPECT_EQ(got_trace.saturated, want_trace.saturated);
}

TEST(FairshareFastpath, MatchesReferenceOnRandomizedProblems) {
  std::mt19937_64 rng(20260807);
  std::uniform_real_distribution<double> cap_dist(1e9, 400e9);
  std::uniform_int_distribution<int> pct(0, 99);
  FairshareSolver solver;  // shared across problems: scratch reuse must not leak
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t links = 1 + rng() % 64;
    const std::size_t flows = rng() % 96;
    FairshareProblem p;
    p.capacity.resize(links);
    for (Bandwidth& c : p.capacity) c = pct(rng) < 5 ? 0.0 : cap_dist(rng);
    p.flows.resize(flows);
    p.caps.assign(flows, kInf);
    std::uniform_int_distribution<std::size_t> link_dist(0, links - 1);
    for (std::size_t i = 0; i < flows; ++i) {
      if (pct(rng) < 5) continue;  // empty route
      const int len = 1 + static_cast<int>(rng() % 6);
      for (int k = 0; k < len; ++k) {
        const LinkId l = static_cast<LinkId>(link_dist(rng));
        auto& route = p.flows[i];
        if (std::find(route.begin(), route.end(), l) == route.end()) route.push_back(l);
      }
      if (pct(rng) < 25) p.caps[i] = cap_dist(rng) / 8;
    }
    if (pct(rng) < 30) p.caps.clear();  // caps are optional
    expect_identical(p, solver);
  }
}

TEST(FairshareFastpath, EdgeCasesMatchReference) {
  FairshareSolver solver;
  FairshareProblem p;

  // No flows at all.
  p.capacity = {gbps(100)};
  expect_identical(p, solver);

  // Only empty routes, capped and uncapped.
  p.flows = {{}, {}};
  p.caps = {gbps(40), kInf};
  expect_identical(p, solver);

  // Zero-capacity link pins its flows at rate 0.
  p.capacity = {0.0, gbps(100)};
  p.flows = {{0}, {0, 1}, {1}};
  p.caps.clear();
  expect_identical(p, solver);

  // Every flow capped below the fair share.
  p.capacity = {gbps(1000)};
  p.flows = {{0}, {0}, {0}};
  p.caps = {gbps(10), gbps(20), gbps(30)};
  expect_identical(p, solver);

  // Classic max-min example after all of the above reuses of the scratch.
  p.capacity = {gbps(100), gbps(300)};
  p.flows = {{0, 1}, {0}, {1}};
  p.caps.clear();
  expect_identical(p, solver);

  // Two links whose fair shares differ by less than the 1e-12 freeze
  // tolerance: the slightly wider one freezes its flows in the same round,
  // at the narrower one's share.
  p.capacity = {gbps(100), gbps(100) * (1 + 4e-13)};
  p.flows = {{0}, {1}, {0}, {1}};
  expect_identical(p, solver);

  // A flow freezes mid-round on link 1, and a later flow of the same round
  // still crosses link 1 as its last unfrozen flow. Link 1's share starts
  // within the tolerance of the round's level (link 0) and ends outside it
  // once the first flow's rate is subtracted, so the later flow must be
  // tested against link 1's share after that freeze: the share at the start
  // of the round would freeze it a round early. It freezes alone in the next
  // round, leaving link 1 with no unfrozen flow while link 2's flow is still
  // tested in that round.
  p.capacity = {gbps(100), 2 * gbps(100) * (1 + 9e-13), gbps(300)};
  p.flows = {{0}, {1}, {1}, {2}};
  expect_identical(p, solver);
}

// --- Network-level fast paths ----------------------------------------------

struct Fixture {
  Graph g;
  Engine engine;
  DeviceId a, b, c;
  LinkId ab, bc;
  std::unique_ptr<Network> net;

  Fixture() {
    a = g.add_device({DeviceKind::kGpu, 0, 0, "a"});
    b = g.add_device({DeviceKind::kGpu, 0, 1, "b"});
    c = g.add_device({DeviceKind::kGpu, 0, 2, "c"});
    ab = g.add_duplex_link(a, b, gbps(100), microseconds(1), LinkType::kNvLink);
    bc = g.add_duplex_link(b, c, gbps(100), microseconds(2), LinkType::kNvLink);
    net = std::make_unique<Network>(engine, g);
  }
};

TEST(FairshareFastpath, FlowRateIndexSurvivesCompletions) {
  Fixture f;
  const FlowId small = f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, nullptr);
  const FlowId large = f.net->start_flow({{f.ab}, 4_MiB, 0, 0}, nullptr);
  f.engine.after(microseconds(1), [&] {
    EXPECT_DOUBLE_EQ(f.net->flow_rate(small), gbps(50));
    EXPECT_DOUBLE_EQ(f.net->flow_rate(large), gbps(50));
    EXPECT_DOUBLE_EQ(f.net->flow_rate(FlowId{999}), 0.0);
  });
  // After the small flow completes and leaves active_, the survivor must be
  // re-rated and still found through the (reindexed) FlowId map.
  f.engine.after(microseconds(300), [&] {
    EXPECT_DOUBLE_EQ(f.net->flow_rate(small), 0.0);
    EXPECT_DOUBLE_EQ(f.net->flow_rate(large), gbps(100));
  });
  f.engine.run();
}

/// Minimal fault provider: one link with a switchable capacity factor.
struct OneLinkDegrade : fault::FaultModel {
  LinkId link = kInvalidLink;
  double factor = 1.0;
  bool link_up(LinkId) const override { return true; }
  double capacity_factor(LinkId l) const override { return l == link ? factor : 1.0; }
  double straggler_factor(int) const override { return 1.0; }
};

TEST(FairshareFastpath, UnrelatedLinkFlapIsBitInvisible) {
  // A reallocation whose solver input is unchanged (here: a capacity flap on
  // a link no active flow crosses) must hit the epoch cache and reproduce the
  // exact same completion time as a run without the flap.
  SimTime baseline, flapped;
  {
    Fixture f;
    f.net->start_flow({{f.ab}, 8_MiB, 0, 0}, [&](SimTime t) { baseline = t; });
    f.engine.run();
  }
  {
    Fixture f;
    OneLinkDegrade faults;
    faults.link = f.bc;  // the active flow only crosses ab
    f.net->set_faults(&faults);
    f.net->start_flow({{f.ab}, 8_MiB, 0, 0}, [&](SimTime t) { flapped = t; });
    f.engine.after(microseconds(100), [&] {
      faults.factor = 0.5;
      f.net->on_link_state_change();
    });
    f.engine.after(microseconds(200), [&] {
      faults.factor = 1.0;
      f.net->on_link_state_change();
    });
    f.engine.run();
  }
  EXPECT_EQ(flapped.ps, baseline.ps);
}

TEST(FairshareFastpath, UsedLinkDegradationStillReRates) {
  // The complement: degrading a link the flow does cross must change the
  // input key, miss the cache, and slow the flow down.
  SimTime baseline, degraded;
  {
    Fixture f;
    f.net->start_flow({{f.ab}, 8_MiB, 0, 0}, [&](SimTime t) { baseline = t; });
    f.engine.run();
  }
  {
    Fixture f;
    OneLinkDegrade faults;
    faults.link = f.ab;
    f.net->set_faults(&faults);
    f.net->start_flow({{f.ab}, 8_MiB, 0, 0}, [&](SimTime t) { degraded = t; });
    f.engine.after(microseconds(100), [&] {
      faults.factor = 0.5;
      f.net->on_link_state_change();
    });
    f.engine.run();
  }
  EXPECT_GT(degraded.ps, baseline.ps);
}

}  // namespace
}  // namespace gpucomm
