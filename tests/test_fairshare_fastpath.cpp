// FairshareSolver (the Network hot path) must produce bit-identical rates
// and traces to maxmin_fair_rates (the documented reference) on any input —
// the regression-timing pins depend on it. These tests hold the two together
// on randomized problems, on tie-heavy ones whose link shares differ by less
// than the freeze tolerance, and on the edge cases (caps, empty routes,
// zero-capacity links, a link made tight mid-round by rounding alone), and
// exercise the Network-level paths: the flow_rate lookup by FlowId and the
// epoch cache that skips re-solving when a reallocation's input is unchanged.
#include <gtest/gtest.h>

#include <algorithm>
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

/// 200 seeded problems: up to 64 links (5% of them at zero capacity) and 96
/// flows of 1-6 distinct links (5% empty), a quarter of them capped, and
/// no caps at all in 30% of the problems.
std::vector<FairshareProblem> randomized_problems() {
  std::mt19937_64 rng(20260807);
  std::uniform_real_distribution<double> cap_dist(1e9, 400e9);
  std::uniform_int_distribution<int> pct(0, 99);
  std::vector<FairshareProblem> problems;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t links = 1 + rng() % 64;
    const std::size_t flows = rng() % 96;
    FairshareProblem& p = problems.emplace_back();
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
  }
  return problems;
}

/// 200 seeded problems built for ties: 2-25 links whose capacities are 50,
/// 100, 200 or 400 Gb/s times (1 + k * 3e-13) for k in -3..3, so shares meet
/// within the 1e-12 freeze tolerance, and up to 120 flows of 1-5 distinct
/// links, one in eight capped at such a capacity divided by 1-8. Many flows
/// freeze in one round on several links at once, so the order in which a
/// round visits its flows decides which link each subtraction lands on first.
std::vector<FairshareProblem> tie_heavy_problems() {
  std::mt19937_64 rng(20261021);
  const auto tie_value = [&] {
    constexpr double kBase[] = {50, 100, 200, 400};
    const int k = static_cast<int>(rng() % 7) - 3;
    return gbps(kBase[rng() % 4]) * (1 + k * 3e-13);
  };
  std::vector<FairshareProblem> problems;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t links = 2 + rng() % 24;
    const std::size_t flows = rng() % 121;
    FairshareProblem& p = problems.emplace_back();
    p.capacity.resize(links);
    for (Bandwidth& c : p.capacity) c = tie_value();
    p.flows.resize(flows);
    p.caps.assign(flows, kInf);
    for (std::size_t i = 0; i < flows; ++i) {
      const int len = 1 + static_cast<int>(rng() % 5);
      for (int k = 0; k < len; ++k) {
        const auto l = static_cast<LinkId>(rng() % links);
        auto& route = p.flows[i];
        if (std::find(route.begin(), route.end(), l) == route.end()) route.push_back(l);
      }
      if (rng() % 8 == 0) p.caps[i] = tie_value() / static_cast<double>(1 + rng() % 8);
    }
  }
  return problems;
}

/// `p` translated to a SlotProblem by hand, the way Network leaves a kept
/// one: slots numbered by a random permutation, plus up to 8 slots no flow
/// crosses (on link ids past the problem's, with any capacity, zero
/// included).
SlotProblem shuffled_slot_problem(const FairshareProblem& p, std::mt19937_64& rng) {
  std::vector<LinkId> links;  // each used link once
  for (const Route& route : p.flows) {
    for (const LinkId l : route) {
      if (std::find(links.begin(), links.end(), l) == links.end()) links.push_back(l);
    }
  }
  const std::size_t used = links.size();
  const std::size_t padding = rng() % 9;
  for (std::size_t k = 0; k < padding; ++k) {
    links.push_back(static_cast<LinkId>(p.capacity.size() + k));
  }
  std::vector<std::uint32_t> slot_of(links.size());
  for (std::uint32_t s = 0; s < slot_of.size(); ++s) slot_of[s] = s;
  std::shuffle(slot_of.begin(), slot_of.end(), rng);

  SlotProblem sp;
  sp.link.assign(links.size(), kInvalidLink);
  sp.capacity.assign(links.size(), 0);
  sp.crossings.assign(links.size(), 0);
  for (std::size_t k = 0; k < links.size(); ++k) {
    const std::uint32_t s = slot_of[k];
    sp.link[s] = links[k];
    sp.capacity[s] = k < used ? p.capacity[links[k]] : (rng() % 2 == 0 ? 0.0 : gbps(100));
  }
  sp.offset.assign(1, 0);
  for (std::size_t i = 0; i < p.flows.size(); ++i) {
    for (const LinkId l : p.flows[i]) {
      const auto k =
          static_cast<std::size_t>(std::find(links.begin(), links.end(), l) - links.begin());
      sp.hops.push_back(slot_of[k]);
      ++sp.crossings[slot_of[k]];
    }
    sp.offset.push_back(static_cast<std::uint32_t>(sp.hops.size()));
    sp.cap.push_back(p.caps.empty() ? kInf : p.caps[i]);
  }
  return sp;
}

/// expect_identical for fill() on `sp`, a translation of `p`.
void expect_identical_fill(const FairshareProblem& p, const SlotProblem& sp,
                           FairshareSolver& solver) {
  FairshareTrace want_trace, got_trace;
  const std::vector<Bandwidth> want = maxmin_fair_rates(p, &want_trace);
  const std::vector<Bandwidth> got = solver.fill(sp, &got_trace);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got_trace.bottleneck, want_trace.bottleneck);
  // Saturated links are listed in slot order: compare them as a set.
  std::sort(want_trace.saturated.begin(), want_trace.saturated.end());
  std::sort(got_trace.saturated.begin(), got_trace.saturated.end());
  EXPECT_EQ(got_trace.saturated, want_trace.saturated);
}

TEST(FairshareFastpath, MatchesReferenceOnRandomizedProblems) {
  FairshareSolver solver;  // shared across problems: scratch reuse must not leak
  for (const FairshareProblem& p : randomized_problems()) expect_identical(p, solver);
}

TEST(FairshareFastpath, SlotNumberingAndEmptySlotsAreInvisible) {
  // Network edits a kept SlotProblem when flows leave: their slots keep
  // their numbers, and a slot no flow crosses any more stays in the table.
  // The fill takes an exact minimum over slots and walks each flow's hops in
  // route order, so neither may move a bit: slots here are numbered by a
  // random permutation, with zero-crossing slots mixed in.
  std::mt19937_64 rng(20261020);
  FairshareSolver solver;
  for (const FairshareProblem& p : randomized_problems()) {
    expect_identical_fill(p, shuffled_slot_problem(p, rng), solver);
  }
}

TEST(FairshareFastpath, MatchesReferenceOnTieHeavyProblems) {
  // A round's flows must be visited in ascending order: where shares tie
  // within the tolerance, another order freezes the same flows but
  // subtracts from each link in another sequence.
  std::mt19937_64 rng(20261022);
  FairshareSolver solver;
  for (const FairshareProblem& p : tie_heavy_problems()) {
    expect_identical(p, solver);
    expect_identical_fill(p, shuffled_slot_problem(p, rng), solver);
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

  // A level so large that its tolerance s * (1 + 1e-12) overflows passes
  // every flow's cap test, also flow 1's, whose link has a NaN capacity and
  // so never a share at or under the level.
  p.capacity = {std::numeric_limits<double>::max(), std::numeric_limits<double>::quiet_NaN()};
  p.flows = {{0}, {1}};
  expect_identical(p, solver);
}

TEST(FairshareFastpath, RoundingGuardMatchesReference) {
  // A freeze can make a link tight mid-round through rounding alone. Flow 0
  // crosses link A, then link B; flows 1-19,999 cross B only. A's share sets
  // the round's level s, and B's share starts one ulp above the tolerance
  // s * (1 + 1e-12). Subtracting s from B and dividing by 19,999 rounds B's
  // share down onto the tolerance, so flows 1-1,670 freeze at s in flow 0's
  // round. A fill that tested only the flows on links tight when the round
  // started would freeze flow 1 a round later, at B's share.
  FairshareProblem p;
  p.capacity = {0x1.ba579ddb34941p+36, 0x1.0dfbfa190c004p+51};
  p.flows.assign(20000, Route{1});
  p.flows[0] = {0, 1};
  const double level = p.capacity[0] * (1.0 + 1e-12);
  ASSERT_GT(p.capacity[1] / 20000, level);
  ASSERT_LE((p.capacity[1] - p.capacity[0]) / 19999, level);
  const std::vector<Bandwidth> want = maxmin_fair_rates(p);
  ASSERT_EQ(std::count(want.begin(), want.end(), p.capacity[0]), 1671);

  FairshareSolver solver;
  expect_identical(p, solver);
  std::mt19937_64 rng(20261023);
  expect_identical_fill(p, shuffled_slot_problem(p, rng), solver);
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
  // After the small flow completes and leaves the active set, the survivor
  // must be re-rated and still found by its FlowId.
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
