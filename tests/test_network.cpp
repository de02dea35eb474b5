#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <tuple>

#include "gpucomm/net/network.hpp"
#include "gpucomm/sim/random.hpp"
#include "gpucomm/telemetry/sink.hpp"

namespace gpucomm {
namespace {

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

TEST(NetworkTest, SingleFlowSerializationPlusLatency) {
  Fixture f;
  SimTime done = SimTime::infinity();
  f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, [&](SimTime t) { done = t; });
  f.engine.run();
  // 1 MiB at 100 Gb/s = 83.886 us + 1 us latency.
  EXPECT_NEAR(done.micros(), 83.886 + 1.0, 0.05);
}

TEST(NetworkTest, MultiHopLatencyAccumulates) {
  Fixture f;
  SimTime done = SimTime::infinity();
  f.net->start_flow({{f.ab, f.bc}, 1_KiB, 0, 0}, [&](SimTime t) { done = t; });
  f.engine.run();
  EXPECT_NEAR(done.micros(), 1_KiB * 8.0 / 100e9 * 1e6 + 3.0, 0.05);
}

TEST(NetworkTest, TwoFlowsShareThenSpeedUp) {
  // Two equal flows on one link: both finish at 2x the solo time; a flow
  // started after the first finishes gets the full rate.
  Fixture f;
  SimTime d1, d2;
  f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, [&](SimTime t) { d1 = t; });
  f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, [&](SimTime t) { d2 = t; });
  f.engine.run();
  const double solo_us = 1_MiB * 8.0 / 100e9 * 1e6;
  EXPECT_NEAR(d1.micros(), 2 * solo_us + 1.0, 0.1);
  EXPECT_NEAR(d2.micros(), 2 * solo_us + 1.0, 0.1);
}

TEST(NetworkTest, UnequalFlowsExhibitWorkConservation) {
  // Small flow finishes first; the large one then accelerates. Total time
  // for the large flow: share phase + solo phase.
  Fixture f;
  SimTime small_done, large_done;
  f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, [&](SimTime t) { small_done = t; });
  f.net->start_flow({{f.ab}, 3_MiB, 0, 0}, [&](SimTime t) { large_done = t; });
  f.engine.run();
  const double mib_us = 1_MiB * 8.0 / 100e9 * 1e6;  // 1 MiB at full rate
  // Small: 1 MiB at 50 Gb/s = 2*mib_us (+1us). Large: 1 MiB during sharing
  // + 2 MiB solo = 2*mib_us + 2*mib_us = 4*mib_us (+1us).
  EXPECT_NEAR(small_done.micros(), 2 * mib_us + 1, 0.2);
  EXPECT_NEAR(large_done.micros(), 4 * mib_us + 1, 0.2);
}

TEST(NetworkTest, RateCapLimitsFlow) {
  Fixture f;
  SimTime done;
  f.net->start_flow({{f.ab}, 1_MiB, 0, gbps(10)}, [&](SimTime t) { done = t; });
  f.engine.run();
  EXPECT_NEAR(done.micros(), 10 * (1_MiB * 8.0 / 100e9 * 1e6) + 1.0, 0.5);
}

TEST(NetworkTest, CapWithoutRouteActsAsPrivateLink) {
  Fixture f;
  SimTime done;
  f.net->start_flow({{}, 1_MiB, 0, gbps(50)}, [&](SimTime t) { done = t; });
  f.engine.run();
  EXPECT_NEAR(done.micros(), 2 * (1_MiB * 8.0 / 100e9 * 1e6), 0.5);
}

TEST(NetworkTest, ZeroByteFlowDeliversAfterLatencyOnly) {
  Fixture f;
  SimTime done = SimTime::infinity();
  f.net->start_flow({{f.ab}, 0, 0, 0}, [&](SimTime t) { done = t; });
  f.engine.run();
  EXPECT_LE(done.micros(), 1.1);
}

TEST(NetworkTest, DisjointFlowsDoNotInterfere) {
  Fixture f;
  SimTime d1, d2;
  f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, [&](SimTime t) { d1 = t; });
  f.net->start_flow({{f.bc}, 1_MiB, 0, 0}, [&](SimTime t) { d2 = t; });
  f.engine.run();
  const double solo_us = 1_MiB * 8.0 / 100e9 * 1e6;
  EXPECT_NEAR(d1.micros(), solo_us + 1, 0.1);
  EXPECT_NEAR(d2.micros(), solo_us + 2, 0.1);
}

TEST(NetworkTest, BitsDeliveredAccumulates) {
  Fixture f;
  f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, nullptr);
  f.net->start_flow({{f.bc}, 2_MiB, 0, 0}, nullptr);
  f.engine.run();
  EXPECT_DOUBLE_EQ(f.net->total_bits_delivered(), 3.0 * 1_MiB * 8);
}

TEST(NetworkTest, ActiveFlowCountTracks) {
  Fixture f;
  f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, nullptr);
  f.net->start_flow({{f.ab}, 1_MiB, 0, 0}, nullptr);
  EXPECT_EQ(f.net->active_flows(), 2u);
  f.engine.run();
  EXPECT_EQ(f.net->active_flows(), 0u);
}

/// Noise field that occupies half of every link and adds a fixed delay.
class HalfNoise final : public NoiseField {
 public:
  double background_utilization(LinkId) const override { return 0.5; }
  SimTime queueing_delay(LinkId) override { return microseconds(10); }
  void resample() override {}
};

TEST(NetworkTest, NoiseReducesCapacityOnNoisyVl) {
  Fixture f;
  HalfNoise noise;
  f.net->set_noise(&noise);
  SimTime done;
  f.net->start_flow({{f.ab}, 1_MiB, /*vl=*/0, 0}, [&](SimTime t) { done = t; });
  f.engine.run();
  const double solo_us = 1_MiB * 8.0 / 100e9 * 1e6;
  // Half capacity + 10 us queueing on the single hop.
  EXPECT_NEAR(done.micros(), 2 * solo_us + 1 + 10, 0.5);
}

TEST(NetworkTest, OtherServiceLevelIsolatedFromNoise) {
  Fixture f;
  HalfNoise noise;
  f.net->set_noise(&noise);
  SimTime done;
  f.net->start_flow({{f.ab}, 1_MiB, /*vl=*/1, 0}, [&](SimTime t) { done = t; });
  f.engine.run();
  const double solo_us = 1_MiB * 8.0 / 100e9 * 1e6;
  EXPECT_NEAR(done.micros(), solo_us + 1, 0.5);
}

// ---------------------------------------------------------------------------
// Randomized event-stream differential suite (PR 7).
//
// The incremental/partitioned solver's contract is that its rates are
// BIT-identical to the full-resolve reference (every component re-solved
// from scratch on every event, the pre-PR-7 cost model) — at any shard
// count, under flow churn, fault flaps, congestion coupling, and noise
// epochs. These tests replay one deterministic pseudo-random event stream
// through both modes and compare every completion timestamp (picoseconds,
// exact), every interruption record, and mid-run rate samples as raw double
// bit patterns. Any divergence, however small, is a contract violation.

/// Versioned noise whose per-link utilization is a pure hash of
/// (link, epoch): deterministic across runs, different every resample.
class ChurnNoise final : public NoiseField {
 public:
  double background_utilization(LinkId link) const override {
    std::uint64_t h = (link + 1) * 0x9e3779b97f4a7c15ull + version_ * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
    return 0.4 * static_cast<double>(h % 1024) / 1024.0;
  }
  SimTime queueing_delay(LinkId) override { return SimTime::zero(); }
  void resample() override { ++version_; }
  std::uint64_t version() const override { return version_; }

 private:
  std::uint64_t version_ = 1;
};

/// Records the allocation stream a Network reports to its telemetry sink --
/// flow_rate, flow_throttled and link_saturated, in emission order, doubles
/// as raw bits. Unaffected components keep the trace state of their last
/// solve and allocation-cache hits restore a cached one, so this stream is
/// what catches either path restoring the wrong state.
class AllocationRecorder final : public telemetry::Sink {
 public:
  /// (kind, token or link, field, field, ps): kind 'r' = flow_rate (rate,
  /// standalone), 't' = flow_throttled (bottleneck link), 's' =
  /// link_saturated (flow count).
  using Event = std::tuple<char, std::uint64_t, std::uint64_t, std::uint64_t, std::int64_t>;
  std::vector<Event> events;

  void flow_rate(telemetry::FlowToken token, const Route&, Bandwidth rate, Bandwidth standalone,
                 SimTime now) override {
    events.emplace_back('r', token, std::bit_cast<std::uint64_t>(rate),
                        std::bit_cast<std::uint64_t>(standalone), now.ps);
  }
  void flow_throttled(telemetry::FlowToken token, LinkId bottleneck, SimTime now) override {
    events.emplace_back('t', token, bottleneck, 0, now.ps);
  }
  void link_saturated(LinkId link, int flows, SimTime now) override {
    events.emplace_back('s', link, static_cast<std::uint64_t>(flows), 0, now.ps);
  }
};

/// Scripted link flaps: at most one directed link down at a time.
class FlapFaults final : public fault::FaultModel {
 public:
  bool link_up(LinkId link) const override { return link != down_; }
  double capacity_factor(LinkId) const override { return 1.0; }
  double straggler_factor(int) const override { return 1.0; }
  LinkId down_ = kInvalidLink;
};

struct DiffReplay {
  struct Result {
    std::vector<std::pair<FlowId, std::int64_t>> delivered;  // (id, ps)
    std::vector<std::tuple<FlowId, Bytes, std::int64_t>> interrupted;
    std::vector<std::uint64_t> rate_bits;  // flow_rate samples, raw doubles
    std::vector<AllocationRecorder::Event> telemetry;  // only with Options::telemetry
    double bits_delivered = 0;
    bool operator==(const Result&) const = default;
  };

  struct Options {
    SolverMode mode = SolverMode::kIncremental;
    int shards = 1;
    bool faults = false;
    bool congestion = false;
    bool noise = false;
    /// Attach an AllocationRecorder and return its stream in Result::telemetry.
    bool telemetry = false;
    /// When set, receives the network's final solver counters.
    net::SolverStats* stats_out = nullptr;
    std::uint64_t seed = 1;
  };

  /// Two-tier leaf-spine fabric: 4 leaves x 4 GPUs, 2 spines. Small enough
  /// to run thousands of events, large enough that churn splits and merges
  /// components constantly (GPU pairs under one leaf are independent of the
  /// rest until a cross-leaf flow couples them through the spine).
  static Result run(const Options& o) {
    constexpr int kLeaves = 4, kSpines = 2, kGpusPerLeaf = 4;
    Graph g;
    std::vector<DeviceId> leaf(kLeaves), spine(kSpines);
    std::vector<std::vector<DeviceId>> gpu(kLeaves);
    std::vector<std::vector<LinkId>> up(kLeaves);              // gpu -> leaf
    std::vector<std::vector<LinkId>> trunk(kLeaves);           // leaf -> spine
    for (int s = 0; s < kSpines; ++s) {
      spine[s] = g.add_device({DeviceKind::kSwitch, -1, s, "spine"});
    }
    for (int l = 0; l < kLeaves; ++l) {
      leaf[l] = g.add_device({DeviceKind::kSwitch, -1, l, "leaf"});
      for (int k = 0; k < kGpusPerLeaf; ++k) {
        const DeviceId d = g.add_device({DeviceKind::kGpu, l, k, "gpu"});
        gpu[l].push_back(d);
        up[l].push_back(
            g.add_duplex_link(d, leaf[l], gbps(100), microseconds(1), LinkType::kNvLink));
      }
      trunk[l].resize(kSpines);
      for (int s = 0; s < kSpines; ++s) {
        trunk[l][s] = g.add_duplex_link(leaf[l], spine[s], gbps(100), microseconds(2),
                                        LinkType::kLeafSpine);
      }
    }
    // gpu->leaf is link id, leaf->gpu is id+1; same for leaf->spine.
    const auto route = [&](int src_leaf, int src_gpu, int dst_leaf, int dst_gpu, int s) {
      Route r;
      r.push_back(up[src_leaf][src_gpu]);
      if (src_leaf != dst_leaf) {
        r.push_back(trunk[src_leaf][s]);
        r.push_back(trunk[dst_leaf][s] + 1);
      }
      r.push_back(up[dst_leaf][dst_gpu] + 1);
      return r;
    };

    AllocationRecorder recorder;  // outlives the network that points at it
    Engine engine;
    Network net(engine, g);
    net.set_solver_mode(o.mode);
    net.set_shards(o.shards);
    if (o.telemetry) net.set_telemetry(&recorder);
    if (o.congestion) net.set_congestion({/*flow_threshold=*/2, /*rate_factor=*/0.5});
    ChurnNoise noise;
    if (o.noise) net.set_noise(&noise);
    FlapFaults faults;
    if (o.faults) net.set_faults(&faults);

    Result r;
    std::vector<FlowId> issued;
    struct Start {
      Route route;
      Bytes bytes;
      int vl;
      Bandwidth cap;
    };
    // Both callbacks need the flow's id, which start_flow only returns after
    // they are already bound into the spec — so they read it from a shared
    // cell filled in right after the call. Both fire via the engine, strictly
    // after start_flow returns, so the cell is always populated by then.
    const auto launch = [&net, &r, &issued](const Start& st) {
      auto cell = std::make_shared<FlowId>(0);
      FlowSpec spec{st.route, st.bytes, st.vl, st.cap};
      spec.on_interrupted = [&r, cell](Bytes serialized, SimTime now) {
        r.interrupted.emplace_back(*cell, serialized, now.ps);
      };
      *cell = net.start_flow(std::move(spec), [&r, cell](SimTime t) {
        r.delivered.emplace_back(*cell, t.ps);
      });
      issued.push_back(*cell);
    };

    Rng rng(o.seed);
    constexpr int kWaves = 60;
    for (int w = 0; w < kWaves; ++w) {
      const SimTime t = microseconds(static_cast<double>(w) * 25.0);
      // 1-5 new flows per wave: mixed intra-leaf and cross-leaf, two VLs,
      // an occasional private rate cap.
      const int count = 1 + static_cast<int>(rng.uniform_int(5));
      std::vector<Start> starts;
      for (int i = 0; i < count; ++i) {
        const int sl = static_cast<int>(rng.uniform_int(kLeaves));
        const int sg = static_cast<int>(rng.uniform_int(kGpusPerLeaf));
        int dl = static_cast<int>(rng.uniform_int(kLeaves));
        int dg = static_cast<int>(rng.uniform_int(kGpusPerLeaf));
        if (dl == sl && dg == sg) dg = (dg + 1) % kGpusPerLeaf;
        const int s = static_cast<int>(rng.uniform_int(kSpines));
        Start st;
        st.route = route(sl, sg, dl, dg, s);
        st.bytes = static_cast<Bytes>(1_KiB << rng.uniform_int(12));  // 1 KiB .. 2 MiB
        st.vl = rng.bernoulli(0.3) ? 1 : 0;
        st.cap = rng.bernoulli(0.2) ? gbps(rng.uniform(5.0, 60.0)) : 0;
        starts.push_back(std::move(st));
      }
      engine.at(t, [&launch, starts = std::move(starts)] {
        for (const Start& st : starts) launch(st);
      });
    }
    if (o.faults) {
      // Flap a rotating trunk link: down mid-wave, up 60us later. Downed
      // links interrupt crossing flows and force the routing fallback.
      for (int f = 0; f < 6; ++f) {
        const LinkId target =
            trunk[f % kLeaves][f % kSpines] + static_cast<LinkId>(f % 2);
        const SimTime down_at = microseconds(110.0 + 180.0 * f + 7.0);
        engine.at(down_at, [&net, &faults, target] {
          faults.down_ = target;
          net.on_link_state_change();
        });
        engine.at(down_at + microseconds(60.0), [&net, &faults] {
          faults.down_ = kInvalidLink;
          net.on_link_state_change();
        });
      }
    }
    if (o.noise) {
      // Noise epochs between waves: capacities move under the active set.
      for (int e = 0; e < 10; ++e) {
        engine.at(microseconds(55.0 + 140.0 * e + 3.0), [&noise] { noise.resample(); });
      }
    }
    // Mid-run rate probes: every issued flow's current rate, raw bits.
    for (int p = 0; p < 30; ++p) {
      engine.at(microseconds(13.0 + 50.0 * p), [&net, &r, &issued] {
        for (const FlowId id : issued) {
          r.rate_bits.push_back(std::bit_cast<std::uint64_t>(net.flow_rate(id)));
        }
      });
    }

    engine.run();
    r.bits_delivered = net.total_bits_delivered();
    r.telemetry = std::move(recorder.events);
    if (o.stats_out != nullptr) *o.stats_out = net.solver_stats();
    return r;
  }
};

/// One replay under the full-resolve reference, compared bit-for-bit against
/// the incremental solver at several shard counts.
void expect_differential_identity(DiffReplay::Options o,
                                  std::initializer_list<int> shard_counts) {
  o.mode = SolverMode::kFullResolve;
  o.shards = 1;
  const DiffReplay::Result ref = DiffReplay::run(o);
  EXPECT_FALSE(ref.delivered.empty());
  o.mode = SolverMode::kIncremental;
  for (const int shards : shard_counts) {
    o.shards = shards;
    const DiffReplay::Result got = DiffReplay::run(o);
    EXPECT_EQ(ref.delivered, got.delivered) << "shards=" << shards;
    EXPECT_EQ(ref.interrupted, got.interrupted) << "shards=" << shards;
    EXPECT_EQ(ref.rate_bits, got.rate_bits) << "shards=" << shards;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.bits_delivered),
              std::bit_cast<std::uint64_t>(got.bits_delivered))
        << "shards=" << shards;
  }
}

TEST(NetworkDifferential, IncrementalMatchesFullResolveUnderChurn) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    DiffReplay::Options o;
    o.seed = seed;
    expect_differential_identity(o, {1});
  }
}

TEST(NetworkDifferential, ShardCountInvariance) {
  DiffReplay::Options o;
  o.seed = 42;
  expect_differential_identity(o, {1, 2, 3, 4, 8});
}

TEST(NetworkDifferential, FaultFlapsPreserveBitIdentity) {
  DiffReplay::Options o;
  o.faults = true;
  o.seed = 99;
  expect_differential_identity(o, {1, 4});
}

TEST(NetworkDifferential, CongestionClosureBitIdentity) {
  // rate_factor < 1 couples components through shared switches; the
  // incremental closure must expand through them or under-degrade.
  DiffReplay::Options o;
  o.congestion = true;
  o.seed = 5;
  expect_differential_identity(o, {1, 3});
}

TEST(NetworkDifferential, NoiseEpochsBitIdentity) {
  DiffReplay::Options o;
  o.noise = true;
  o.seed = 11;
  expect_differential_identity(o, {1, 2});
}

TEST(NetworkDifferential, CombinedChurnFaultsCongestionNoise) {
  DiffReplay::Options o;
  o.faults = true;
  o.congestion = true;
  o.noise = true;
  o.seed = 2026;
  expect_differential_identity(o, {1, 4});
}

TEST(NetworkDifferential, CacheHitsRestoreTraceState) {
  // The traced allocation stream must be the same whether a component was
  // re-solved, served from the allocation cache, or left untouched by an
  // incremental event -- plain, and with faults, congestion and noise.
  for (const bool stressed : {false, true}) {
    DiffReplay::Options o;
    o.seed = 77;
    o.faults = o.congestion = o.noise = stressed;
    o.mode = SolverMode::kFullResolve;
    const DiffReplay::Result untraced = DiffReplay::run(o);
    o.telemetry = true;
    const DiffReplay::Result ref = DiffReplay::run(o);
    EXPECT_FALSE(ref.telemetry.empty()) << "stressed=" << stressed;
    // Attaching the sink never changes a rate.
    EXPECT_EQ(ref.rate_bits, untraced.rate_bits) << "stressed=" << stressed;
    o.mode = SolverMode::kIncremental;
    for (const int shards : {1, 4}) {
      net::SolverStats stats;
      o.shards = shards;
      o.stats_out = &stats;
      const DiffReplay::Result got = DiffReplay::run(o);
      EXPECT_GT(stats.cache_hits, 0u) << "stressed=" << stressed << " shards=" << shards;
      EXPECT_EQ(ref.telemetry, got.telemetry) << "stressed=" << stressed << " shards=" << shards;
      EXPECT_EQ(ref.rate_bits, got.rate_bits) << "stressed=" << stressed << " shards=" << shards;
    }
  }
}

// ---------------------------------------------------------------------------
// Component grouping. The differential suite compares two modes that share
// one partitioner, so it cannot see which flows end up in one subproblem.
// These tests pin the grouping through SolverStats::component_size_log2.

/// Two switches with four GPUs each: up[s][k] is the link from GPU k to
/// switch s, and up[s][k] + 1 the link back. `trunk` joins switch 0 to
/// switch 1. `direct` holds GPU-to-GPU links outside every switch, for
/// flows that couple with nothing.
struct SwitchFixture {
  Graph g;
  Engine engine;
  std::vector<std::vector<LinkId>> up;
  LinkId trunk = kInvalidLink;
  std::vector<LinkId> direct;
  std::unique_ptr<Network> net;

  explicit SwitchFixture(bool congestion) {
    std::vector<DeviceId> sw;
    for (int s = 0; s < 2; ++s) {
      sw.push_back(g.add_device({DeviceKind::kSwitch, -1, s, "switch"}));
      up.emplace_back();
      for (int k = 0; k < 4; ++k) {
        const DeviceId d = g.add_device({DeviceKind::kGpu, s, k, "gpu"});
        up[s].push_back(
            g.add_duplex_link(d, sw[s], gbps(100), microseconds(1), LinkType::kLeafSpine));
      }
    }
    trunk = g.add_duplex_link(sw[0], sw[1], gbps(100), microseconds(1), LinkType::kLeafSpine);
    for (int k = 0; k < 3; ++k) {
      const DeviceId a = g.add_device({DeviceKind::kGpu, 2, 2 * k, "gpu"});
      const DeviceId b = g.add_device({DeviceKind::kGpu, 2, 2 * k + 1, "gpu"});
      direct.push_back(g.add_duplex_link(a, b, gbps(100), microseconds(1), LinkType::kNvLink));
    }
    net = std::make_unique<Network>(engine, g);
    // A threshold no link here reaches: rates stay undegraded, but the
    // switch closure is on whenever rate_factor < 1.
    if (congestion) net->set_congestion({/*flow_threshold=*/100, /*rate_factor=*/0.5});
  }

  /// gpu (s, a) -> switch s -> gpu (s, b).
  Route via_switch(int s, int a, int b) const { return {up[s][a], up[s][b] + 1}; }
};

TEST(NetworkComponents, SharedSwitchCouplesOnlyUnderCongestion) {
  // Two flows through one switch on disjoint links: one 2-flow subproblem
  // when congestion coupling is on, two 1-flow subproblems when it is off,
  // also when coupling is switched after the flows started (the active
  // flows then join or leave the per-switch lists).
  for (const bool congestion : {true, false}) {
    for (const bool late : {false, true}) {
      SwitchFixture f(late ? !congestion : congestion);
      f.net->start_flow({f.via_switch(0, 0, 1), 1_MiB, 0, 0}, nullptr);
      f.net->start_flow({f.via_switch(0, 2, 3), 1_MiB, 0, 0}, nullptr);
      if (late) {
        f.net->set_congestion(congestion ? SwitchCongestion{100, 0.5} : SwitchCongestion{});
      }
      net::SolverStats first;
      f.engine.after(nanoseconds(10), [&] { first = f.net->solver_stats(); });
      f.engine.run();
      EXPECT_EQ(first.reallocations, 1u) << "congestion=" << congestion << " late=" << late;
      EXPECT_EQ(first.component_size_log2[0], congestion ? 0u : 2u)
          << "congestion=" << congestion << " late=" << late;
      EXPECT_EQ(first.component_size_log2[1], congestion ? 1u : 0u)
          << "congestion=" << congestion << " late=" << late;
    }
  }
}

TEST(NetworkComponents, VacatedTrunkGathersBothSwitchesIntoOneSubproblem) {
  // A short flow on the trunk couples a flow through switch 0 and a flow
  // through switch 1 into one closure component. When it completes, nothing
  // couples the two any more, yet the vacated trunk's two switch endpoints
  // gather both flows into one subproblem of that incremental event. Three
  // unrelated flows keep the event under the full-solve threshold. Without
  // congestion coupling the trunk flow was alone, and its completion leaves
  // nothing to re-solve.
  for (const bool congestion : {true, false}) {
    SwitchFixture f(congestion);
    f.net->start_flow({{f.trunk}, 1_KiB, 0, 0}, nullptr);
    f.net->start_flow({f.via_switch(0, 0, 1), 1_MiB, 0, 0}, nullptr);
    f.net->start_flow({f.via_switch(1, 2, 3), 1_MiB, 0, 0}, nullptr);
    for (const LinkId l : f.direct) f.net->start_flow({{l}, 1_MiB, 0, 0}, nullptr);
    // The trunk flow serializes 1 KiB at 100 Gb/s in about 82 ns.
    net::SolverStats before, after;
    f.engine.after(nanoseconds(10), [&] { before = f.net->solver_stats(); });
    f.engine.after(microseconds(1), [&] { after = f.net->solver_stats(); });
    f.engine.run();
    ASSERT_EQ(after.reallocations - before.reallocations, 1u) << "congestion=" << congestion;
    if (congestion) {
      EXPECT_EQ(after.incremental_events - before.incremental_events, 1u);
      EXPECT_EQ(after.component_solves - before.component_solves, 1u);
      EXPECT_EQ(after.component_size_log2[1] - before.component_size_log2[1], 1u);
    } else {
      EXPECT_EQ(after.no_work_events - before.no_work_events, 1u);
      EXPECT_EQ(after.component_solves - before.component_solves, 0u);
    }
  }
}

TEST(NetworkTest, ManySequentialFlowsDeterministic) {
  // Two identical runs produce bit-identical completion times.
  auto run = [] {
    Fixture f;
    std::vector<std::int64_t> times;
    for (int i = 0; i < 50; ++i) {
      f.net->start_flow({{f.ab, f.bc}, static_cast<Bytes>(1_KiB * (i + 1)), 0, 0},
                        [&](SimTime t) { times.push_back(t.ps); });
    }
    f.engine.run();
    return times;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace gpucomm
