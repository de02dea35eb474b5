#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <tuple>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/cluster/placement.hpp"
#include "gpucomm/comm/communicator.hpp"
#include "gpucomm/net/network.hpp"
#include "gpucomm/sim/random.hpp"
#include "gpucomm/systems/registry.hpp"
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

TEST(NetworkTest, MixedVlLinkTakesTheCapacityOfItsNewestFlowsVl) {
  // Pins today's rule: a link crossed by flows on several VLs gets one
  // capacity, the one for the VL of its highest-FlowId flow, and the two
  // flows share it. Noise halves the link on VL 0 only, so the start order
  // decides whether they share 100 or 50 Gb/s.
  for (const bool noisy_first : {true, false}) {
    Fixture f;
    HalfNoise noise;
    f.net->set_noise(&noise);
    const int first_vl = noisy_first ? 0 : 1;
    const FlowId older = f.net->start_flow({{f.ab}, 1_MiB, first_vl, 0}, nullptr);
    const FlowId newer = f.net->start_flow({{f.ab}, 1_MiB, 1 - first_vl, 0}, nullptr);
    Bandwidth older_rate = 0, newer_rate = 0;
    f.engine.after(nanoseconds(10), [&] {
      older_rate = f.net->flow_rate(older);
      newer_rate = f.net->flow_rate(newer);
    });
    f.engine.run();
    const Bandwidth link = noisy_first ? gbps(100) : gbps(50);
    EXPECT_DOUBLE_EQ(older_rate, link / 2) << "noisy_first=" << noisy_first;
    EXPECT_DOUBLE_EQ(newer_rate, link / 2) << "noisy_first=" << noisy_first;
  }
}

// ---------------------------------------------------------------------------
// Randomized event-stream differential suite (PR 7).
//
// The incremental/partitioned solver's contract is that its rates are
// BIT-identical to the full-resolve reference (every component re-solved
// from scratch on every event) under flow churn, fault flaps, congestion
// coupling, and noise epochs. These tests replay one deterministic
// pseudo-random event stream through both modes and compare every
// completion timestamp (picoseconds, exact), every interruption record, and
// mid-run rate samples as raw double bit patterns. Any divergence, however
// small, is a contract violation.

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

  /// What each wave starts.
  enum class Waves {
    /// 1-5 intra- and cross-leaf flows of 1 KiB to 2 MiB.
    kChurn,
    /// Grow one giant component: 6-9 cross-leaf flows of 256 KiB to 2 MiB,
    /// which outlive the next wave, so most waves only add flows to a
    /// whole-set subproblem of 32 flows or more.
    kGrow,
    /// kGrow's waves for the first third of the run, then none: the whole
    /// set of about 150 flows loses them one completion at a time.
    kShrink,
    /// kGrow's waves in two halves that share no link or switch (leaf 0 to
    /// leaf 1 over spine 0, leaf 2 to leaf 3 over spine 1). Every other wave
    /// also starts a 4 KiB bridge from leaf 0 to leaf 3, whose completion
    /// splits the whole set.
    kSplit,
    /// Every flow crosses leaf 0 to spine 0, the one bottleneck: 40 flows of
    /// 256 KiB to 2 MiB, the first of them 16 KiB, then 2-4 flows of 16 KiB
    /// per wave, which finish first. The partition roots its tree at the
    /// oldest flow, then at the newest one on a vacated link, and either
    /// leaves soon.
    kRootLeaves,
    // Under the last three, flows on VL 1 start only in waves 1 to 7, so
    // completions meet slots that two VLs cross and, later, only slots of
    // one.
  };

  struct Options {
    SolverMode mode = SolverMode::kIncremental;
    bool faults = false;
    bool congestion = false;
    bool noise = false;
    /// Attach an AllocationRecorder and return its stream in Result::telemetry.
    bool telemetry = false;
    Waves waves = Waves::kChurn;
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
    const bool churn = o.waves == Waves::kChurn;
    for (int w = 0; w < kWaves; ++w) {
      const SimTime t = microseconds(static_cast<double>(w) * 25.0);
      // Two VLs and an occasional private rate cap throughout.
      int count = 0;
      switch (o.waves) {
        case Waves::kChurn: count = 1 + static_cast<int>(rng.uniform_int(5)); break;
        case Waves::kGrow:
        case Waves::kSplit: count = 6 + static_cast<int>(rng.uniform_int(4)); break;
        case Waves::kShrink:
          count = w < kWaves / 3 ? 6 + static_cast<int>(rng.uniform_int(4)) : 0;
          break;
        case Waves::kRootLeaves:
          count = w == 0 ? 40 : 2 + static_cast<int>(rng.uniform_int(3));
          break;
      }
      std::vector<Start> starts;
      for (int i = 0; i < count; ++i) {
        int sl = static_cast<int>(rng.uniform_int(kLeaves));
        const int sg = static_cast<int>(rng.uniform_int(kGpusPerLeaf));
        int dl = churn ? static_cast<int>(rng.uniform_int(kLeaves))
                       : (sl + 1 + static_cast<int>(rng.uniform_int(kLeaves - 1))) % kLeaves;
        int dg = static_cast<int>(rng.uniform_int(kGpusPerLeaf));
        int s = static_cast<int>(rng.uniform_int(kSpines));
        Bytes bytes = churn ? static_cast<Bytes>(1_KiB << rng.uniform_int(12))   // 1 KiB .. 2 MiB
                            : static_cast<Bytes>(256_KiB << rng.uniform_int(4));  // 256 KiB .. 2 MiB
        if (o.waves == Waves::kSplit) {
          const bool bridge = i == 0 && w % 2 == 0;
          sl = bridge ? 0 : 2 * s;
          dl = bridge ? 3 : 2 * s + 1;
          if (bridge) bytes = 4_KiB;
        } else if (o.waves == Waves::kRootLeaves) {
          dl = (dl - sl + kLeaves) % kLeaves;
          sl = 0;
          s = 0;
          if (w > 0 || i == 0) bytes = 16_KiB;
        }
        if (dl == sl && dg == sg) dg = (dg + 1) % kGpusPerLeaf;
        Start st;
        st.route = route(sl, sg, dl, dg, s);
        st.bytes = bytes;
        st.vl = rng.bernoulli(0.3) && (o.waves <= Waves::kGrow || (w > 0 && w < 8)) ? 1 : 0;
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
/// the incremental solver.
void expect_differential_identity(DiffReplay::Options o) {
  o.mode = SolverMode::kFullResolve;
  const DiffReplay::Result ref = DiffReplay::run(o);
  EXPECT_FALSE(ref.delivered.empty());
  o.mode = SolverMode::kIncremental;
  const DiffReplay::Result got = DiffReplay::run(o);
  EXPECT_EQ(ref.delivered, got.delivered);
  EXPECT_EQ(ref.interrupted, got.interrupted);
  EXPECT_EQ(ref.rate_bits, got.rate_bits);
  EXPECT_EQ(ref.telemetry, got.telemetry);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.bits_delivered),
            std::bit_cast<std::uint64_t>(got.bits_delivered));
}

TEST(NetworkDifferential, IncrementalMatchesFullResolveUnderChurn) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    DiffReplay::Options o;
    o.seed = seed;
    SCOPED_TRACE(seed);
    expect_differential_identity(o);
  }
}

TEST(NetworkDifferential, FaultFlapsPreserveBitIdentity) {
  DiffReplay::Options o;
  o.faults = true;
  o.seed = 99;
  expect_differential_identity(o);
}

TEST(NetworkDifferential, CongestionClosureBitIdentity) {
  // rate_factor < 1 couples components through shared switches; the
  // incremental closure must expand through them or under-degrade.
  DiffReplay::Options o;
  o.congestion = true;
  o.seed = 5;
  expect_differential_identity(o);
}

TEST(NetworkDifferential, NoiseEpochsBitIdentity) {
  DiffReplay::Options o;
  o.noise = true;
  o.seed = 11;
  expect_differential_identity(o);
}

TEST(NetworkDifferential, CombinedChurnFaultsCongestionNoise) {
  DiffReplay::Options o;
  o.faults = true;
  o.congestion = true;
  o.noise = true;
  o.seed = 2026;
  expect_differential_identity(o);
}

/// `waves` replayed four ways against kFullResolve: plain; under the
/// congestion closure; with noise, where the flows' two VLs share the
/// trunks, so a flow can change a kept slot's capacity; and traced. Each
/// replay must reach the regime: more than 100 subproblems of 32 flows or
/// more, and more than 100 whole-set threshold fallbacks.
void expect_whole_set_identity(DiffReplay::Waves waves, std::uint64_t seed) {
  for (int variant = 0; variant < 4; ++variant) {
    DiffReplay::Options o;
    o.waves = waves;
    o.seed = seed + static_cast<std::uint64_t>(variant);
    o.congestion = variant == 1;
    o.noise = variant == 2;
    o.telemetry = variant == 3;
    net::SolverStats stats;
    o.stats_out = &stats;
    SCOPED_TRACE(variant);
    expect_differential_identity(o);
    std::uint64_t solves = 0;
    for (std::size_t b = 5; b < stats.component_size_log2.size(); ++b) {
      solves += stats.component_size_log2[b];
    }
    EXPECT_GT(solves, 100u);
    EXPECT_GT(stats.fallback_threshold, 100u);
  }
}

TEST(NetworkDifferential, GrowingWholeSetBitIdentity) {
  // Start-only events on a whole-set subproblem of 32 flows or more extend
  // its kept translation instead of re-partitioning.
  expect_whole_set_identity(DiffReplay::Waves::kGrow, 300);
}

TEST(NetworkDifferential, ShrinkingWholeSetBitIdentity) {
  // Completions that leave a whole set of 32 flows or more connected repair
  // its spanning tree and drop their flows from the kept translation.
  expect_whole_set_identity(DiffReplay::Waves::kShrink, 400);
}

TEST(NetworkDifferential, SplittingWholeSetBitIdentity) {
  // A bridge's completion splits the whole set: the children it leaves find
  // no shallower flow, and the seeded partition runs.
  expect_whole_set_identity(DiffReplay::Waves::kSplit, 500);
}

TEST(NetworkDifferential, RootLeavingWholeSetBitIdentity) {
  // The tree's root completes: the survivors hold no root, and the seeded
  // partition runs.
  expect_whole_set_identity(DiffReplay::Waves::kRootLeaves, 600);
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
    net::SolverStats stats;
    o.stats_out = &stats;
    const DiffReplay::Result got = DiffReplay::run(o);
    EXPECT_GT(stats.cache_hits, 0u) << "stressed=" << stressed;
    EXPECT_EQ(ref.telemetry, got.telemetry) << "stressed=" << stressed;
    EXPECT_EQ(ref.rate_bits, got.rate_bits) << "stressed=" << stressed;
  }
}

/// One exact-sim cell of a paper bench.
struct PaperCell {
  const char* system;
  Mechanism mechanism;
  bool alltoall;  // else allreduce
  Bytes bytes;
  int gpus;
};

/// Runs `cell` in `mode`, built as bench/scalability.hpp builds it (scatter
/// placement, tuned environment), for two iterations with a noise epoch
/// between them; returns each iteration's time in ps.
std::vector<std::int64_t> paper_cell_ps(const PaperCell& cell, SolverMode mode) {
  const SystemConfig cfg = system_by_name(cell.system);
  ClusterOptions copt;
  copt.nodes = cell.gpus / cfg.gpus_per_node;
  copt.placement = Placement::kScatterSwitches;
  Cluster cluster(cfg, copt);
  cluster.network().set_solver_mode(mode);
  CommOptions opt;
  opt.env = cfg.tuned_env();
  auto comm = make_comm(cell.mechanism, cluster, first_n_gpus(cluster, cell.gpus), opt);
  std::vector<std::int64_t> ps;
  for (int iter = 0; iter < 2; ++iter) {
    if (iter > 0 && cluster.noise_field() != nullptr) cluster.noise_field()->resample();
    ps.push_back((cell.alltoall ? comm->time_alltoall(cell.bytes)
                                : comm->time_allreduce(cell.bytes))
                     .ps);
  }
  return ps;
}

TEST(NetworkDifferential, PaperCellsMatchFullResolve) {
  // Real fabrics under the congestion closure, which the synthetic replays
  // above do not build: the LUMI cell books nearly every reallocation as a
  // threshold full solve, so the whole-set paths run, and Leonardo's noise
  // epochs force full solves.
  const PaperCell cells[] = {
      {"lumi", Mechanism::kMpi, true, 2_MiB, 32},
      {"alps", Mechanism::kCcl, true, 2_MiB, 16},
      {"leonardo", Mechanism::kMpi, true, 2_MiB, 16},
      {"leonardo", Mechanism::kCcl, false, 64_MiB, 16},
  };
  for (const PaperCell& cell : cells) {
    SCOPED_TRACE(testing::Message() << cell.system << " " << to_string(cell.mechanism) << " "
                                    << (cell.alltoall ? "alltoall" : "allreduce"));
    EXPECT_EQ(paper_cell_ps(cell, SolverMode::kIncremental),
              paper_cell_ps(cell, SolverMode::kFullResolve));
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

TEST(NetworkComponents, VacatedTrunkReSolvesEachSwitchApart) {
  // A short flow on the trunk couples a flow through switch 0 and a flow
  // through switch 1 into one closure component. When it completes, nothing
  // couples the two any more: each flow on the vacated trunk's switch lists
  // seeds its own component, and the incremental event solves two 1-flow
  // subproblems. Three unrelated flows keep the event under the full-solve
  // threshold. Without congestion coupling the trunk flow was alone, and its
  // completion leaves nothing to re-solve.
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
      EXPECT_EQ(after.component_solves - before.component_solves, 2u);
      EXPECT_EQ(after.component_size_log2[0] - before.component_size_log2[0], 2u);
    } else {
      EXPECT_EQ(after.no_work_events - before.no_work_events, 1u);
      EXPECT_EQ(after.component_solves - before.component_solves, 0u);
    }
  }
}

/// Rates as raw bits, for bit-for-bit comparison.
std::vector<std::uint64_t> raw_bits(const std::vector<Bandwidth>& rates) {
  std::vector<std::uint64_t> bits;
  for (const Bandwidth r : rates) bits.push_back(std::bit_cast<std::uint64_t>(r));
  return bits;
}

TEST(NetworkDifferential, VacatedTrunkWithATieAcrossSwitches) {
  // A 1 KiB trunk flow couples two flows that share a GPU link at switch 0
  // (50 Gb/s each) with a flow through switch 1, capped within the fill's
  // 1e-12 freeze tolerance above that level. Three direct flows keep the
  // trunk's completion under the full-solve threshold. After it nothing
  // couples the switches, so the capped flow runs at its cap, as in
  // kFullResolve, instead of freezing at switch 0's level.
  const Bandwidth cap = gbps(50) * (1 + 9e-13);
  const auto run = [cap](SolverMode mode) {
    SwitchFixture f(/*congestion=*/true);
    f.net->set_solver_mode(mode);
    f.net->start_flow({{f.trunk}, 1_KiB, 0, 0}, nullptr);
    std::vector<FlowId> ids;
    for (int i = 0; i < 2; ++i) {
      ids.push_back(f.net->start_flow({f.via_switch(0, 0, 1), 1_MiB, 0, 0}, nullptr));
    }
    ids.push_back(f.net->start_flow({f.via_switch(1, 2, 3), 1_MiB, 0, cap}, nullptr));
    for (const LinkId l : f.direct) ids.push_back(f.net->start_flow({{l}, 1_MiB, 0, 0}, nullptr));
    // The trunk flow serializes 1 KiB at 100 Gb/s in about 82 ns.
    std::vector<Bandwidth> rates;
    f.engine.after(microseconds(1), [&] {
      for (const FlowId id : ids) rates.push_back(f.net->flow_rate(id));
    });
    f.engine.run();
    return rates;
  };
  const std::vector<Bandwidth> ref = run(SolverMode::kFullResolve);
  ASSERT_EQ(ref.size(), 6u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref[2]), std::bit_cast<std::uint64_t>(cap));
  EXPECT_EQ(raw_bits(run(SolverMode::kIncremental)), raw_bits(ref));
}

TEST(NetworkDifferential, StartAfterVacatedTrunkWithATieAcrossSwitches) {
  // A 1 KiB trunk flow couples 16 flows through switch 0 and 16 through
  // switch 1 into one whole set. One switch-1 flow is capped within the
  // fill's freeze tolerance above a 17th of 100 Gb/s, the level a 17th
  // switch-0 flow sets. The trunk's completion leaves two components, so
  // that flow's start at 1 us re-solves only switch 0's, as one 17-flow
  // incremental subproblem, and the capped flow keeps its cap, as in
  // kFullResolve.
  const Bandwidth cap = gbps(100) / 17 * (1 + 9e-13);
  struct Run {
    std::vector<Bandwidth> rates;
    net::SolverStats before, after;
  };
  const auto run = [cap](SolverMode mode) {
    SwitchFixture f(/*congestion=*/true);
    f.net->set_solver_mode(mode);
    f.net->start_flow({{f.trunk}, 1_KiB, 0, 0}, nullptr);
    std::vector<FlowId> ids;
    for (int i = 0; i < 16; ++i) {
      ids.push_back(f.net->start_flow({f.via_switch(0, 0, 1), 1_MiB, 0, 0}, nullptr));
    }
    for (int i = 0; i < 16; ++i) {
      ids.push_back(
          f.net->start_flow({f.via_switch(1, 2, 3), 1_MiB, 0, i == 0 ? cap : 0}, nullptr));
    }
    Run r;
    f.engine.after(microseconds(1), [&] {
      r.before = f.net->solver_stats();
      ids.push_back(f.net->start_flow({f.via_switch(0, 0, 1), 1_MiB, 0, 0}, nullptr));
    });
    f.engine.after(microseconds(2), [&] {
      r.after = f.net->solver_stats();
      for (const FlowId id : ids) r.rates.push_back(f.net->flow_rate(id));
    });
    f.engine.run();
    return r;
  };
  const Run ref = run(SolverMode::kFullResolve);
  ASSERT_EQ(ref.rates.size(), 33u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.rates[16]), std::bit_cast<std::uint64_t>(cap));
  EXPECT_EQ(ref.after.component_solves - ref.before.component_solves, 2u);
  const Run got = run(SolverMode::kIncremental);
  EXPECT_EQ(raw_bits(got.rates), raw_bits(ref.rates));
  ASSERT_EQ(got.after.reallocations - got.before.reallocations, 1u);
  EXPECT_EQ(got.after.incremental_events - got.before.incremental_events, 1u);
  EXPECT_EQ(got.after.component_solves - got.before.component_solves, 1u);
  EXPECT_EQ(got.after.component_size_log2[4] - got.before.component_size_log2[4], 1u);
}

TEST(NetworkComponents, SharedLinkCouplesUnderTheClosure) {
  // Under the congestion closure the BFS drains a switch-adjacent link
  // through its switch's list, and a link with no switch endpoint through
  // its own list. Either way two flows sharing only that link form one
  // 2-flow subproblem.
  for (const bool direct : {true, false}) {
    SwitchFixture f(/*congestion=*/true);
    const Route shared = direct ? Route{f.direct[0]} : Route{f.trunk};
    f.net->start_flow({shared, 1_MiB, 0, 0}, nullptr);
    f.net->start_flow({shared, 1_MiB, 0, 0}, nullptr);
    net::SolverStats first;
    f.engine.after(nanoseconds(10), [&] { first = f.net->solver_stats(); });
    f.engine.run();
    EXPECT_EQ(first.reallocations, 1u) << "direct=" << direct;
    EXPECT_EQ(first.component_size_log2[0], 0u) << "direct=" << direct;
    EXPECT_EQ(first.component_size_log2[1], 1u) << "direct=" << direct;
  }
}

TEST(NetworkComponents, StartsExtendAWholeSetOnlyWithFlowsThatJoinIt) {
  // 32 flows on the trunk are one whole-set subproblem. A start that shares
  // the trunk gives one 33-flow subproblem. A start on a direct link, beside
  // one on the trunk, gives two: the 33 trunk flows and the lone one.
  for (const bool congestion : {false, true}) {
    for (const bool disjoint : {false, true}) {
      SwitchFixture f(congestion);
      std::vector<FlowId> trunk_flows;
      for (int i = 0; i < 32; ++i) {
        trunk_flows.push_back(f.net->start_flow({{f.trunk}, 1_MiB, 0, 0}, nullptr));
      }
      net::SolverStats before, after;
      std::vector<Bandwidth> rates;
      f.engine.after(nanoseconds(10), [&] {
        before = f.net->solver_stats();
        if (disjoint) f.net->start_flow({{f.direct[0]}, 1_MiB, 0, 0}, nullptr);
        trunk_flows.push_back(f.net->start_flow({{f.trunk}, 1_MiB, 0, 0}, nullptr));
      });
      f.engine.after(nanoseconds(20), [&] {
        after = f.net->solver_stats();
        for (const FlowId id : trunk_flows) rates.push_back(f.net->flow_rate(id));
      });
      f.engine.run();
      SCOPED_TRACE(testing::Message() << "congestion=" << congestion << " disjoint=" << disjoint);
      for (const Bandwidth r : rates) EXPECT_DOUBLE_EQ(r, gbps(100) / 33);
      ASSERT_EQ(after.reallocations - before.reallocations, 1u);
      EXPECT_EQ(after.full_solves - before.full_solves, 1u);
      EXPECT_EQ(after.fallback_threshold - before.fallback_threshold, 1u);
      EXPECT_EQ(after.component_solves - before.component_solves, disjoint ? 2u : 1u);
      EXPECT_EQ(after.component_size_log2[0] - before.component_size_log2[0], disjoint ? 1u : 0u);
      EXPECT_EQ(after.component_size_log2[5] - before.component_size_log2[5], 1u);
    }
  }
}

TEST(NetworkComponents, AWholeSetThatDrainsAtOnceIsNotExtended) {
  // 32 equal trunk flows finish together and leave the network empty. The
  // 40 flows started later on a direct link are a fresh subproblem: each
  // gets a fortieth of the link, whatever the drained set looked like.
  SwitchFixture f(/*congestion=*/false);
  for (int i = 0; i < 32; ++i) f.net->start_flow({{f.trunk}, 1_MiB, 0, 0}, nullptr);
  // 32 MiB over 100 Gb/s take about 2.7 ms.
  std::vector<FlowId> later;
  std::size_t active_before = 0;
  f.engine.after(milliseconds(5), [&] {
    active_before = f.net->active_flows();
    for (int i = 0; i < 40; ++i) {
      later.push_back(f.net->start_flow({{f.direct[0]}, 1_MiB, 0, 0}, nullptr));
    }
  });
  std::vector<Bandwidth> rates;
  f.engine.after(milliseconds(5) + nanoseconds(10), [&] {
    for (const FlowId id : later) rates.push_back(f.net->flow_rate(id));
  });
  f.engine.run();
  EXPECT_EQ(active_before, 0u);
  ASSERT_EQ(rates.size(), 40u);
  for (const Bandwidth r : rates) EXPECT_DOUBLE_EQ(r, gbps(100) / 40);
}

TEST(NetworkComponents, CompletionsKeepAWholeSetOnlyWhileItStaysConnected) {
  // 18 trunk flows, and 16 flows from GPU 1 to GPU 0 of switch 1. A 1 KiB
  // trunk flow into GPU 0 ties the two groups together, and the partition
  // reaches the 16 through it. When it completes, a spare flow on the same
  // route keeps the set one component: 1 subproblem, every flow at a 17th
  // of 100 Gb/s. Without the spare, the set splits into the 17 trunk flows
  // and the 16: 2 subproblems. Under the congestion closure, switch 1 keeps
  // both groups together either way.
  for (const bool congestion : {false, true}) {
    for (const bool spare : {true, false}) {
      SwitchFixture f(congestion);
      const Route bridge{f.trunk, f.up[1][0] + 1};
      std::vector<FlowId> trunk_flows, group;
      for (int i = 0; i < 16; ++i) {
        trunk_flows.push_back(f.net->start_flow({{f.trunk}, 1_MiB, 0, 0}, nullptr));
      }
      const FlowId kept = f.net->start_flow({spare ? bridge : Route{f.trunk}, 1_MiB, 0, 0}, nullptr);
      f.net->start_flow({bridge, 1_KiB, 0, 0}, nullptr);
      for (int i = 0; i < 16; ++i) {
        group.push_back(f.net->start_flow({f.via_switch(1, 1, 0), 1_MiB, 0, 0}, nullptr));
      }
      net::SolverStats before, after;
      std::vector<Bandwidth> trunk_rates, group_rates;
      f.engine.after(nanoseconds(10), [&] { before = f.net->solver_stats(); });
      f.engine.after(microseconds(100), [&] {
        after = f.net->solver_stats();
        for (const FlowId id : trunk_flows) trunk_rates.push_back(f.net->flow_rate(id));
        trunk_rates.push_back(f.net->flow_rate(kept));
        for (const FlowId id : group) group_rates.push_back(f.net->flow_rate(id));
      });
      f.engine.run();
      SCOPED_TRACE(testing::Message() << "congestion=" << congestion << " spare=" << spare);
      ASSERT_EQ(after.reallocations - before.reallocations, 1u);
      EXPECT_EQ(after.full_solves - before.full_solves, 1u);
      EXPECT_EQ(after.component_solves - before.component_solves,
                !spare && !congestion ? 2u : 1u);
      for (const Bandwidth r : trunk_rates) EXPECT_DOUBLE_EQ(r, gbps(100) / 17);
      for (const Bandwidth r : group_rates) EXPECT_DOUBLE_EQ(r, gbps(100) / (spare ? 17 : 16));
    }
  }
}

TEST(NetworkComponents, AVacatedTrunkSplitsAWholeSetAtItsSwitches) {
  // Under the congestion closure, a 1 KiB trunk flow couples 16 flows
  // through switch 0 and 16 through switch 1 into one whole set, whose
  // root it is. When it completes, the root has left, and the flows on the
  // vacated trunk's switch lists seed two 16-flow subproblems: no whole set
  // is kept. Then the shortest flow through switch 0 completes, and the
  // seeded partition re-solves only the 15 flows of switch 0.
  SwitchFixture f(/*congestion=*/true);
  f.net->start_flow({{f.trunk}, 1_KiB, 0, 0}, nullptr);
  f.net->start_flow({f.via_switch(0, 0, 1), 512_KiB, 0, 0}, nullptr);
  std::vector<FlowId> left, right;
  for (int i = 0; i < 15; ++i) {
    left.push_back(f.net->start_flow({f.via_switch(0, 0, 1), 1_MiB, 0, 0}, nullptr));
  }
  for (int i = 0; i < 16; ++i) {
    right.push_back(f.net->start_flow({f.via_switch(1, 2, 3), 1_MiB, 0, 0}, nullptr));
  }
  // The trunk flow takes about 82 ns, the 512 KiB flow about 671 us.
  net::SolverStats first, split, after;
  std::vector<Bandwidth> left_rates, right_rates;
  f.engine.after(nanoseconds(10), [&] { first = f.net->solver_stats(); });
  f.engine.after(microseconds(1), [&] { split = f.net->solver_stats(); });
  f.engine.after(microseconds(1000), [&] {
    after = f.net->solver_stats();
    for (const FlowId id : left) left_rates.push_back(f.net->flow_rate(id));
    for (const FlowId id : right) right_rates.push_back(f.net->flow_rate(id));
  });
  f.engine.run();
  ASSERT_EQ(split.reallocations - first.reallocations, 1u);
  EXPECT_EQ(split.component_solves - first.component_solves, 2u);
  EXPECT_EQ(split.component_size_log2[4] - first.component_size_log2[4], 2u);
  ASSERT_EQ(after.reallocations - split.reallocations, 1u);
  EXPECT_EQ(after.incremental_events - split.incremental_events, 1u);
  EXPECT_EQ(after.component_solves - split.component_solves, 1u);
  EXPECT_EQ(after.component_size_log2[3] - split.component_size_log2[3], 1u);
  for (const Bandwidth r : left_rates) EXPECT_DOUBLE_EQ(r, gbps(100) / 15);
  for (const Bandwidth r : right_rates) EXPECT_DOUBLE_EQ(r, gbps(100) / 16);
}

TEST(NetworkComponents, AStartThatRecyclesACompletedFlowsSlotIsNoParent) {
  // One switch, links without latency, so a delivery callback runs in the
  // completion's event. 32 flows from GPU 0 to GPU 1, four from GPU 2 to
  // GPU 3, and a 1 KiB flow from GPU 0 to GPU 3 that ties the two groups
  // together; the partition reaches the four through it. Its delivery
  // starts a flow from GPU 0 to GPU 4, which takes over its slot. The four
  // must not take that flow for their parent: the set splits into the 33
  // flows through GPU 0 and the four, 2 subproblems.
  Graph g;
  const DeviceId sw = g.add_device({DeviceKind::kSwitch, -1, 0, "switch"});
  std::vector<LinkId> up;
  for (int k = 0; k < 5; ++k) {
    const DeviceId d = g.add_device({DeviceKind::kGpu, 0, k, "gpu"});
    up.push_back(g.add_duplex_link(d, sw, gbps(100), SimTime::zero(), LinkType::kNvLink));
  }
  Engine engine;
  Network net(engine, g);
  std::vector<FlowId> wide, narrow;
  for (int i = 0; i < 32; ++i) {
    wide.push_back(net.start_flow({{up[0], up[1] + 1}, 1_MiB, 0, 0}, nullptr));
  }
  for (int i = 0; i < 4; ++i) {
    narrow.push_back(net.start_flow({{up[2], up[3] + 1}, 1_MiB, 0, 0}, nullptr));
  }
  net.start_flow({{up[0], up[3] + 1}, 1_KiB, 0, 0}, [&](SimTime) {
    wide.push_back(net.start_flow({{up[0], up[4] + 1}, 1_MiB, 0, 0}, nullptr));
  });
  net::SolverStats before, after;
  std::vector<Bandwidth> wide_rates, narrow_rates;
  engine.after(nanoseconds(10), [&] { before = net.solver_stats(); });
  engine.after(microseconds(100), [&] {
    after = net.solver_stats();
    for (const FlowId id : wide) wide_rates.push_back(net.flow_rate(id));
    for (const FlowId id : narrow) narrow_rates.push_back(net.flow_rate(id));
  });
  engine.run();
  ASSERT_EQ(after.reallocations - before.reallocations, 1u);
  EXPECT_EQ(after.component_solves - before.component_solves, 2u);
  ASSERT_EQ(wide_rates.size(), 33u);
  for (const Bandwidth r : wide_rates) EXPECT_DOUBLE_EQ(r, gbps(100) / 33);
  for (const Bandwidth r : narrow_rates) EXPECT_DOUBLE_EQ(r, gbps(100) / 4);
}

// ---------------------------------------------------------------------------
// Congestion coupling. The differential suite compares two modes that share
// one congestion pass, so it cannot see which flows an incast degrades.

/// A SwitchFixture whose congestion coupling halves the rate of every flow
/// crossing a switch warmed by an incast: 4 flows from 4 distinct GPUs
/// saturating one (link, VL).
struct IncastFixture : SwitchFixture {
  IncastFixture() : SwitchFixture(/*congestion=*/false) {
    net->set_congestion({/*flow_threshold=*/4, /*rate_factor=*/0.5});
  }

  /// gpu (0, k) -> switch 0 -> trunk -> switch 1 -> gpu (1, 0).
  Route over_trunk(int k) const { return {up[0][k], trunk, up[1][0] + 1}; }

  /// Starts each (route, vl) flow at once and returns the rates of the
  /// first allocation.
  std::vector<Bandwidth> rates(const std::vector<std::pair<Route, int>>& flows) {
    std::vector<FlowId> ids;
    for (const auto& [route, vl] : flows) {
      ids.push_back(net->start_flow({route, 1_MiB, vl, 0}, nullptr));
    }
    std::vector<Bandwidth> out;
    engine.after(nanoseconds(10), [&] {
      for (const FlowId id : ids) out.push_back(net->flow_rate(id));
    });
    engine.run();
    return out;
  }
};

TEST(NetworkCongestion, IncastDegradesSameVlTrafficThroughItsSwitches) {
  // Four GPUs of switch 0 saturate the trunk on VL 0 at 25 Gb/s each. The
  // incast warms both switches on VL 0, so its own flows and a VL-0 victim
  // through switch 1 (on links no incast flow crosses) run at half rate; a
  // VL-1 victim through switch 1 does not.
  IncastFixture f;
  std::vector<std::pair<Route, int>> flows;
  for (int k = 0; k < 4; ++k) flows.emplace_back(f.over_trunk(k), 0);
  flows.emplace_back(f.via_switch(1, 1, 2), 0);
  flows.emplace_back(f.via_switch(1, 2, 3), 1);
  const std::vector<Bandwidth> rates = f.rates(flows);
  ASSERT_EQ(rates.size(), 6u);
  for (int k = 0; k < 4; ++k) EXPECT_DOUBLE_EQ(rates[k], gbps(25) * 0.5) << "incast " << k;
  EXPECT_DOUBLE_EQ(rates[4], gbps(100) * 0.5);
  EXPECT_DOUBLE_EQ(rates[5], gbps(100));
}

TEST(NetworkCongestion, FlowsCountPerLinkAndVl) {
  // Two VL-0 and two VL-1 flows from four GPUs saturate the trunk: neither
  // (trunk, VL) reaches four flows, so nothing is degraded.
  IncastFixture f;
  std::vector<std::pair<Route, int>> flows;
  for (int k = 0; k < 4; ++k) flows.emplace_back(f.over_trunk(k), k < 2 ? 0 : 1);
  flows.emplace_back(f.via_switch(1, 1, 2), 0);
  const std::vector<Bandwidth> rates = f.rates(flows);
  ASSERT_EQ(rates.size(), 5u);
  for (int k = 0; k < 4; ++k) EXPECT_DOUBLE_EQ(rates[k], gbps(25)) << "trunk flow " << k;
  EXPECT_DOUBLE_EQ(rates[4], gbps(100));
}

TEST(NetworkCongestion, OneSourceIsNoIncast) {
  // Four VL-0 flows saturate the trunk, but from one GPU: nothing is
  // degraded.
  IncastFixture f;
  std::vector<std::pair<Route, int>> flows(4, {f.over_trunk(0), 0});
  flows.emplace_back(f.via_switch(1, 1, 2), 0);
  const std::vector<Bandwidth> rates = f.rates(flows);
  ASSERT_EQ(rates.size(), 5u);
  for (int k = 0; k < 4; ++k) EXPECT_DOUBLE_EQ(rates[k], gbps(25)) << "trunk flow " << k;
  EXPECT_DOUBLE_EQ(rates[4], gbps(100));
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
