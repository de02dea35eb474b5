// Production-noise field behaviour (Sec. VI).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <optional>
#include <vector>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/noise/noise_model.hpp"
#include "gpucomm/systems/registry.hpp"

namespace gpucomm {
namespace {

struct Fixture {
  SystemConfig cfg = leonardo_config();
  Cluster cluster{cfg, {.nodes = 4, .placement = Placement::kScatterGroups}};
  ProductionNoise* noise() {
    return dynamic_cast<ProductionNoise*>(cluster.noise_field());
  }
};

TEST(NoiseTest, FieldExistsOnLeonardo) {
  Fixture f;
  ASSERT_NE(f.noise(), nullptr);
  EXPECT_EQ(f.noise()->noisy_vl(), 0);
}

TEST(NoiseTest, OnlyFabricLinksCarryBackground) {
  Fixture f;
  const Graph& g = f.cluster.graph();
  for (LinkId l = 0; l < g.link_count(); ++l) {
    const LinkType t = g.link(l).type;
    const bool fabric =
        t == LinkType::kGlobal || t == LinkType::kLeafSpine || t == LinkType::kIntraGroup;
    if (!fabric) {
      EXPECT_EQ(f.noise()->background_utilization(l), 0.0);
    }
  }
}

TEST(NoiseTest, UtilizationBounded) {
  Fixture f;
  for (int iter = 0; iter < 20; ++iter) {
    f.noise()->resample();
    const Graph& g = f.cluster.graph();
    for (LinkId l = 0; l < g.link_count(); ++l) {
      const double u = f.noise()->background_utilization(l);
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 0.9);
    }
  }
}

TEST(NoiseTest, ResampleChangesTheField) {
  Fixture f;
  const double before = f.noise()->mean_utilization();
  double changed = 0;
  for (int i = 0; i < 5; ++i) {
    f.noise()->resample();
    changed += std::abs(f.noise()->mean_utilization() - before);
  }
  EXPECT_GT(changed, 0.0);
}

TEST(NoiseTest, MeanUtilizationInCalibratedBand) {
  // With the hotspot process, global links average well above the calm mean.
  Fixture f;
  double total = 0;
  const int iters = 50;
  for (int i = 0; i < iters; ++i) {
    f.noise()->resample();
    total += f.noise()->mean_utilization();
  }
  const double mean = total / iters;
  EXPECT_GT(mean, 0.10);
  EXPECT_LT(mean, 0.50);
}

TEST(NoiseTest, QueueingDelayOnlyOnLoadedLinks) {
  Fixture f;
  const Graph& g = f.cluster.graph();
  f.noise()->resample();
  for (LinkId l = 0; l < g.link_count(); ++l) {
    if (f.noise()->background_utilization(l) == 0.0) {
      EXPECT_EQ(f.noise()->queueing_delay(l), SimTime::zero());
    }
  }
}

TEST(NoiseTest, QueueingDelayHasHeavyTail) {
  Fixture f;
  const Graph& g = f.cluster.graph();
  // Find a loaded global link.
  f.noise()->resample();
  LinkId loaded = kInvalidLink;
  for (LinkId l = 0; l < g.link_count(); ++l) {
    if (g.link(l).type == LinkType::kGlobal && f.noise()->background_utilization(l) > 0.3) {
      loaded = l;
      break;
    }
  }
  ASSERT_NE(loaded, kInvalidLink);
  double max_us = 0, sum = 0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const double d = f.noise()->queueing_delay(loaded).micros();
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 45.0 + 1e-9);  // per-hop cap (132 us over a 3-hop path)
    max_us = std::max(max_us, d);
    sum += d;
  }
  EXPECT_GT(max_us, 8.0 * (sum / n));  // heavy tail: max >> mean
}

TEST(NoiseTest, DeterministicUnderSeed) {
  SystemConfig cfg = leonardo_config();
  auto sample = [&cfg] {
    Cluster c(cfg, {.nodes = 2});
    auto* noise = dynamic_cast<ProductionNoise*>(c.noise_field());
    std::vector<double> out;
    for (int i = 0; i < 3; ++i) {
      noise->resample();
      out.push_back(noise->mean_utilization());
    }
    return out;
  };
  EXPECT_EQ(sample(), sample());
}

TEST(NoiseTest, FullFieldIsDeterministicAcrossResamples) {
  // Stronger than the mean check above: the entire per-link utilization
  // field, sampled over several resample() rounds, is reproducible from the
  // seed — the property fault-injection replay relies on.
  SystemConfig cfg = leonardo_config();
  auto sample = [&cfg] {
    Cluster c(cfg, {.nodes = 2});
    auto* noise = dynamic_cast<ProductionNoise*>(c.noise_field());
    std::vector<double> out;
    for (int round = 0; round < 4; ++round) {
      noise->resample();
      for (LinkId l = 0; l < c.graph().link_count(); ++l) {
        out.push_back(noise->background_utilization(l));
      }
    }
    return out;
  };
  EXPECT_EQ(sample(), sample());
}

TEST(NoiseTest, DisabledParamsProduceSilence) {
  // Alps' config has production noise off: a hand-built field stays at zero.
  Graph g;
  const DeviceId a = g.add_device({DeviceKind::kSwitch, -1, 0, "a"});
  const DeviceId b = g.add_device({DeviceKind::kSwitch, -1, 1, "b"});
  const LinkId l = g.add_duplex_link(a, b, gbps(200), nanoseconds(100), LinkType::kGlobal);
  ProductionNoise noise(g, alps_config().noise, Rng(1));
  noise.resample();
  EXPECT_EQ(noise.background_utilization(l), 0.0);
  EXPECT_EQ(noise.queueing_delay(l), SimTime::zero());
}

// The reference field: resample() draws every noisy link's value eagerly,
// in link order, and reads are plain array loads. ProductionNoise must
// produce the same bits and advance the shared stream the same way.
class EagerNoise {
 public:
  EagerNoise(const Graph& graph, NoiseParams params, Rng rng)
      : graph_(graph), params_(params), rng_(rng) {
    util_.assign(graph_.link_count(), 0.0);
    resample();
  }

  void resample() {
    if (!params_.production_noise) return;
    ++version_;
    for (LinkId l = 0; l < util_.size(); ++l) {
      const LinkType t = graph_.link(l).type;
      if (t != LinkType::kGlobal && t != LinkType::kLeafSpine && t != LinkType::kIntraGroup)
        continue;
      const bool global = t == LinkType::kGlobal;
      const double mean = global ? params_.mean_global_util : params_.mean_local_util;
      const double hot_prob = global ? params_.hot_prob_global : params_.hot_prob_local;
      if (hot_prob > 0 && rng_.bernoulli(hot_prob)) {
        if (global) {
          util_[l] = rng_.uniform(params_.hot_util_min, params_.hot_util_max);
        } else {
          util_[l] = rng_.uniform(0.5 * params_.hot_util_min, 0.65 * params_.hot_util_max);
        }
        continue;
      }
      if (mean <= 0) {
        util_[l] = 0;
        continue;
      }
      const double sigma = params_.util_sigma;
      const double mu = std::log(mean) - 0.5 * sigma * sigma;
      util_[l] = std::clamp(rng_.lognormal(mu, sigma), 0.0, 0.9);
    }
  }

  double background_utilization(LinkId link) const { return util_[link]; }

  SimTime queueing_delay(LinkId link) {
    const double u = util_[link];
    if (u <= 0 || params_.delay_median_us <= 0) return SimTime::zero();
    const double scale = std::min(3.0, u / std::max(params_.mean_global_util, 1e-6));
    const double median_us = params_.delay_median_us * scale;
    double delay_us = rng_.lognormal(std::log(median_us), params_.delay_sigma);
    if (params_.tail_probability > 0 && rng_.bernoulli(params_.tail_probability)) {
      delay_us += rng_.bounded_pareto(1.0, params_.tail_max_us, 1.2);
    }
    delay_us = std::min(delay_us, params_.tail_max_us);
    return microseconds(delay_us);
  }

  std::uint64_t version() const { return version_; }

 private:
  const Graph& graph_;
  NoiseParams params_;
  Rng rng_;
  std::vector<double> util_;
  std::uint64_t version_ = 1;
};

enum class ReadPattern { kFull, kSparseShuffled, kInterleavedDelays, kUnreadEpochs };

/// How each epoch is read under `pattern`; nullopt leaves it unread. The
/// first three read 24 epochs alike. kUnreadEpochs leaves runs of 1, 2 and 5
/// epochs unread and reads the epoch after each run fully, sparsely or with
/// interleaved delays, so several deferred coin passes settle at once.
std::vector<std::optional<ReadPattern>> epoch_reads(ReadPattern pattern) {
  if (pattern != ReadPattern::kUnreadEpochs) {
    return std::vector<std::optional<ReadPattern>>(24, pattern);
  }
  std::vector<std::optional<ReadPattern>> reads{ReadPattern::kFull};
  for (const int unread : {1, 2, 5}) {
    for (const ReadPattern read :
         {ReadPattern::kFull, ReadPattern::kSparseShuffled, ReadPattern::kInterleavedDelays}) {
      reads.insert(reads.end(), unread, std::nullopt);
      reads.push_back(read);
    }
  }
  return reads;
}

/// Runs ProductionNoise and the eager oracle side by side, one resample per
/// epoch, reading each epoch's field as `pattern` says, and requires
/// bit-equal answers and equal versions.
void expect_matches_eager(const NoiseParams& params, ReadPattern pattern) {
  const Cluster cluster(leonardo_config(), {.nodes = 4, .placement = Placement::kScatterGroups});
  const Graph& g = cluster.graph();
  ProductionNoise lazy(g, params, Rng(99));
  EagerNoise eager(g, params, Rng(99));
  std::vector<LinkId> links(g.link_count());
  std::iota(links.begin(), links.end(), LinkId{0});
  Rng order(5);
  std::uint64_t nonzero = 0;
  const std::vector<std::optional<ReadPattern>> reads = epoch_reads(pattern);
  for (std::size_t epoch = 0; epoch < reads.size(); ++epoch) {
    if (epoch > 0) {
      lazy.resample();
      eager.resample();
    }
    ASSERT_EQ(lazy.version(), eager.version());
    if (!reads[epoch]) continue;
    const ReadPattern read = *reads[epoch];
    // Sparse reads touch one link in 50, in random order.
    order.shuffle(links);
    const std::size_t count = read == ReadPattern::kFull ? links.size() : links.size() / 50;
    for (std::size_t i = 0; i < count; ++i) {
      const LinkId l = read == ReadPattern::kFull ? static_cast<LinkId>(i) : links[i];
      const double want = eager.background_utilization(l);
      // The second read is served from the memo.
      for (int again = 0; again < 2; ++again) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(lazy.background_utilization(l)),
                  std::bit_cast<std::uint64_t>(want))
            << "link " << l << " epoch " << epoch;
      }
      if (want != 0) ++nonzero;
      // Queueing delays draw from the shared stream mid-epoch.
      if (read == ReadPattern::kInterleavedDelays && i % 3 == 0) {
        const LinkId d = links[links.size() - 1 - i];
        ASSERT_EQ(lazy.queueing_delay(d).ps, eager.queueing_delay(d).ps)
            << "link " << d << " epoch " << epoch;
      }
    }
  }
  EXPECT_GT(nonzero, 100u);
}

TEST(NoiseOracle, FullReadsMatchEagerField) {
  expect_matches_eager(leonardo_config().noise, ReadPattern::kFull);
}

TEST(NoiseOracle, SparseShuffledReadsMatchEagerField) {
  expect_matches_eager(leonardo_config().noise, ReadPattern::kSparseShuffled);
}

TEST(NoiseOracle, ReadsInterleavedWithDelaysMatchEagerField) {
  expect_matches_eager(leonardo_config().noise, ReadPattern::kInterleavedDelays);
}

TEST(NoiseOracle, ReadsAfterUnreadEpochsMatchEagerField) {
  // An unread epoch leaves its coin pass deferred: the next noisy read must
  // run every deferred pass, oldest first, or the stream falls behind.
  expect_matches_eager(leonardo_config().noise, ReadPattern::kUnreadEpochs);
}

TEST(NoiseOracle, CoinlessAndZeroMeanLinksMatchEagerField) {
  // No coin on global links, no calm draw on local ones: the stream skips
  // differ per link type.
  NoiseParams params = leonardo_config().noise;
  params.hot_prob_global = 0;
  params.mean_local_util = 0;
  expect_matches_eager(params, ReadPattern::kFull);
  expect_matches_eager(params, ReadPattern::kInterleavedDelays);
  expect_matches_eager(params, ReadPattern::kUnreadEpochs);
}

}  // namespace
}  // namespace gpucomm
