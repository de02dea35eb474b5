#include "gpucomm/noise/noise_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace gpucomm {

namespace {
// util_ of a noisy link whose value the coin pass has not drawn yet.
constexpr double kHotPending = -1.0;
constexpr double kCalmPending = -2.0;
}  // namespace

ProductionNoise::ProductionNoise(const Graph& graph, NoiseParams params, Rng rng)
    : params_(params), rng_(rng), epoch_start_(rng) {
  const std::size_t links = graph.link_count();
  class_.resize(links);
  for (LinkId l = 0; l < links; ++l) {
    // Only shared fabric links carry other jobs' traffic; edge (NIC) links
    // are dedicated to the measured job's nodes.
    switch (graph.link(l).type) {
      case LinkType::kGlobal:
        class_[l] = LinkClass::kGlobal;
        break;
      case LinkType::kLeafSpine:
      case LinkType::kIntraGroup:
        class_[l] = LinkClass::kLocal;
        break;
      default:
        class_[l] = LinkClass::kQuiet;
    }
  }
  offset_.assign(links, 0);
  util_.assign(links, 0.0);
  // Settled now, so that set-up rather than the first read pays for the
  // first epoch.
  resample();
  settle();
}

void ProductionNoise::resample() {
  if (!params_.production_noise) return;  // utilization stays 0: same version
  ++version_;
  ++unsettled_;
}

void ProductionNoise::settle() const {
  for (; unsettled_ > 0; --unsettled_) coin_pass();
}

void ProductionNoise::coin_pass() const {
  epoch_start_ = rng_;
  // Per noisy link the stream holds a hot/calm coin (when hot_prob > 0),
  // then the value: one uniform when hot, a lognormal (two uniforms) when
  // calm, nothing when the calm mean is 0. Draw the coin, skip the value.
  std::uint32_t pos = 0;
  for (LinkId l = 0; l < class_.size(); ++l) {
    if (class_[l] == LinkClass::kQuiet) continue;
    const bool global = class_[l] == LinkClass::kGlobal;
    const double mean = global ? params_.mean_global_util : params_.mean_local_util;
    const double hot_prob = global ? params_.hot_prob_global : params_.hot_prob_local;
    bool hot = false;
    if (hot_prob > 0) {
      hot = rng_.bernoulli(hot_prob);
      ++pos;
    }
    offset_[l] = pos;
    std::uint32_t values = 0;
    if (hot) {
      util_[l] = kHotPending;
      values = 1;
    } else if (mean > 0) {
      util_[l] = kCalmPending;
      values = 2;
    } else {
      util_[l] = 0;
    }
    rng_.discard(values);
    pos += values;
  }
}

double ProductionNoise::utilization(LinkId link) const {
  if (class_[link] == LinkClass::kQuiet) return 0.0;
  if (unsettled_ != 0) settle();
  const double memo = util_[link];
  if (memo >= 0) return memo;
  const bool global = class_[link] == LinkClass::kGlobal;
  Rng rng = epoch_start_;
  rng.discard(offset_[link]);
  double u;
  if (memo == kHotPending) {
    // A bursty production job is riding this link right now. Intra-group
    // (leaf-spine) links see milder bursts than the thin global links.
    u = global ? rng.uniform(params_.hot_util_min, params_.hot_util_max)
               : rng.uniform(0.5 * params_.hot_util_min, 0.65 * params_.hot_util_max);
  } else {
    // Calm state: lognormal with the requested mean (mu = ln(mean) - s^2/2).
    const double mean = global ? params_.mean_global_util : params_.mean_local_util;
    const double sigma = params_.util_sigma;
    const double mu = std::log(mean) - 0.5 * sigma * sigma;
    u = std::clamp(rng.lognormal(mu, sigma), 0.0, 0.9);
  }
  util_[link] = u;
  return u;
}

double ProductionNoise::background_utilization(LinkId link) const { return utilization(link); }

SimTime ProductionNoise::queueing_delay(LinkId link) {
  const double u = utilization(link);
  if (u <= 0 || params_.delay_median_us <= 0) return SimTime::zero();
  // Body: lognormal around the calibrated median, scaled by how loaded this
  // link currently is relative to the mean global load.
  const double scale = std::min(3.0, u / std::max(params_.mean_global_util, 1e-6));
  const double median_us = params_.delay_median_us * scale;
  double delay_us = rng_.lognormal(std::log(median_us), params_.delay_sigma);
  // Tail: rare deep-queue events (incasts elsewhere in the fabric).
  if (params_.tail_probability > 0 && rng_.bernoulli(params_.tail_probability)) {
    delay_us += rng_.bounded_pareto(1.0, params_.tail_max_us, 1.2);
  }
  delay_us = std::min(delay_us, params_.tail_max_us);
  return microseconds(delay_us);
}

double ProductionNoise::mean_utilization() const {
  double total = 0;
  std::size_t count = 0;
  for (LinkId l = 0; l < class_.size(); ++l) {
    if (class_[l] != LinkClass::kQuiet) {
      total += utilization(l);
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / count;
}

}  // namespace gpucomm
