#include "gpucomm/net/solver_stats.hpp"

namespace gpucomm::net {

void SolverStats::merge(const SolverStats& other) {
  reallocations += other.reallocations;
  reference_solves += other.reference_solves;
  full_solves += other.full_solves;
  incremental_events += other.incremental_events;
  no_work_events += other.no_work_events;
  component_solves += other.component_solves;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  fallback_first += other.fallback_first;
  fallback_link_state += other.fallback_link_state;
  fallback_noise += other.fallback_noise;
  fallback_config += other.fallback_config;
  fallback_threshold += other.fallback_threshold;
  for (std::size_t b = 0; b < component_size_log2.size(); ++b) {
    component_size_log2[b] += other.component_size_log2[b];
  }
}

SolverStatsRegistry& SolverStatsRegistry::global() {
  static SolverStatsRegistry registry;
  return registry;
}

void SolverStatsRegistry::add(const SolverStats& stats) {
  const std::scoped_lock lock(mu_);
  total_.merge(stats);
}

SolverStats SolverStatsRegistry::snapshot() const {
  const std::scoped_lock lock(mu_);
  return total_;
}

}  // namespace gpucomm::net
