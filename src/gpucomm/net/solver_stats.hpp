// Observability for the incremental / partitioned network core.
//
// Every Network instance counts how its reallocation events were solved:
// full-resolve reference-mode events, full partitioned
// solves with the fallback reason that forced them, incremental solves that
// touched only the affected components, and the size distribution of the
// component subproblems actually handed to the fairshare solver. The counts
// surface in two places: `gpucomm_cli --counters` prints the owning
// cluster's stats after the telemetry report, and the serve `stats` control
// query reports the process-wide aggregate (every Network that died folded
// its counts into the global registry, so a server can account for cells
// and coupled runs long gone).
//
// The rate arithmetic is bit-identical in every mode; only these counters
// are allowed to differ (docs/PERFORMANCE.md).
#pragma once

#include <array>
#include <cstdint>
#include <mutex>

namespace gpucomm::net {

struct SolverStats {
  /// Reallocation events processed (coalesced start/completion batches,
  /// link-state flips, noise epochs).
  std::uint64_t reallocations = 0;
  /// Events solved in kFullResolve mode -- every component re-solved from
  /// scratch (the differential-suite reference path).
  std::uint64_t reference_solves = 0;
  /// Full partitioned solves in kIncremental mode (every component
  /// re-solved), i.e. the fallback count. fallback_* below splits it by
  /// cause and sums to this.
  std::uint64_t full_solves = 0;
  /// Events solved incrementally: only components containing an affected
  /// flow or link were re-solved.
  std::uint64_t incremental_events = 0;
  /// Events whose affected set was empty (e.g. the last flow of an isolated
  /// component completed): no solve at all, rates provably unchanged.
  std::uint64_t no_work_events = 0;
  /// Component subproblems handed to the fairshare solver (or served from
  /// the allocation cache).
  std::uint64_t component_solves = 0;
  /// Exact-compare allocation-cache hits/misses; only components under 32
  /// flows are looked up.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Counters of the removed structural cache keying and warm-start solving.
  /// Nothing writes them and merge() skips them, so they always read 0. They
  /// stay declared only because perfbench/main.cpp reads them, and the
  /// benchmark may only change in a change of its own.
  std::uint64_t cache_structural_hits = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_misses = 0;
  std::uint64_t warm_fallback_order = 0;
  std::uint64_t warm_fallback_tight = 0;
  std::uint64_t warm_fallback_progress = 0;
  // Why full solves happened (each full solve increments exactly one):
  std::uint64_t fallback_first = 0;       // no prior allocation state
  std::uint64_t fallback_link_state = 0;  // fault flip / degradation (routing)
  std::uint64_t fallback_noise = 0;       // noise-field version changed
  std::uint64_t fallback_config = 0;      // noise/fault/telemetry/congestion rewired
  std::uint64_t fallback_threshold = 0;   // affected set exceeded the fraction cap
  /// log2 histogram of solved component sizes in flows: bucket b counts
  /// components with 2^b <= flows < 2^(b+1); the last bucket is open-ended.
  std::array<std::uint64_t, 21> component_size_log2{};

  void merge(const SolverStats& other);
};

/// Process-wide accumulator. Networks fold their final counts in on
/// destruction; the serve `stats` control query snapshots the total (plus
/// any still-live networks' counts read directly by their owners). Thread-
/// safe: cells-mode workers destroy clusters concurrently.
class SolverStatsRegistry {
 public:
  static SolverStatsRegistry& global();
  void add(const SolverStats& stats);
  SolverStats snapshot() const;

 private:
  mutable std::mutex mu_;
  SolverStats total_;
};

}  // namespace gpucomm::net
