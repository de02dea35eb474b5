// Latency histograms for the scenario server, always on.
//
// One metrics::Log2Histogram per (lane, stage), where a lane is a worker
// thread or the transport thread, each lane guarded by its own mutex that
// only a `stats`/`metrics` reader merging at read time ever contends.
// Log2Histogram's exact merge makes the merged quantiles invariant under
// worker count. Recording never touches response rendering, so responses
// stay byte-identical; the histograms surface only through the `stats` and
// `metrics` control queries (load-dependent by design) and ServeResult.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "gpucomm/metrics/histogram.hpp"

namespace gpucomm::serve {

/// Latency stages tracked per lane. kQueueWait is admission -> dequeue,
/// kParse is request-line parsing on the transport lane, kRun/kRender split
/// run_scenario from response assembly, kE2e is admission -> response handed
/// to the ordered writer (so its count equals answered scenario queries,
/// also at a stats barrier — shed and control lines never reach it).
enum class Stage { kQueueWait = 0, kParse, kRun, kRender, kE2e };
inline constexpr int kStageCount = 5;
const char* stage_name(Stage s);

/// Merged latency snapshot surfaced through ServeResult and `stats`.
/// Quantiles are microseconds (recorded internally in nanoseconds).
struct LatencyStats {
  struct StageStats {
    std::uint64_t count = 0;
    double p50_us = 0.0;
    double p90_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;
  };
  StageStats stage[kStageCount];
};

class LatencyHistograms {
 public:
  /// `lanes` = worker-pool size + 1; lane `lanes - 1` is the transport
  /// thread (also the inline-execution lane when there is no pool).
  explicit LatencyHistograms(int lanes);

  int transport_lane() const { return static_cast<int>(lanes_.size()) - 1; }

  void record(int lane, Stage stage, std::uint64_t ns);
  metrics::Log2Histogram merged(Stage stage) const;
  LatencyStats snapshot() const;

 private:
  struct Lane {
    mutable std::mutex mu;
    metrics::Log2Histogram h[kStageCount];
  };
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace gpucomm::serve
