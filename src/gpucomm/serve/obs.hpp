// Latency histograms for the scenario server, always on.
//
// One metrics::Log2Histogram per stage behind one mutex, shared by the
// transport thread and every worker. Recording never touches response
// rendering, so responses stay byte-identical; the histograms surface only
// through the `stats` and `metrics` control queries (load-dependent by
// design), ServeResult, and the overload shed's retry_after_ms hint
// (serve/core.hpp).
#pragma once

#include <cstdint>
#include <mutex>

#include "gpucomm/metrics/histogram.hpp"

namespace gpucomm::serve {

/// Latency stages. kQueueWait is admission -> dequeue, kParse is
/// request-line parsing on the transport thread, kRun/kRender split
/// run_scenario from response assembly, kE2e is admission -> response handed
/// to the ordered writer (so its count equals answered scenario queries,
/// also at a stats barrier — shed and control lines never reach it).
enum class Stage { kQueueWait = 0, kParse, kRun, kRender, kE2e };
inline constexpr int kStageCount = 5;
const char* stage_name(Stage s);

/// Latency snapshot surfaced through ServeResult and `stats`.
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
  void record(Stage stage, std::uint64_t ns);
  /// A copy of one stage's histogram.
  metrics::Log2Histogram histogram(Stage stage) const;
  LatencyStats snapshot() const;

 private:
  mutable std::mutex mu_;
  metrics::Log2Histogram h_[kStageCount];
};

}  // namespace gpucomm::serve
