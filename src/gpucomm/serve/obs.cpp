#include "gpucomm/serve/obs.hpp"

#include <algorithm>

namespace gpucomm::serve {

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kParse: return "parse";
    case Stage::kRun: return "run";
    case Stage::kRender: return "render";
    case Stage::kE2e: return "e2e";
  }
  return "?";
}

LatencyHistograms::LatencyHistograms(int lanes) {
  for (int i = 0; i < std::max(1, lanes); ++i) lanes_.push_back(std::make_unique<Lane>());
}

void LatencyHistograms::record(int lane, Stage stage, std::uint64_t ns) {
  Lane& l = *lanes_[static_cast<std::size_t>(lane)];
  const std::lock_guard<std::mutex> lock(l.mu);
  l.h[static_cast<int>(stage)].record(ns);
}

metrics::Log2Histogram LatencyHistograms::merged(Stage stage) const {
  metrics::Log2Histogram out;
  for (const auto& l : lanes_) {
    const std::lock_guard<std::mutex> lock(l->mu);
    out.merge(l->h[static_cast<int>(stage)]);
  }
  return out;
}

LatencyStats LatencyHistograms::snapshot() const {
  LatencyStats out;
  for (int s = 0; s < kStageCount; ++s) {
    const metrics::Log2Histogram h = merged(static_cast<Stage>(s));
    auto& st = out.stage[s];
    st.count = h.count();
    st.p50_us = h.quantile(0.5) / 1000.0;
    st.p90_us = h.quantile(0.9) / 1000.0;
    st.p99_us = h.quantile(0.99) / 1000.0;
    st.max_us = static_cast<double>(h.max()) / 1000.0;
  }
  return out;
}

}  // namespace gpucomm::serve
