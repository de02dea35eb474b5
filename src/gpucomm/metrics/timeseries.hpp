// Time-series sampling of per-link network state into fixed buckets of
// simulated time.
//
// TimeSeries is a telemetry::Sink that integrates each flow's allocated
// rate (and its standalone, uncontended rate) over time, exactly the way
// CounterSet does, but splits the integral across fixed-width buckets so a
// run can be inspected as a timeline: per-link throughput, demand pressure
// (sum of standalone rates — what the flows would take if the link were
// private), peak concurrent flows, and throttle/saturation event counts
// per bucket. Conservation holds by construction: the sum of a link's
// bucket bits equals CounterSet's time-integrated bits for the same run
// (up to floating-point re-association across bucket splits).
//
// Rendering: render_heatmap() draws a links x buckets utilization map with
// a " .:-=+*#%@" intensity ramp; write_csv()/write_json() export the raw
// buckets for offline analysis.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <vector>

#include "gpucomm/telemetry/sink.hpp"

namespace gpucomm::metrics {

class JsonWriter;

class TimeSeries final : public telemetry::Sink {
 public:
  /// Samples against `graph` (capacities/labels) with `bucket` wide bins.
  TimeSeries(const Graph& graph, SimTime bucket);

  // Sink interface.
  void flow_started(telemetry::FlowToken token, const telemetry::FlowTag& tag,
                    const Route& route, int vl, Bytes bytes, SimTime now) override;
  void flow_rate(telemetry::FlowToken token, const Route& route, Bandwidth rate,
                 Bandwidth standalone, SimTime now) override;
  void flow_throttled(telemetry::FlowToken token, LinkId bottleneck, SimTime now) override;
  void flow_completed(telemetry::FlowToken token, const Route& route, Bytes bytes,
                      SimTime serialized, SimTime delivered) override;
  void link_saturated(LinkId link, int flows, SimTime now) override;
  void flow_interrupted(telemetry::FlowToken token, const Route& route, Bytes serialized,
                        SimTime now) override;

  /// Close the integration of still-open flows at `now` (idempotent).
  void finalize(SimTime now);

  /// One fixed-width bin of one link's timeline.
  struct Bucket {
    /// Integral of allocated rate over the bin (bits serialized here).
    double bits = 0;
    /// Integral of the flows' standalone rates: demand_bits > bits means
    /// fair sharing squeezed the link's flows somewhere on their routes.
    double demand_bits = 0;
    int peak_active = 0;
    std::uint64_t throttles = 0;
    std::uint64_t saturations = 0;
  };

  /// Number of buckets covering [0, last event seen).
  std::size_t bucket_count() const;
  /// Buckets of one link, possibly shorter than bucket_count() (a link's
  /// vector only grows while it carries traffic).
  const std::vector<Bucket>& link_buckets(LinkId link) const { return links_[link]; }
  /// Sum of the link's bucket bits (conservation-law left side).
  double link_bits(LinkId link) const;

  /// links x buckets utilization heatmap (top `max_links` by total bits).
  void render_heatmap(std::ostream& os, int max_links = 16) const;
  /// One CSV row per non-empty bucket:
  /// link,src,dst,bucket,start_us,bits,util,demand_ratio,peak_active,
  /// throttles,saturations.
  void write_csv(std::ostream& os) const;
  /// Emit the series as a JSON value (object) into an open writer.
  void write_json(JsonWriter& w) const;

 private:
  struct FlowState {
    Route route;
    Bandwidth rate = 0;
    Bandwidth standalone = 0;
    int vl = 0;
    SimTime last;
  };

  Bucket& bucket(LinkId link, std::size_t index);
  /// Integrate the flow's current rate into bucketed bins up to `now`.
  void integrate(FlowState& st, SimTime now);
  void close_flow(telemetry::FlowToken token, SimTime now);
  void touch_active(const Route& route, SimTime now);

  const Graph& graph_;
  SimTime width_;
  std::vector<std::vector<Bucket>> links_;  // [link][bucket]
  std::vector<int> active_;                 // current flows per link
  // Ordered so finalize() walks flows in token order: bucket sums then
  // accumulate in a deterministic order and exports are byte-stable.
  std::map<telemetry::FlowToken, FlowState> in_flight_;
  SimTime end_;
};

}  // namespace gpucomm::metrics
