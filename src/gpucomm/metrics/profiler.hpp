// Critical-path attribution for scheduled collectives.
//
// ScheduleProfiler is a telemetry::Sink that records the executor's stage
// spans (sched_span), whole-operation spans (op_span), and per-flow
// lifecycles, then attributes each operation's end-to-end time exactly:
//
//  1. The operation window is partitioned into categories by the executor
//     spans that cover each instant (later rounds shadow earlier stages;
//     instants no stage covers are "software"). Category totals sum to the
//     operation duration to the picosecond, by construction.
//  2. Within each round (or windowed "stream") category, the critical
//     chain — the (src, dst) transfer whose retry chain delivers last — is
//     decomposed into serialization (ideal wire time), contention (the
//     fair-share squeeze, integrated from allocated vs. standalone rate),
//     propagation, fault-recovery backoff, and residual overhead (launch
//     stagger, queueing, stragglers). Components sum to the category total
//     exactly: overhead is the clamped residual.
//
// Hotspots aggregate the squeeze time of critical-chain flows by the
// bottleneck link the allocator attributed it to — the "top bottleneck
// links on the critical path" table of `gpucomm_cli --profile`.
//
// The profiler records every event it receives, so attach it only around
// the operations to attribute: `gpucomm_cli --profile` attaches it as the
// cluster's only sink for one unmeasured iteration per size, after the
// measured sweep (serve::CoupledRun::profile).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gpucomm/telemetry/sink.hpp"

namespace gpucomm::metrics {

class JsonWriter;

/// One partitioned category of an operation's timeline.
struct SpanProfile {
  std::string algorithm;  // empty for launch/software
  /// "launch", "round", "reduce", "stream", or "software" (residual).
  std::string kind;
  int round = -1;
  /// Time the partition assigned to this category.
  SimTime total;
  // Critical-chain components (round/stream categories; zero elsewhere).
  // serialization + contention + propagation + recovery + overhead == total.
  SimTime serialization;
  SimTime contention;
  SimTime propagation;
  SimTime recovery;
  SimTime overhead;
  /// Critical chain identity: the transfer that delivered last.
  int src = -1;
  int dst = -1;
  int attempts = 0;  // flows in the chain (1 = no retries); 0 = no chain
};

/// Contention a critical-chain flow suffered, blamed on one bottleneck link.
struct LinkHotspot {
  LinkId link = kInvalidLink;
  SimTime contention;
  std::uint64_t throttles = 0;
};

struct OpProfile {
  const char* mechanism = "";
  const char* op = "";
  Bytes bytes = 0;
  SimTime start;
  SimTime end;
  /// Categories in timeline order; "software" last. Totals sum to end-start.
  std::vector<SpanProfile> spans;
  /// Sorted by contention, descending.
  std::vector<LinkHotspot> hotspots;
  SimTime duration() const { return end - start; }
};

class ScheduleProfiler final : public telemetry::Sink {
 public:
  ScheduleProfiler() = default;

  // Sink interface.
  void flow_issued(telemetry::FlowToken token, const telemetry::FlowTag& tag, Bytes bytes,
                   SimTime now) override;
  void flow_started(telemetry::FlowToken token, const telemetry::FlowTag& tag,
                    const Route& route, int vl, Bytes bytes, SimTime now) override;
  void flow_rate(telemetry::FlowToken token, const Route& route, Bandwidth rate,
                 Bandwidth standalone, SimTime now) override;
  void flow_throttled(telemetry::FlowToken token, LinkId bottleneck, SimTime now) override;
  void flow_completed(telemetry::FlowToken token, const Route& route, Bytes bytes,
                      SimTime serialized, SimTime delivered) override;
  void flow_interrupted(telemetry::FlowToken token, const Route& route, Bytes serialized,
                        SimTime now) override;
  void sched_span(const char* mechanism, const char* algorithm, const char* kind, int round,
                  SimTime start, SimTime end) override;
  void op_span(const char* mechanism, const char* op, Bytes bytes, SimTime start,
               SimTime end) override;

  /// Attribute every recorded operation (one OpProfile per op_span).
  std::vector<OpProfile> build() const;

  /// Emit build() as a JSON array into an open writer.
  void write_json(JsonWriter& w) const;

 private:
  struct FlowRec {
    telemetry::FlowTag tag;
    SimTime issued;
    SimTime started = SimTime::infinity();
    SimTime serialized = SimTime::infinity();
    SimTime delivered = SimTime::infinity();
    SimTime interrupted_at = SimTime::infinity();
    bool completed = false;
    bool interrupted = false;
    /// Integral of (1 - rate/standalone) over the serialization interval.
    double squeeze_secs = 0;
    std::uint64_t throttle_events = 0;
    /// Squeeze seconds blamed per bottleneck link (allocator attribution).
    std::map<LinkId, double> squeeze_by_link;
    std::map<LinkId, std::uint64_t> throttles_by_link;
    // Live integration state.
    Bandwidth rate = 0;
    Bandwidth standalone = 0;
    SimTime last;
    LinkId bottleneck = kInvalidLink;
  };
  struct SpanRec {
    const char* mechanism = "";
    const char* algorithm = "";
    const char* kind = "";
    int round = -1;
    SimTime start, end;
  };
  struct OpRec {
    const char* mechanism = "";
    const char* op = "";
    Bytes bytes = 0;
    SimTime start, end;
  };

  FlowRec& rec(telemetry::FlowToken token);
  void integrate(FlowRec& r, SimTime now);

  // Keyed (not dense) so a profiler attached late in a long run allocates
  // records only for the tokens it sees, not for every earlier token.
  std::map<telemetry::FlowToken, FlowRec> flows_;
  std::vector<SpanRec> spans_;
  std::vector<OpRec> ops_;
};

}  // namespace gpucomm::metrics
