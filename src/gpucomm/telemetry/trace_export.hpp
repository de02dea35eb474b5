// Flow-lifecycle recorder with Chrome-trace/Perfetto JSON export.
//
// TraceRecorder captures every issue -> queue -> transfer-start ->
// completion transition (plus local copies and whole-operation spans) and
// write_chrome_trace() renders them as a `traceEvents` array of "X"
// (complete) events: one process per rank, one thread track per flow, so
// the queue span and the serialization span of a flow nest on one track
// and concurrent flows never overlap. Load the file in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "gpucomm/telemetry/sink.hpp"

namespace gpucomm::telemetry {

class TraceRecorder final : public Sink {
 public:
  /// `graph` (optional) enables human-readable route strings in event args.
  explicit TraceRecorder(const Graph* graph = nullptr) : graph_(graph) {}

  // Sink interface.
  void flow_issued(FlowToken token, const FlowTag& tag, Bytes bytes, SimTime now) override;
  void flow_started(FlowToken token, const FlowTag& tag, const Route& route, int vl,
                    Bytes bytes, SimTime now) override;
  void flow_rate(FlowToken token, const Route& route, Bandwidth rate, Bandwidth standalone,
                 SimTime now) override;
  void flow_throttled(FlowToken token, LinkId bottleneck, SimTime now) override;
  void flow_completed(FlowToken token, const Route& route, Bytes bytes, SimTime serialized,
                      SimTime delivered) override;
  void local_op(const FlowTag& tag, Bytes bytes, SimTime start, SimTime end) override;
  void op_span(const char* mechanism, const char* op, Bytes bytes, SimTime start,
               SimTime end) override;
  void link_state(LinkId link, bool up, const char* cause, SimTime now) override;
  void flow_interrupted(FlowToken token, const Route& route, Bytes serialized,
                        SimTime now) override;

  /// One recorded flow's full lifecycle (test/analysis hook).
  struct FlowRecord {
    FlowTag tag;
    Bytes bytes = 0;
    Route route;
    int vl = 0;
    SimTime issued;
    SimTime started = SimTime::infinity();    // infinity until flow_started
    SimTime serialized = SimTime::infinity();
    SimTime delivered = SimTime::infinity();
    Bandwidth last_rate = 0;
    int throttle_events = 0;
    bool completed = false;
    /// A fault killed the flow mid-serialization; `partial_bytes` were on
    /// the wire at `interrupted_at`. Mutually exclusive with `completed`.
    bool interrupted = false;
    Bytes partial_bytes = 0;
    SimTime interrupted_at = SimTime::infinity();
  };
  struct LocalRecord {
    FlowTag tag;
    Bytes bytes = 0;
    SimTime start, end;
  };
  struct OpRecord {
    const char* mechanism = "";
    const char* op = "";
    Bytes bytes = 0;
    SimTime start, end;
  };
  /// One link availability transition driven by the fault model.
  struct FaultRecord {
    LinkId link = kInvalidLink;
    bool up = false;
    const char* cause = "";
    SimTime at;
  };

  const std::vector<FlowRecord>& flows() const { return flows_; }
  const std::vector<LocalRecord>& local_ops() const { return local_ops_; }
  const std::vector<OpRecord>& ops() const { return ops_; }
  const std::vector<FaultRecord>& faults() const { return faults_; }
  const Graph* graph() const { return graph_; }

 private:
  FlowRecord& record(FlowToken token);

  const Graph* graph_;
  std::vector<FlowRecord> flows_;  // index = token - 1 (tokens are dense)
  std::vector<LocalRecord> local_ops_;
  std::vector<OpRecord> ops_;
  std::vector<FaultRecord> faults_;
};

/// Emit the recorder's contents as Chrome-trace JSON ({"traceEvents": [...]})
/// with "X" phase events. Timestamps are microseconds of simulated time.
void write_chrome_trace(std::ostream& os, const TraceRecorder& recorder);

/// Convenience: write_chrome_trace to a file. Returns false on I/O failure.
bool write_chrome_trace_file(const std::string& path, const TraceRecorder& recorder);

}  // namespace gpucomm::telemetry
