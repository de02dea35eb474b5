#include "gpucomm/telemetry/trace_export.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

namespace gpucomm::telemetry {

TraceRecorder::FlowRecord& TraceRecorder::record(FlowToken token) {
  // Tokens are issued densely from 1 by the attached Sink chain; a flow can
  // still start/complete out of token order, so grow on demand.
  if (flows_.size() < token) flows_.resize(token);
  return flows_[token - 1];
}

void TraceRecorder::flow_issued(FlowToken token, const FlowTag& tag, Bytes bytes,
                                SimTime now) {
  FlowRecord& r = record(token);
  r.tag = tag;
  r.bytes = bytes;
  r.issued = now;
}

void TraceRecorder::flow_started(FlowToken token, const FlowTag& tag, const Route& route,
                                 int vl, Bytes bytes, SimTime now) {
  FlowRecord& r = record(token);
  r.tag = tag;
  r.bytes = bytes;
  r.route = route;
  r.vl = vl;
  r.started = now;
  // Network-issued flows (token given out in start_flow) share the issue
  // timestamp; keep issued <= started invariant for direct injections.
  if (r.issued > now) r.issued = now;
}

void TraceRecorder::flow_rate(FlowToken token, const Route&, Bandwidth rate, Bandwidth,
                              SimTime) {
  record(token).last_rate = rate;
}

void TraceRecorder::flow_throttled(FlowToken token, LinkId, SimTime) {
  ++record(token).throttle_events;
}

void TraceRecorder::flow_completed(FlowToken token, const Route& route, Bytes bytes,
                                   SimTime serialized, SimTime delivered) {
  FlowRecord& r = record(token);
  if (r.route.empty()) r.route = route;
  if (r.bytes == 0) r.bytes = bytes;
  r.serialized = serialized;
  r.delivered = delivered;
  if (r.started.is_infinite()) r.started = serialized;
  r.completed = true;
}

void TraceRecorder::local_op(const FlowTag& tag, Bytes bytes, SimTime start, SimTime end) {
  local_ops_.push_back({tag, bytes, start, end});
}

void TraceRecorder::op_span(const char* mechanism, const char* op, Bytes bytes,
                            SimTime start, SimTime end) {
  ops_.push_back({mechanism, op, bytes, start, end});
}

void TraceRecorder::link_state(LinkId link, bool up, const char* cause, SimTime now) {
  faults_.push_back({link, up, cause, now});
}

void TraceRecorder::flow_interrupted(FlowToken token, const Route& route, Bytes serialized,
                                     SimTime now) {
  FlowRecord& r = record(token);
  if (r.route.empty()) r.route = route;
  r.interrupted = true;
  r.partial_bytes = serialized;
  r.interrupted_at = now;
  if (r.started.is_infinite()) r.started = now;
}

namespace {

/// JSON string escaping for the label fragments we generate.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Microseconds with sub-ps resolution preserved (ts unit of the format).
std::string us(SimTime t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", t.micros());
  return buf;
}

std::string route_string(const Graph* graph, const Route& route) {
  if (graph == nullptr || route.empty()) return {};
  std::string out = graph->device(graph->link(route.front()).src).label;
  for (const LinkId l : route) {
    out += ">";
    out += graph->device(graph->link(l).dst).label;
  }
  return out;
}

std::string us_of(double micros) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", micros);
  return buf;
}

// Process-id layout: harness ops on pid 0, per-rank flow tracks on
// pid kRankPidBase + rank, unattributed flows on pid kRankPidBase - 1.
constexpr int kHarnessPid = 0;
constexpr int kRankPidBase = 10;

int pid_of_rank(int rank) { return kRankPidBase + (rank < 0 ? -1 : rank); }

/// Chrome-trace JSON emission. The constructor writes the
/// {"displayTimeUnit":"ms","traceEvents":[ preamble; each event is an
/// open()..close() pair with optional ts/dur/args fields between; end()
/// closes the array and the document. Timestamps are microseconds.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& os) : os_(os) {
    os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  }

  void open(const std::string& name, const char* ph, int pid, std::uint64_t tid) {
    os_ << (first_ ? "\n  " : ",\n  ");
    first_ = false;
    os_ << "{\"name\":\"" << json_escape(name) << "\",\"ph\":\"" << ph
        << "\",\"pid\":" << pid << ",\"tid\":" << tid;
  }
  void ts_us(double micros) { os_ << ",\"ts\":" << us_of(micros); }
  void dur_us(double micros) { os_ << ",\"dur\":" << us_of(micros); }
  void raw_field(const char* key, const std::string& value) {
    os_ << ",\"" << key << "\":" << value;
  }
  void args(const std::string& inner) { os_ << ",\"args\":{" << inner << "}"; }
  void close() { os_ << "}"; }
  void end() { os_ << "\n]}\n"; }

 private:
  std::ostream& os_;
  bool first_ = true;
};

}  // namespace

void write_chrome_trace(std::ostream& os, const TraceRecorder& recorder) {
  ChromeTraceWriter w(os);

  // Metadata: name the processes that will appear.
  std::vector<int> pids{kHarnessPid};
  int max_rank = -1;
  bool unattributed = false;
  for (const auto& f : recorder.flows()) {
    if (f.tag.src_rank < 0) unattributed = true;
    max_rank = std::max(max_rank, f.tag.src_rank);
  }
  for (const auto& l : recorder.local_ops()) {
    if (l.tag.src_rank < 0) unattributed = true;
    max_rank = std::max(max_rank, l.tag.src_rank);
  }
  if (unattributed) pids.push_back(pid_of_rank(-1));
  for (int r = 0; r <= max_rank; ++r) pids.push_back(pid_of_rank(r));
  for (const int pid : pids) {
    w.open("process_name", "M", pid, 0);
    std::string label = pid == kHarnessPid        ? "harness"
                        : pid == pid_of_rank(-1) ? "unattributed"
                                                 : "rank " + std::to_string(pid - kRankPidBase);
    w.args("\"name\":\"" + json_escape(label) + "\"");
    w.close();
  }

  // Whole-operation spans.
  for (const auto& op : recorder.ops()) {
    w.open(std::string(op.mechanism) + " " + op.op + " " + format_bytes(op.bytes), "X",
           kHarnessPid, 0);
    w.ts_us(op.start.micros());
    w.dur_us((op.end - op.start).micros());
    w.args("\"bytes\":" + std::to_string(op.bytes));
    w.close();
  }

  // Fault transitions: global instant events so link failures and recoveries
  // line up visually with the flows they killed.
  for (const auto& fr : recorder.faults()) {
    std::string label = std::string(fr.cause) + " link " + std::to_string(fr.link);
    w.open(label, "i", kHarnessPid, 0);
    w.ts_us(fr.at.micros());
    w.raw_field("s", "\"g\"");
    std::ostringstream args;
    args << "\"link\":" << fr.link << ",\"up\":" << (fr.up ? "true" : "false");
    if (recorder.graph() != nullptr) {
      const Link& l = recorder.graph()->link(fr.link);
      args << ",\"span\":\"" << json_escape(recorder.graph()->device(l.src).label) << ">"
           << json_escape(recorder.graph()->device(l.dst).label) << "\"";
    }
    w.args(args.str());
    w.close();
  }

  // Flows: one thread track per flow (tid = token), so the queue span and
  // the serialization span nest and concurrent flows never collide.
  // Fault-interrupted flows render as truncated spans ending at the kill.
  for (std::size_t i = 0; i < recorder.flows().size(); ++i) {
    const auto& f = recorder.flows()[i];
    if (!f.completed && !f.interrupted) continue;  // in flight when run ended
    const std::uint64_t tid = i + 1;
    const int pid = pid_of_rank(f.tag.src_rank);
    std::string label = std::string(f.tag.mechanism) + ":" + f.tag.stage;
    if (f.tag.algorithm != nullptr) {
      label += ":" + std::string(f.tag.algorithm) + "/r" + std::to_string(f.tag.round);
    }
    if (f.tag.src_rank >= 0) {
      label += " " + std::to_string(f.tag.src_rank) + ">" + std::to_string(f.tag.dst_rank);
    }
    if (f.tag.attempt > 0) label += " retry#" + std::to_string(f.tag.attempt);
    if (f.interrupted) label += " [killed]";

    w.open("thread_name", "M", pid, tid);
    w.args("\"name\":\"" + json_escape(label) + "\"");
    w.close();

    if (f.started > f.issued) {
      w.open("queue " + label, "X", pid, tid);
      w.ts_us(f.issued.micros());
      w.dur_us((f.started - f.issued).micros());
      w.args("\"bytes\":" + std::to_string(f.bytes));
      w.close();
    }

    const SimTime wire_end = f.completed ? f.serialized : f.interrupted_at;
    w.open("xfer " + label, "X", pid, tid);
    w.ts_us(f.started.micros());
    w.dur_us((wire_end - f.started).micros());
    std::ostringstream args;
    args << "\"bytes\":" << f.bytes << ",\"hops\":" << f.route.size() << ",\"vl\":" << f.vl
         << ",\"rate_gbps\":" << f.last_rate / 1e9
         << ",\"throttle_events\":" << f.throttle_events;
    if (f.completed) {
      args << ",\"delivered_us\":" << us(f.delivered);
    } else {
      args << ",\"interrupted\":true,\"partial_bytes\":" << f.partial_bytes;
    }
    if (f.tag.attempt > 0) args << ",\"attempt\":" << f.tag.attempt;
    if (f.tag.algorithm != nullptr) {
      args << ",\"algorithm\":\"" << json_escape(f.tag.algorithm)
           << "\",\"round\":" << f.tag.round;
    }
    const std::string route = route_string(recorder.graph(), f.route);
    if (!route.empty()) args << ",\"route\":\"" << json_escape(route) << "\"";
    w.args(args.str());
    w.close();
  }

  // Local copies/reductions, one track per record under the owning rank.
  std::uint64_t local_tid = recorder.flows().size() + 1;
  for (const auto& l : recorder.local_ops()) {
    const int pid = pid_of_rank(l.tag.src_rank);
    std::string label = std::string(l.tag.mechanism) + ":" + l.tag.stage;
    if (l.tag.algorithm != nullptr) {
      label += ":" + std::string(l.tag.algorithm) + "/r" + std::to_string(l.tag.round);
    }
    w.open("thread_name", "M", pid, local_tid);
    w.args("\"name\":\"" + json_escape(label) + "\"");
    w.close();
    w.open(label, "X", pid, local_tid);
    w.ts_us(l.start.micros());
    w.dur_us((l.end - l.start).micros());
    w.args("\"bytes\":" + std::to_string(l.bytes));
    w.close();
    ++local_tid;
  }

  w.end();
}

bool write_chrome_trace_file(const std::string& path, const TraceRecorder& recorder) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out, recorder);
  return static_cast<bool>(out);
}

}  // namespace gpucomm::telemetry
