#include "gpucomm/metrics/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

#include "gpucomm/metrics/json.hpp"

namespace gpucomm::metrics {

ScheduleProfiler::FlowRec& ScheduleProfiler::rec(telemetry::FlowToken token) {
  return flows_[token];
}

void ScheduleProfiler::integrate(FlowRec& r, SimTime now) {
  if (now <= r.last) return;
  if (r.standalone > 0 && r.rate < r.standalone) {
    const double dt = (now - r.last).seconds();
    const double squeeze = dt * (1.0 - r.rate / r.standalone);
    r.squeeze_secs += squeeze;
    if (r.bottleneck != kInvalidLink) r.squeeze_by_link[r.bottleneck] += squeeze;
  }
  r.last = now;
}

void ScheduleProfiler::flow_issued(telemetry::FlowToken token, const telemetry::FlowTag& tag,
                                   Bytes, SimTime now) {
  FlowRec& r = rec(token);
  r.tag = tag;
  r.issued = now;
}

void ScheduleProfiler::flow_started(telemetry::FlowToken token, const telemetry::FlowTag& tag,
                                    const Route&, int, Bytes, SimTime now) {
  FlowRec& r = rec(token);
  r.tag = tag;
  r.started = now;
  r.last = now;
}

void ScheduleProfiler::flow_rate(telemetry::FlowToken token, const Route&, Bandwidth rate,
                                 Bandwidth standalone, SimTime now) {
  FlowRec& r = rec(token);
  integrate(r, now);
  r.rate = rate;
  r.standalone = standalone;
  // Attribution for the upcoming interval arrives via flow_throttled (the
  // allocator emits it right after the rate, at the same instant).
  r.bottleneck = kInvalidLink;
}

void ScheduleProfiler::flow_throttled(telemetry::FlowToken token, LinkId bottleneck,
                                      SimTime) {
  FlowRec& r = rec(token);
  ++r.throttle_events;
  r.bottleneck = bottleneck;
  if (bottleneck != kInvalidLink) ++r.throttles_by_link[bottleneck];
}

void ScheduleProfiler::flow_completed(telemetry::FlowToken token, const Route&, Bytes,
                                      SimTime serialized, SimTime delivered) {
  FlowRec& r = rec(token);
  integrate(r, serialized);
  r.serialized = serialized;
  r.delivered = delivered;
  if (r.started.is_infinite()) r.started = serialized;
  r.completed = true;
}

void ScheduleProfiler::flow_interrupted(telemetry::FlowToken token, const Route&, Bytes,
                                        SimTime now) {
  FlowRec& r = rec(token);
  integrate(r, now);
  r.interrupted = true;
  r.interrupted_at = now;
  if (r.started.is_infinite()) r.started = now;
}

void ScheduleProfiler::sched_span(const char* mechanism, const char* algorithm,
                                  const char* kind, int round, SimTime start, SimTime end) {
  spans_.push_back({mechanism, algorithm, kind, round, start, end});
}

void ScheduleProfiler::op_span(const char* mechanism, const char* op, Bytes bytes,
                               SimTime start, SimTime end) {
  ops_.push_back({mechanism, op, bytes, start, end});
}

namespace {

/// Later stages shadow earlier ones where executor spans overlap: a round
/// span beats the reduce of the previous round beats the launch stage.
int stage_priority(const char* kind, int round) {
  if (std::strcmp(kind, "launch") == 0) return 0;
  if (std::strcmp(kind, "stream") == 0) return 1;
  if (std::strcmp(kind, "reduce") == 0) return 2 + 2 * round;
  return 3 + 2 * round;  // "round"
}

struct Category {
  std::string algorithm;
  const char* kind = "";
  int round = -1;
  int priority = 0;
  SimTime env_start = SimTime::infinity();
  SimTime env_end;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;  // clipped [a, b)
  std::int64_t total_ps = 0;
};

}  // namespace

std::vector<OpProfile> ScheduleProfiler::build() const {
  std::vector<OpProfile> out;
  out.reserve(ops_.size());
  for (const OpRec& op : ops_) {
    OpProfile prof;
    prof.mechanism = op.mechanism;
    prof.op = op.op;
    prof.bytes = op.bytes;
    prof.start = op.start;
    prof.end = op.end;

    // --- 1. gather the op's executor spans, merged into categories --------
    std::vector<Category> cats;
    std::map<std::pair<int, std::string>, std::size_t> by_key;
    std::vector<std::int64_t> bounds{op.start.ps, op.end.ps};
    for (const SpanRec& s : spans_) {
      const std::int64_t a = std::max(s.start.ps, op.start.ps);
      const std::int64_t b = std::min(s.end.ps, op.end.ps);
      if (a > b || s.end < op.start || s.start > op.end) continue;
      const int prio = stage_priority(s.kind, s.round);
      const auto key = std::make_pair(prio, std::string(s.algorithm));
      auto it = by_key.find(key);
      if (it == by_key.end()) {
        it = by_key.emplace(key, cats.size()).first;
        Category c;
        c.algorithm = s.algorithm;
        c.kind = s.kind;
        c.round = s.round;
        c.priority = prio;
        cats.push_back(std::move(c));
      }
      Category& c = cats[it->second];
      c.env_start = std::min(c.env_start, SimTime{a});
      c.env_end = std::max(c.env_end, SimTime{b});
      c.intervals.emplace_back(a, b);
      bounds.push_back(a);
      bounds.push_back(b);
    }

    // --- 2. partition [start, end] by the highest-priority active span ----
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    std::int64_t software_ps = 0;
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
      const std::int64_t a = bounds[i];
      const std::int64_t b = bounds[i + 1];
      if (a < op.start.ps || b > op.end.ps || a == b) continue;
      Category* best = nullptr;
      for (Category& c : cats) {
        bool covers = false;
        for (const auto& [ia, ib] : c.intervals) {
          if (ia <= a && ib >= b) {
            covers = true;
            break;
          }
        }
        if (!covers) continue;
        if (best == nullptr || c.priority > best->priority ||
            (c.priority == best->priority && c.algorithm < best->algorithm)) {
          best = &c;
        }
      }
      if (best != nullptr) {
        best->total_ps += b - a;
      } else {
        software_ps += b - a;
      }
    }

    // --- 3. flows issued inside the op window ------------------------------
    std::vector<const FlowRec*> op_flows;
    for (const auto& [token, f] : flows_) {
      (void)token;
      if (f.issued >= op.start && f.issued <= op.end) op_flows.push_back(&f);
    }

    // --- 4. per-category critical chain ------------------------------------
    std::sort(cats.begin(), cats.end(), [](const Category& a, const Category& b) {
      if (a.env_start != b.env_start) return a.env_start < b.env_start;
      return a.priority < b.priority;
    });
    std::vector<const FlowRec*> critical;
    for (const Category& c : cats) {
      SpanProfile sp;
      sp.algorithm = c.algorithm;
      sp.kind = c.kind;
      sp.round = c.round;
      sp.total = SimTime{c.total_ps};
      const bool chained =
          std::strcmp(c.kind, "round") == 0 || std::strcmp(c.kind, "stream") == 0;
      if (chained) {
        // Group the category's flows into retry chains by (src, dst).
        struct Chain {
          std::vector<const FlowRec*> flows;
          SimTime end;
          SimTime first_issued = SimTime::infinity();
        };
        std::map<std::pair<int, int>, Chain> chains;
        for (const FlowRec* f : op_flows) {
          if (f->tag.algorithm == nullptr) continue;
          if (c.algorithm != f->tag.algorithm) continue;
          if (std::strcmp(c.kind, "round") == 0 && f->tag.round != c.round) continue;
          if (f->issued < c.env_start || f->issued > c.env_end) continue;
          Chain& ch = chains[{f->tag.src_rank, f->tag.dst_rank}];
          ch.flows.push_back(f);
          const SimTime fe = f->completed      ? f->delivered
                             : f->interrupted ? f->interrupted_at
                                              : f->last;
          ch.end = std::max(ch.end, fe);
          ch.first_issued = std::min(ch.first_issued, f->issued);
        }
        const Chain* crit = nullptr;
        std::pair<int, int> crit_key{-1, -1};
        for (const auto& [key, ch] : chains) {
          if (crit == nullptr || ch.end > crit->end) {
            crit = &ch;
            crit_key = key;
          }
        }
        if (crit != nullptr && !crit->flows.empty()) {
          const FlowRec* last_try = crit->flows.front();
          for (const FlowRec* f : crit->flows) {
            const SimTime fe = f->completed      ? f->delivered
                               : f->interrupted ? f->interrupted_at
                                                : f->last;
            const SimTime be = last_try->completed      ? last_try->delivered
                               : last_try->interrupted ? last_try->interrupted_at
                                                    : last_try->last;
            if (fe > be || (fe == be && f->tag.attempt > last_try->tag.attempt)) last_try = f;
          }
          for (const FlowRec* f : crit->flows) critical.push_back(f);
          const std::int64_t es = c.env_start.ps;
          const std::int64_t ee = c.env_end.ps;
          const auto cl = [es, ee](SimTime t) { return std::clamp(t.ps, es, ee); };
          std::int64_t recovery =
              last_try->tag.attempt > 0 ? cl(last_try->issued) - cl(crit->first_issued) : 0;
          const std::int64_t ser_start = cl(last_try->started);
          const std::int64_t ser_end =
              last_try->completed ? cl(last_try->serialized) : cl(last_try->interrupted_at);
          std::int64_t ser_len = std::max<std::int64_t>(0, ser_end - ser_start);
          std::int64_t cont = std::clamp<std::int64_t>(
              std::llround(last_try->squeeze_secs * 1e12), 0, ser_len);
          std::int64_t ideal = ser_len - cont;
          std::int64_t prop =
              last_try->completed ? std::max<std::int64_t>(0, cl(last_try->delivered) - ser_end)
                               : 0;
          std::int64_t overhead = c.total_ps - recovery - ser_len - prop;
          if (overhead < 0) {
            // Rare overlap with a shadowing stage: shrink components so the
            // breakdown still sums to the partition total exactly.
            std::int64_t deficit = -overhead;
            overhead = 0;
            for (std::int64_t* comp : {&prop, &cont, &ideal, &recovery}) {
              const std::int64_t d = std::min(*comp, deficit);
              *comp -= d;
              deficit -= d;
            }
          }
          sp.serialization = SimTime{ideal};
          sp.contention = SimTime{cont};
          sp.propagation = SimTime{prop};
          sp.recovery = SimTime{recovery};
          sp.overhead = SimTime{overhead};
          sp.src = crit_key.first;
          sp.dst = crit_key.second;
          sp.attempts = static_cast<int>(crit->flows.size());
        } else {
          sp.overhead = sp.total;
        }
      } else {
        sp.overhead = sp.total;
      }
      prof.spans.push_back(std::move(sp));
    }
    if (software_ps > 0 || prof.spans.empty()) {
      SpanProfile sw;
      sw.kind = "software";
      sw.total = SimTime{software_ps};
      sw.overhead = sw.total;
      prof.spans.push_back(std::move(sw));
    }

    // --- 5. bottleneck links on the critical path --------------------------
    std::map<LinkId, LinkHotspot> hot;
    for (const FlowRec* f : critical) {
      for (const auto& [link, secs] : f->squeeze_by_link) {
        LinkHotspot& h = hot[link];
        h.link = link;
        h.contention += SimTime{std::llround(secs * 1e12)};
      }
      for (const auto& [link, count] : f->throttles_by_link) {
        LinkHotspot& h = hot[link];
        h.link = link;
        h.throttles += count;
      }
    }
    for (const auto& [link, h] : hot) prof.hotspots.push_back(h);
    std::sort(prof.hotspots.begin(), prof.hotspots.end(),
              [](const LinkHotspot& a, const LinkHotspot& b) {
                if (a.contention != b.contention) return a.contention > b.contention;
                if (a.throttles != b.throttles) return a.throttles > b.throttles;
                return a.link < b.link;
              });
    out.push_back(std::move(prof));
  }
  return out;
}

void ScheduleProfiler::write_json(JsonWriter& w) const {
  const std::vector<OpProfile> ops = build();
  w.begin_array();
  for (const OpProfile& op : ops) {
    w.begin_object();
    w.kv("mechanism", op.mechanism);
    w.kv("op", op.op);
    w.kv("bytes", static_cast<std::uint64_t>(op.bytes));
    w.kv("start_ps", op.start.ps);
    w.kv("end_ps", op.end.ps);
    w.kv("duration_ps", op.duration().ps);
    w.key("spans").begin_array();
    for (const SpanProfile& s : op.spans) {
      w.begin_object();
      w.kv("kind", s.kind);
      if (!s.algorithm.empty()) w.kv("algorithm", s.algorithm);
      if (s.round >= 0) w.kv("round", s.round);
      w.kv("total_ps", s.total.ps);
      w.kv("serialization_ps", s.serialization.ps);
      w.kv("contention_ps", s.contention.ps);
      w.kv("propagation_ps", s.propagation.ps);
      w.kv("recovery_ps", s.recovery.ps);
      w.kv("overhead_ps", s.overhead.ps);
      if (s.attempts > 0) {
        w.kv("src", s.src);
        w.kv("dst", s.dst);
        w.kv("attempts", s.attempts);
      }
      w.end_object();
    }
    w.end_array();
    w.key("hotspots").begin_array();
    for (const LinkHotspot& h : op.hotspots) {
      w.begin_object();
      w.kv("link", static_cast<std::int64_t>(h.link));
      w.kv("contention_ps", h.contention.ps);
      w.kv("throttles", static_cast<std::uint64_t>(h.throttles));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

}  // namespace gpucomm::metrics
