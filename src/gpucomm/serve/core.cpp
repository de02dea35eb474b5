#include "gpucomm/serve/core.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "gpucomm/metrics/json.hpp"
#include "gpucomm/net/solver_stats.hpp"
#include "gpucomm/serve/json_value.hpp"
#include "gpucomm/serve/persist.hpp"

namespace gpucomm::serve {

// --- OrderedWriter ----------------------------------------------------------

void OrderedWriter::deliver(std::uint64_t seq, std::string line) {
  const std::lock_guard<std::mutex> lock(mu_);
  pending_.emplace(seq, Pending{std::move(line), nullptr});
  drain_locked();
}

void OrderedWriter::defer(std::uint64_t seq, Render render) {
  const std::lock_guard<std::mutex> lock(mu_);
  pending_.emplace(seq, Pending{std::string(), std::move(render)});
  drain_locked();
}

std::uint64_t OrderedWriter::written() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_;
}

void OrderedWriter::drain_locked() {
  while (true) {
    const auto it = pending_.find(next_);
    if (it == pending_.end()) break;
    std::string line = it->second.render != nullptr ? it->second.render()
                                                    : std::move(it->second.line);
    pending_.erase(it);
    line.push_back('\n');
    sink_(line);
    ++next_;
  }
}

// --- response rendering -----------------------------------------------------

std::string error_line(std::int64_t id, const std::string& message) {
  return "{\"id\":" + std::to_string(id) + ",\"ok\":false,\"error\":\"" +
         metrics::json_escape(message) + "\"}";
}

namespace {

/// Render the response line for a finished (or failed) scenario run. The
/// bytes are a pure function of the run result; no counter or histogram
/// ever reaches them.
std::string render_response(const ScenarioQuery& q,
                            const std::shared_ptr<const ScenarioOutput>& out,
                            const std::string& err) {
  if (out == nullptr) return error_line(q.id, err);
  if (!q.metrics_out.empty()) {
    std::ofstream f(q.metrics_out, std::ios::binary);
    if (f) f << out->manifest_pretty;
    if (!f) return error_line(q.id, "failed to write manifest to " + q.metrics_out);
  }
  return "{\"id\":" + std::to_string(q.id) + ",\"ok\":true,\"manifest\":" +
         out->manifest_compact + "}";
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

std::string ping_line(std::int64_t id) {
  return "{\"id\":" + std::to_string(id) + ",\"ok\":true,\"control\":\"ping\"}";
}

std::string overloaded_line(std::int64_t id, std::int64_t retry_after_ms) {
  return "{\"id\":" + std::to_string(id) +
         ",\"ok\":false,\"error\":\"overloaded\",\"retry_after_ms\":" +
         std::to_string(retry_after_ms) + "}";
}

/// Best-effort id echo for requests that fail before query parsing.
std::int64_t id_of(const JsonValue* v) {
  if (v == nullptr || !v->is_object()) return 0;
  const JsonValue* id = v->find("id");
  if (id == nullptr || !id->is_number() || !id->as_int().has_value()) return 0;
  return *id->as_int() >= 0 ? *id->as_int() : 0;
}

}  // namespace

std::string ServerCore::stats_line(std::int64_t id) const {
  std::ostringstream os;
  metrics::JsonWriter w(os, metrics::JsonWriter::Style::kCompact);
  w.begin_object();
  w.kv("id", static_cast<std::int64_t>(id));
  w.kv("ok", true);
  w.kv("control", "stats");
  w.key("caches");
  w.begin_array();
  for (const CacheStats& s : caches_->stats()) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("hits", s.hits);
    w.kv("misses", s.misses);
    w.kv("insertions", s.insertions);
    w.kv("evictions", s.evictions);
    w.kv("rejected", s.rejected);
    w.kv("entries", static_cast<std::uint64_t>(s.entries));
    w.kv("bytes", static_cast<std::uint64_t>(s.bytes));
    w.kv("capacity_bytes", static_cast<std::uint64_t>(s.capacity_bytes));
    w.end_object();
  }
  w.end_array();
  // Process-wide solver counters: every Network destroyed so far (cells and
  // coupled runs alike) folded its counts into the global registry. The
  // stats barrier means every earlier query on this stream has finished.
  const net::SolverStats solver = net::SolverStatsRegistry::global().snapshot();
  w.key("solver");
  w.begin_object();
  w.kv("reallocations", solver.reallocations);
  w.kv("reference_solves", solver.reference_solves);
  w.kv("full_solves", solver.full_solves);
  w.kv("incremental_events", solver.incremental_events);
  w.kv("no_work_events", solver.no_work_events);
  w.kv("component_solves", solver.component_solves);
  w.kv("cache_hits", solver.cache_hits);
  w.kv("cache_misses", solver.cache_misses);
  w.key("fallbacks");
  w.begin_object();
  w.kv("first", solver.fallback_first);
  w.kv("link_state", solver.fallback_link_state);
  w.kv("noise", solver.fallback_noise);
  w.kv("config", solver.fallback_config);
  w.kv("threshold", solver.fallback_threshold);
  w.end_object();
  w.key("component_size_log2");
  w.begin_array();
  for (const std::uint64_t count : solver.component_size_log2) w.value(count);
  w.end_array();
  w.end_object();
  // Server load counters (serve/server.hpp). Like cache counters these are
  // stats-only: scenario responses never carry them.
  const ServerCounters c = counters();
  w.key("server");
  w.begin_object();
  w.kv("answered", c.answered);
  w.kv("shed_overload", c.shed_overload);
  w.kv("shed_deadline", c.shed_deadline);
  w.kv("parse_errors", c.parse_errors);
  w.kv("line_overflows", c.line_overflows);
  w.kv("connections_accepted", c.connections_accepted);
  w.kv("connections_closed", c.connections_closed);
  w.kv("connections_dropped", c.connections_dropped);
  w.kv("snapshots_saved", c.snapshots_saved);
  w.kv("snapshot_loaded", c.snapshot_loaded);
  w.kv("snapshot_entries", c.snapshot_entries);
  if (!c.snapshot_error.empty()) w.kv("snapshot_error", c.snapshot_error);
  w.end_object();
  // Latency histograms (the stats document is load-dependent anyway).
  const LatencyStats ls = latency_.snapshot();
  w.key("latency");
  w.begin_object();
  for (int st = 0; st < kStageCount; ++st) {
    w.key((std::string(stage_name(static_cast<Stage>(st))) + "_us").c_str());
    w.begin_object();
    w.kv("count", ls.stage[st].count);
    w.kv("p50", ls.stage[st].p50_us);
    w.kv("p90", ls.stage[st].p90_us);
    w.kv("p99", ls.stage[st].p99_us);
    w.kv("max", ls.stage[st].max_us);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return os.str();
}

std::string ServerCore::metrics_line(std::int64_t id) const {
  // The Prometheus document rides inside the JSON-lines protocol as one
  // escaped string field; tools/gpucomm_jsonv --prom validates the unescaped
  // text.
  return "{\"id\":" + std::to_string(id) +
         ",\"ok\":true,\"control\":\"metrics\",\"prometheus\":\"" +
         metrics::json_escape(prometheus_text()) + "\"}";
}

std::string ServerCore::prometheus_text() const {
  std::ostringstream os;
  const ServerCounters c = counters();
  os << "# HELP gpucomm_serve_answered_total Scenario responses delivered (ok or error).\n"
     << "# TYPE gpucomm_serve_answered_total counter\n"
     << "gpucomm_serve_answered_total " << c.answered << "\n";
  os << "# TYPE gpucomm_serve_shed_total counter\n"
     << "gpucomm_serve_shed_total{reason=\"overload\"} " << c.shed_overload << "\n"
     << "gpucomm_serve_shed_total{reason=\"deadline\"} " << c.shed_deadline << "\n";
  os << "# TYPE gpucomm_serve_parse_errors_total counter\n"
     << "gpucomm_serve_parse_errors_total " << c.parse_errors << "\n";
  os << "# TYPE gpucomm_serve_line_overflows_total counter\n"
     << "gpucomm_serve_line_overflows_total " << c.line_overflows << "\n";
  os << "# TYPE gpucomm_serve_connections_total counter\n"
     << "gpucomm_serve_connections_total{event=\"accepted\"} " << c.connections_accepted
     << "\n"
     << "gpucomm_serve_connections_total{event=\"closed\"} " << c.connections_closed
     << "\n"
     << "gpucomm_serve_connections_total{event=\"dropped\"} " << c.connections_dropped
     << "\n";
  os << "# TYPE gpucomm_serve_snapshots_saved_total counter\n"
     << "gpucomm_serve_snapshots_saved_total " << c.snapshots_saved << "\n";
  for (const CacheStats& cs : caches_->stats()) {
    os << "gpucomm_serve_cache_hits_total{cache=\"" << cs.name << "\"} " << cs.hits
       << "\n"
       << "gpucomm_serve_cache_misses_total{cache=\"" << cs.name << "\"} " << cs.misses
       << "\n"
       << "gpucomm_serve_cache_evictions_total{cache=\"" << cs.name << "\"} "
       << cs.evictions << "\n"
       << "gpucomm_serve_cache_entries{cache=\"" << cs.name << "\"} " << cs.entries
       << "\n"
       << "gpucomm_serve_cache_bytes{cache=\"" << cs.name << "\"} " << cs.bytes << "\n";
  }
  const net::SolverStats solver = net::SolverStatsRegistry::global().snapshot();
  os << "# TYPE gpucomm_solver_full_solves_total counter\n"
     << "gpucomm_solver_full_solves_total " << solver.full_solves << "\n"
     << "gpucomm_solver_reallocations_total " << solver.reallocations << "\n"
     << "gpucomm_solver_cache_hits_total " << solver.cache_hits << "\n"
     << "gpucomm_solver_cache_misses_total " << solver.cache_misses << "\n";
  os << "# TYPE gpucomm_serve_latency_us summary\n";
  for (int st = 0; st < kStageCount; ++st) {
    const metrics::Log2Histogram h = latency_.histogram(static_cast<Stage>(st));
    const char* stage = stage_name(static_cast<Stage>(st));
    const double qs[] = {0.5, 0.9, 0.99};
    const char* qn[] = {"0.5", "0.9", "0.99"};
    for (int i = 0; i < 3; ++i) {
      os << "gpucomm_serve_latency_us{stage=\"" << stage << "\",quantile=\"" << qn[i]
         << "\"} " << metrics::json_number(h.quantile(qs[i]) / 1000.0) << "\n";
    }
    os << "gpucomm_serve_latency_us_sum{stage=\"" << stage << "\"} "
       << metrics::json_number(static_cast<double>(h.sum()) / 1000.0) << "\n"
       << "gpucomm_serve_latency_us_count{stage=\"" << stage << "\"} " << h.count()
       << "\n";
  }
  return os.str();
}

std::string ServerCore::shutdown_line(std::int64_t id) const {
  // Hand-built like the other scenario-path lines (the substring
  // "control":"shutdown" is pinned by tests and smoke scripts). drained and
  // shed give clients the final tally without a separate stats round-trip.
  const ServerCounters c = counters();
  return "{\"id\":" + std::to_string(id) +
         ",\"ok\":true,\"control\":\"shutdown\",\"drained\":" +
         std::to_string(c.answered) + ",\"shed\":" +
         std::to_string(c.shed_overload + c.shed_deadline) + "}";
}

// --- ServerCore -------------------------------------------------------------

ServerCore::ServerCore(const ServeOptions& options, bool always_pool) : options_(options) {
  if (options_.caches != nullptr) {
    caches_ = options_.caches;
  } else {
    owned_caches_ = std::make_unique<ServerCaches>(options_.cache_bytes);
    caches_ = owned_caches_.get();
  }
  if (!options_.cache_file.empty()) {
    const SnapshotInfo info = load_cache_snapshot(options_.cache_file, *caches_);
    const std::lock_guard<std::mutex> lock(counters_mu_);
    counters_.snapshot_loaded = info.ok;
    counters_.snapshot_entries = info.responses;
    if (!info.ok && info.error != "missing") counters_.snapshot_error = info.error;
  }
  const int workers =
      always_pool ? std::max(1, options_.jobs) : (options_.jobs > 1 ? options_.jobs : 0);
  for (int i = 0; i < workers; ++i) threads_.emplace_back([this] { worker(); });
}

ServerCore::~ServerCore() { drain(); }

void ServerCore::drain() {
  if (drained_.exchange(true)) return;
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    closed_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  if (!options_.cache_file.empty()) save_snapshot_now();
}

LatencyStats ServerCore::latency_stats() const { return latency_.snapshot(); }

ServerCounters ServerCore::counters() const {
  const std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

ServerCore::LineAction ServerCore::handle_line(
    const std::shared_ptr<OrderedWriter>& writer, std::uint64_t seq,
    const std::string& line) {
  // Parse-stage accounting: every request line is parsed exactly once,
  // success or not.
  const auto t_parse = std::chrono::steady_clock::now();
  const auto note_parse = [&] {
    latency_.record(Stage::kParse, elapsed_ns(t_parse, std::chrono::steady_clock::now()));
  };
  std::string perr;
  const std::optional<JsonValue> doc = parse_json(line, perr);
  if (!doc.has_value()) {
    {
      const std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.parse_errors;
    }
    note_parse();
    writer->deliver(seq, error_line(0, perr));
    return LineAction::kContinue;
  }
  const JsonValue* control = doc->is_object() ? doc->find("control") : nullptr;
  if (control != nullptr) {
    const std::int64_t id = id_of(&*doc);
    const std::string kind = control->is_string() ? control->as_string() : "";
    note_parse();
    if (kind != "ping" && kind != "stats" && kind != "metrics" && kind != "shutdown") {
      writer->deliver(seq,
                      error_line(id, "unknown control (ping|stats|metrics|shutdown)"));
      return LineAction::kContinue;
    }
    if (kind == "ping") {
      // Static content, and deliver() already orders it after everything
      // earlier — no barrier machinery needed.
      writer->deliver(seq, ping_line(id));
      return LineAction::kContinue;
    }
    // The barrier: the renderer runs when the writer reaches this sequence
    // number — i.e. after every earlier query on this stream has been
    // answered. With no query in flight (inline stdio) that is right now.
    if (kind == "stats") {
      writer->defer(seq, [this, id] { return stats_line(id); });
      return LineAction::kContinue;
    }
    if (kind == "metrics") {
      writer->defer(seq, [this, id] { return metrics_line(id); });
      return LineAction::kContinue;
    }
    writer->defer(seq, [this, id] {
      drain_flag_.store(true);
      return shutdown_line(id);
    });
    return LineAction::kShutdown;  // stop reading; draining starts at render
  }
  std::string qerr;
  std::optional<ScenarioQuery> q = parse_query(*doc, qerr);
  if (!q.has_value()) {
    {
      const std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.parse_errors;
    }
    note_parse();
    writer->deliver(seq, error_line(id_of(&*doc), qerr));
    return LineAction::kContinue;
  }
  note_parse();
  submit(writer, seq, std::move(*q));
  return LineAction::kContinue;
}

void ServerCore::answer_line_overflow(const std::shared_ptr<OrderedWriter>& writer,
                                      std::uint64_t seq) {
  {
    const std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.line_overflows;
  }
  writer->deliver(seq, error_line(0, "request line exceeds --serve-max-line-bytes (" +
                                         std::to_string(options_.max_line_bytes) +
                                         ")"));
}

void ServerCore::note_connection_accepted() {
  {
    const std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.connections_accepted;
  }
}

void ServerCore::note_connection_closed() {
  {
    const std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.connections_closed;
  }
}

void ServerCore::note_connection_dropped() {
  {
    const std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.connections_dropped;
  }
}

void ServerCore::submit(const std::shared_ptr<OrderedWriter>& writer,
                        std::uint64_t seq, ScenarioQuery query) {
  Job job;
  job.writer = writer;
  job.seq = seq;
  job.deadline_ms = query.deadline_ms > 0 ? query.deadline_ms : options_.deadline_ms;
  job.query = std::move(query);
  job.admitted = std::chrono::steady_clock::now();
  if (threads_.empty()) {
    // Inline mode (stdio, jobs <= 1): no queue, so nothing to bound and no
    // queue wait to budget — run immediately on the transport thread.
    run_job(job);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (options_.max_queue > 0 &&
        queue_.size() >= static_cast<std::size_t>(options_.max_queue)) {
      const std::size_t depth = queue_.size();
      lock.unlock();
      {
        const std::lock_guard<std::mutex> clock(counters_mu_);
        ++counters_.shed_overload;
      }
      writer->deliver(seq, overloaded_line(job.query.id, retry_hint_ms(depth)));
      return;
    }
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
}

void ServerCore::run_job(const Job& job) {
  const auto started = std::chrono::steady_clock::now();
  latency_.record(Stage::kQueueWait, elapsed_ns(job.admitted, started));
  if (job.deadline_ms > 0 &&
      started - job.admitted >= std::chrono::milliseconds(job.deadline_ms)) {
    {
      const std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.shed_deadline;
    }
    job.writer->deliver(job.seq, error_line(job.query.id, "deadline"));
    return;
  }
  std::string err;
  const std::shared_ptr<const ScenarioOutput> out =
      run_scenario(job.query, caches_, /*want_manifest=*/true, /*jobs=*/1, err);
  const auto rendering = std::chrono::steady_clock::now();
  std::string line = render_response(job.query, out, err);
  const auto finished = std::chrono::steady_clock::now();
  latency_.record(Stage::kRun, elapsed_ns(started, rendering));
  latency_.record(Stage::kRender, elapsed_ns(rendering, finished));
  // Recorded and counted before delivery: a deferred stats or shutdown right
  // behind this response renders inside deliver() and must already see it.
  latency_.record(Stage::kE2e, elapsed_ns(job.admitted, finished));
  {
    const std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.answered;
  }
  job.writer->deliver(job.seq, std::move(line));
  maybe_snapshot();
}

void ServerCore::worker() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    run_job(job);
  }
}

std::int64_t ServerCore::retry_hint_ms(std::size_t depth) const {
  const metrics::Log2Histogram run = latency_.histogram(Stage::kRun);
  const double per_job_ms = run.count() == 0 ? 50.0 : run.quantile(0.5) / 1e6;
  const int workers = std::max<int>(1, static_cast<int>(threads_.size()));
  const double hint = per_job_ms * static_cast<double>(depth) / workers;
  return std::clamp<std::int64_t>(static_cast<std::int64_t>(hint), 1, 60'000);
}

void ServerCore::maybe_snapshot() {
  if (options_.cache_file.empty() || options_.snapshot_every <= 0) return;
  std::uint64_t answered;
  {
    const std::lock_guard<std::mutex> lock(counters_mu_);
    answered = counters_.answered;
  }
  if (answered % static_cast<std::uint64_t>(options_.snapshot_every) != 0) return;
  save_snapshot_now();
}

void ServerCore::save_snapshot_now() {
  const std::lock_guard<std::mutex> lock(snapshot_mu_);
  const SnapshotInfo info = save_cache_snapshot(options_.cache_file, *caches_);
  {
    const std::lock_guard<std::mutex> clock(counters_mu_);
    if (info.ok) {
      ++counters_.snapshots_saved;
    } else {
      counters_.snapshot_error = info.error;
    }
  }
}

}  // namespace gpucomm::serve
