// Transport-independent scenario-server engine.
//
// Both transports — the stdio loop (serve/server.cpp) and the concurrent
// unix-socket server (serve/socket.cpp) — are thin byte shovels around this
// core: it owns the worker pool, the admission queue, the cross-query
// caches, the server counters, and cache persistence, and it renders every
// response line. Keeping one engine is what keeps the protocol identical
// across transports: a request line answered over stdin/stdout is
// byte-identical to the same line answered over a socket.
//
// Request ordering is per OrderedWriter (one per stream/connection): workers
// finish in any order, lines leave in request order. A control is a barrier
// without blocking anyone: the transport hands the writer the control's
// *renderer* (defer), and the writer calls it at delivery time, which is
// exactly the barrier point (every earlier response delivered). A "stats"
// therefore sees every earlier query answered — and may also count later
// queries that finished first — and a "shutdown" flips the drain flag at
// the moment every earlier query on its stream has been answered.
//
// Admission control happens at submit time (queue bound -> "overloaded" with
// a retry_after_ms hint from the median recorded run time) and again at
// dequeue time (expired wall-clock budget -> "deadline"); a scenario run
// itself is never interrupted, so the budget is a queue-wait budget.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gpucomm/serve/query.hpp"
#include "gpucomm/serve/scenario.hpp"
#include "gpucomm/serve/server.hpp"

namespace gpucomm::serve {

/// Sequence-ordered line sink. Lines are handed to `sink` strictly in
/// sequence order, newline included, regardless of delivery order.
class OrderedWriter {
 public:
  using Sink = std::function<void(const std::string& framed_line)>;
  using Render = std::function<std::string()>;

  explicit OrderedWriter(Sink sink) : sink_(std::move(sink)) {}

  /// Deliver the response for `seq`; drains every consecutive ready line.
  void deliver(std::uint64_t seq, std::string line);

  /// Deliver a line that is *rendered at its turn* — when every earlier
  /// sequence number has been written. This is the control barrier: the
  /// renderer observes the post-barrier state.
  void defer(std::uint64_t seq, Render render);

  /// Lines handed to the sink so far.
  std::uint64_t written() const;

 private:
  struct Pending {
    std::string line;
    Render render;  // non-null => render at drain time
  };
  void drain_locked();

  Sink sink_;
  mutable std::mutex mu_;
  std::uint64_t next_ = 0;
  std::map<std::uint64_t, Pending> pending_;
};

/// The engine: caches + worker pool + admission control + persistence.
class ServerCore {
 public:
  /// `always_pool` forces a worker pool even for jobs <= 1 (the socket
  /// transport needs one so its poll thread never runs a scenario); the
  /// stdio transport leaves it false and answers inline when jobs <= 1,
  /// which also disables shedding there (nothing ever queues).
  ServerCore(const ServeOptions& options, bool always_pool);
  ~ServerCore();

  ServerCaches& caches() { return *caches_; }

  enum class LineAction {
    kContinue,  // answered (or queued); keep reading
    kShutdown,  // shutdown control seen; stop reading this stream
  };

  /// Handle one non-blank request line end to end: parse, answer controls,
  /// admit or shed scenario queries. A shutdown returns kShutdown at once
  /// (stop *reading*), but the drain flag flips only when its deferred line
  /// renders (the barrier).
  LineAction handle_line(const std::shared_ptr<OrderedWriter>& writer,
                         std::uint64_t seq, const std::string& line);

  /// Answer an over-long request line (one ok:false response) and count it.
  void answer_line_overflow(const std::shared_ptr<OrderedWriter>& writer,
                            std::uint64_t seq);

  void note_connection_accepted();
  void note_connection_closed();
  void note_connection_dropped();

  /// True once a shutdown control has *rendered* (its barrier passed) —
  /// the socket transport polls this to stop accepting and start draining.
  bool shutdown_rendered() const { return drain_flag_.load(); }

  /// Close the admission queue, run every already-admitted job, join the
  /// workers, and write a final cache snapshot. Idempotent.
  void drain();

  /// Counter snapshot (post-drain() it is the final tally).
  ServerCounters counters() const;

  /// Latency snapshot.
  LatencyStats latency_stats() const;

  /// Prometheus text exposition of the cache/server/solver counters and the
  /// latency summaries, rendered for the `metrics` control query.
  std::string prometheus_text() const;

 private:
  struct Job {
    std::shared_ptr<OrderedWriter> writer;
    std::uint64_t seq = 0;
    ScenarioQuery query;
    std::chrono::steady_clock::time_point admitted;
    int deadline_ms = 0;  // resolved budget (query override or server default)
  };

  void submit(const std::shared_ptr<OrderedWriter>& writer, std::uint64_t seq,
              ScenarioQuery query);
  void run_job(const Job& job);
  void worker();
  /// retry_after_ms hint for a shed response: median recorded run time (50
  /// ms before the first run) x queue depth per worker, clamped to [1ms,
  /// 60s].
  std::int64_t retry_hint_ms(std::size_t depth) const;
  void maybe_snapshot();
  void save_snapshot_now();
  std::string stats_line(std::int64_t id) const;
  std::string metrics_line(std::int64_t id) const;
  std::string shutdown_line(std::int64_t id) const;

  ServeOptions options_;
  std::unique_ptr<ServerCaches> owned_caches_;
  ServerCaches* caches_;

  mutable std::mutex counters_mu_;
  ServerCounters counters_;

  std::atomic<bool> drain_flag_{false};
  std::atomic<bool> drained_{false};

  std::mutex snapshot_mu_;  // one snapshot writer at a time

  // Worker pool (empty when answering inline).
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool closed_ = false;
  std::vector<std::thread> threads_;

  LatencyHistograms latency_;
};

/// {"id":N,"ok":false,"error":"..."} with the message JSON-escaped.
std::string error_line(std::int64_t id, const std::string& message);

}  // namespace gpucomm::serve
