// Shared state of one benchmark run: set-up accounting, the in-memory span
// recorder, the counting telemetry sink and the checked results.
//
// Everything here sits outside the library. The untraced run only times the
// Cluster and Communicator constructors (set-up) and collects results; the
// traced run additionally records a span around every call the benchmark makes
// into a layer, attaches CountingSink to every cluster and reads the public
// counters (Engine::events_fired, Network::solver_stats, NoiseField::version)
// before each cluster goes away.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/comm/communicator.hpp"
#include "gpucomm/net/solver_stats.hpp"
#include "gpucomm/telemetry/sink.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// User + system CPU seconds this process has consumed (getrusage).
double process_cpu_s();

/// One interval of benchmark code around a call into a library layer.
struct Span {
  const char* name;  // layer-qualified literal, e.g. "cluster.build"
  int parent;        // index of the enclosing span, -1 for a root
  std::int64_t begin_ns;
  std::int64_t end_ns;
};

/// In-memory span recorder; every call is a no-op unless tracing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
  bool on() const { return on_; }
  int open(const char* name);
  void close(int span);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Telemetry sink of the traced run: counts started flows and keeps the
/// largest set of simultaneously active routes seen at a flow completion
/// (the biggest fair-share problem of the workload), with the link
/// capacities of the graph it was seen on.
class CountingSink final : public gpucomm::telemetry::Sink {
 public:
  void attach(const gpucomm::Graph* graph) { graph_ = graph; }
  /// Forget flows of a cluster that is going away.
  void detach() {
    active_.clear();
    graph_ = nullptr;
  }

  void flow_started(gpucomm::telemetry::FlowToken token, const gpucomm::telemetry::FlowTag&,
                    const gpucomm::Route& route, int, gpucomm::Bytes, gpucomm::SimTime) override {
    ++flows_;
    active_.emplace(token, route);
  }
  void flow_completed(gpucomm::telemetry::FlowToken token, const gpucomm::Route&, gpucomm::Bytes,
                      gpucomm::SimTime, gpucomm::SimTime) override;
  void flow_interrupted(gpucomm::telemetry::FlowToken token, const gpucomm::Route&, gpucomm::Bytes,
                        gpucomm::SimTime) override {
    active_.erase(token);
  }

  std::uint64_t flows() const { return flows_; }
  const std::vector<gpucomm::Route>& largest_routes() const { return largest_routes_; }
  const std::vector<gpucomm::Bandwidth>& largest_capacity() const { return largest_capacity_; }

 private:
  const gpucomm::Graph* graph_ = nullptr;
  std::uint64_t flows_ = 0;
  std::map<gpucomm::telemetry::FlowToken, gpucomm::Route> active_;
  std::vector<gpucomm::Route> largest_routes_;
  std::vector<gpucomm::Bandwidth> largest_capacity_;
};

/// One checked simulated result. `row` is formatted exactly as the paper
/// bench formats it, so it can be compared with the checked-in CSV row with
/// the same first two columns; `hash` covers the raw simulated bits
/// (picoseconds, samples or goodput).
struct Result {
  std::string csv;  // data/ file of the reference row; empty = digest only
  std::vector<std::string> row;
  std::uint64_t hash = 0;
  /// False for scale-model rows, which no cluster seed reaches: those are
  /// checked against data/ at every seed.
  bool seeded = true;
};

/// FNV-1a over raw bytes, chained from `h`.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/// Counters the traced run reads off each cluster before it is destroyed.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t noise_resamples = 0;
  gpucomm::net::SolverStats solver;
};

/// The workload's probe shape: one probe cluster per entry.
struct ProbeShape {
  std::string system;
  int nodes = 1;
  gpucomm::Placement placement = gpucomm::Placement::kPacked;
};

class Context {
 public:
  Context(std::uint64_t seed, bool trace, std::size_t limit)
      : seed_(seed), limit_(limit), tracer_(trace) {}

  std::uint64_t seed() const { return seed_; }
  bool tracing() const { return tracer_.on(); }
  Tracer& tracer() { return tracer_; }
  CountingSink& sink() { return sink_; }

  /// True once the workload has produced --limit results (reduced runs for
  /// the benchmark's own tests). Every workload is a prefix-closed sequence,
  /// so a reduced run checks a prefix of the full run's results.
  bool done() const { return limit_ != 0 && results_.size() >= limit_; }

  void add(Result r) { results_.push_back(std::move(r)); }
  const std::vector<Result>& results() const { return results_; }

  /// Run a constructor as set-up: its host time and CPU time are booked to
  /// setup_s, and the traced run spans it as `span`.
  template <class Make>
  auto setup(const char* span, Make&& make) {
    ScopedSpan s(tracer_, span);
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    auto made = make();
    setup_cpu_s_ += process_cpu_s() - cpu0;
    setup_wall_s_ += std::chrono::duration<double>(Clock::now() - t0).count();
    return made;
  }
  double setup_wall_s() const { return setup_wall_s_; }
  double setup_cpu_s() const { return setup_cpu_s_; }

  /// Build a communicator of `mechanism` over `gpus` with the paper benches'
  /// bench::make_comm, as set-up.
  std::unique_ptr<gpucomm::Communicator> make_comm(gpucomm::Mechanism mechanism,
                                                   gpucomm::Cluster& cluster,
                                                   std::vector<int> gpus,
                                                   gpucomm::CommOptions opt);

  /// Run one time_* call as a comm.op span.
  template <class Op>
  gpucomm::SimTime op(Op&& run) {
    ScopedSpan s(tracer_, "comm.op");
    return run();
  }
  /// Traced run only: call Communicator::plan(kind, bytes) for a timed op as
  /// a sched.plan span and count the rounds it plans.
  void plan(const gpucomm::Communicator& comm, gpucomm::CollectiveOp kind, gpucomm::Bytes bytes);

  Counters& counters() { return counters_; }
  std::uint64_t plan_rounds() const { return plan_rounds_; }
  std::uint64_t iterations = 0;  // harness iteration-lambda calls

  std::vector<ProbeShape> probe_shapes;

 private:
  std::uint64_t seed_;
  std::size_t limit_;
  Tracer tracer_;
  CountingSink sink_;
  std::vector<Result> results_;
  double setup_wall_s_ = 0;
  double setup_cpu_s_ = 0;
  Counters counters_;
  std::uint64_t plan_rounds_ = 0;
};

/// A workload's Cluster: built as set-up, and in the traced run wired to
/// the context's sink, with its counters folded into the context when it
/// goes away.
class BenchCluster {
 public:
  BenchCluster(Context& ctx, const gpucomm::SystemConfig& cfg, gpucomm::ClusterOptions opt);
  ~BenchCluster();
  BenchCluster(const BenchCluster&) = delete;
  BenchCluster& operator=(const BenchCluster&) = delete;

  gpucomm::Cluster& operator*() { return *cluster_; }

 private:
  Context& ctx_;
  std::unique_ptr<gpucomm::Cluster> cluster_;
  std::uint64_t noise_version0_ = 0;
};

// --- workloads (workloads.cpp) ---------------------------------------------

using Workload = void (*)(Context&);

struct WorkloadDef {
  const char* name;
  Workload run;
};

const std::vector<WorkloadDef>& workloads();

// --- probes (probes.cpp) ------------------------------------------------------

/// Per-call host cost of each layer's public function on the workload's own
/// inputs, on separate probe instances. Returns false when a probe's result
/// check fails (the fill probe compares against maxmin_fair_rates).
bool run_probes(Context& ctx, std::map<std::string, double>& layers);

}  // namespace perfbench
