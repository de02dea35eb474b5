#include "bench.hpp"

#include <sys/resource.h>

#include "bench_common.hpp"

namespace perfbench {

using namespace gpucomm;

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

int Tracer::open(const char* name) {
  if (!on_) return -1;
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), now, now});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  stack_.pop_back();
}

void CountingSink::flow_completed(telemetry::FlowToken token, const Route&, Bytes, SimTime,
                                  SimTime) {
  if (active_.size() > largest_routes_.size() && graph_ != nullptr) {
    largest_routes_.clear();
    for (const auto& [t, route] : active_) largest_routes_.push_back(route);
    largest_capacity_.resize(graph_->link_count());
    for (LinkId l = 0; l < graph_->link_count(); ++l) {
      largest_capacity_[l] = graph_->link(l).capacity;
    }
  }
  active_.erase(token);
}

std::unique_ptr<Communicator> Context::make_comm(Mechanism mechanism, Cluster& cluster,
                                                 std::vector<int> gpus, CommOptions opt) {
  return setup("comm.init", [&] {
    return bench::make_comm(mechanism, cluster, std::move(gpus), std::move(opt));
  });
}

void Context::plan(const Communicator& comm, CollectiveOp kind, Bytes bytes) {
  if (!tracing()) return;
  ScopedSpan s(tracer_, "sched.plan");
  for (const sched::Schedule& schedule : comm.plan(kind, bytes)) {
    plan_rounds_ += schedule.rounds.size();
  }
}

BenchCluster::BenchCluster(Context& ctx, const SystemConfig& cfg, ClusterOptions opt)
    : ctx_(ctx) {
  opt.seed = ctx.seed();
  opt.net_shards = 1;
  cluster_ = ctx.setup("cluster.build", [&] { return std::make_unique<Cluster>(cfg, opt); });
  if (!ctx.tracing()) return;
  cluster_->set_telemetry(&ctx.sink());
  ctx.sink().attach(&cluster_->graph());
  if (NoiseField* noise = cluster_->noise_field()) noise_version0_ = noise->version();
}

BenchCluster::~BenchCluster() {
  if (!ctx_.tracing()) return;
  Counters& c = ctx_.counters();
  c.events += cluster_->engine().events_fired();
  if (NoiseField* noise = cluster_->noise_field()) {
    c.noise_resamples += noise->version() - noise_version0_;
  }
  c.solver.merge(cluster_->network().solver_stats());
  cluster_->set_telemetry(nullptr);
  ctx_.sink().detach();
}

}  // namespace perfbench
