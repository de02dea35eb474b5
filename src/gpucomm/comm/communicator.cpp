#include "gpucomm/comm/communicator.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <utility>

#include "gpucomm/comm/ccl/ccl_comm.hpp"
#include "gpucomm/comm/devcopy.hpp"
#include "gpucomm/comm/mpi/mpi_comm.hpp"
#include "gpucomm/comm/staging.hpp"
#include "gpucomm/hw/nic.hpp"
#include "gpucomm/sched/builders.hpp"

namespace gpucomm {

const char* to_string(Mechanism m) {
  switch (m) {
    case Mechanism::kStaging: return "staging";
    case Mechanism::kDeviceCopy: return "devcopy";
    case Mechanism::kCcl: return "ccl";
    case Mechanism::kMpi: return "mpi";
  }
  return "?";
}

std::optional<Mechanism> mechanism_named(std::string_view name) {
  for (const Mechanism m :
       {Mechanism::kStaging, Mechanism::kDeviceCopy, Mechanism::kCcl, Mechanism::kMpi}) {
    if (name == to_string(m)) return m;
  }
  return std::nullopt;
}

std::optional<CollectiveOp> op_named(std::string_view name) {
  static constexpr std::pair<std::string_view, CollectiveOp> kNames[] = {
      {"pingpong", CollectiveOp::kPingPong},   {"alltoall", CollectiveOp::kAlltoall},
      {"allreduce", CollectiveOp::kAllreduce}, {"broadcast", CollectiveOp::kBroadcast},
      {"allgather", CollectiveOp::kAllgather}, {"reducescatter", CollectiveOp::kReduceScatter}};
  for (const auto& [n, op] : kNames) {
    if (n == name) return op;
  }
  return std::nullopt;
}

std::unique_ptr<Communicator> make_comm(Mechanism m, Cluster& cluster, std::vector<int> gpus,
                                        CommOptions opt) {
  switch (m) {
    case Mechanism::kStaging:
      return std::make_unique<StagingComm>(cluster, std::move(gpus), std::move(opt));
    case Mechanism::kDeviceCopy:
      return std::make_unique<DeviceCopyComm>(cluster, std::move(gpus), std::move(opt));
    case Mechanism::kCcl:
      return std::make_unique<CclComm>(cluster, std::move(gpus), std::move(opt));
    case Mechanism::kMpi:
      return std::make_unique<MpiComm>(cluster, std::move(gpus), std::move(opt));
  }
  return nullptr;
}

Communicator::Communicator(Cluster& cluster, std::vector<int> gpus, CommOptions options)
    : cluster_(cluster),
      ranks_(make_ranks(cluster, gpus)),
      opts_(std::move(options)),
      copy_(make_copy_engine(cluster)) {
  assert(!ranks_.empty());
}

bool Communicator::available(CollectiveOp) const { return true; }

FlowSpec Communicator::make_flow(const Route& route, Bytes bytes, double efficiency,
                                 Bandwidth rate_cap) const {
  assert(efficiency > 0 && efficiency <= 1.0);
  FlowSpec spec;
  spec.route = route;
  spec.bytes = static_cast<Bytes>(static_cast<double>(bytes) / efficiency);
  spec.vl = opts_.service_level;
  spec.rate_cap = rate_cap;
  return spec;
}

struct Communicator::RetryCtx {
  Route route;
  Bytes bytes = 0;
  double efficiency = 1.0;
  Bandwidth rate_cap = 0;
  telemetry::FlowTag tag;
  RouteFn reroute;
  SimTime recovery;
  EventFn done;
  int attempt = 0;  // 0 = original post, >= 1 = retransmissions
};

void Communicator::post_flow(const Route& route, Bytes bytes, double efficiency,
                             Bandwidth rate_cap, SimTime pre_delay, EventFn done,
                             telemetry::FlowTag tag, RouteFn reroute, SimTime recovery) {
  if (cluster_.faults() == nullptr) {
    FlowSpec spec = make_flow(route, bytes, efficiency, rate_cap);
    if (telemetry::Sink* sink = telemetry()) {
      tag.mechanism = to_string(mechanism());
      spec.tag = tag;
      spec.token = sink->issue(tag, spec.bytes, engine().now());
    }
    auto start = [this, spec = std::move(spec), done = std::move(done)]() mutable {
      network().start_flow(std::move(spec), [done = std::move(done)](SimTime) {
        if (done) done();
      });
    };
    if (pre_delay > SimTime::zero()) {
      engine().after(pre_delay, std::move(start));
    } else {
      start();
    }
    return;
  }

  tag.mechanism = to_string(mechanism());
  auto ctx = std::make_shared<RetryCtx>();
  ctx->route = route;
  ctx->bytes = bytes;
  ctx->efficiency = efficiency;
  ctx->rate_cap = rate_cap;
  ctx->tag = tag;
  ctx->reroute = std::move(reroute);
  ctx->recovery = recovery;
  ctx->done = std::move(done);
  if (pre_delay > SimTime::zero()) {
    engine().after(pre_delay, [this, ctx] { post_attempt(ctx); });
  } else {
    post_attempt(ctx);
  }
}

void Communicator::post_attempt(const std::shared_ptr<RetryCtx>& ctx) {
  if (ctx->attempt > 0 && ctx->reroute) ctx->route = ctx->reroute();
  // An empty re-resolved route means every path is cut right now: wait out
  // another backoff period and ask again. (An empty route on the original
  // post with no reroute fn is a deliberately routeless flow — rate-capped
  // local pipe — and is posted as-is.)
  if (ctx->route.empty() && ctx->reroute) {
    schedule_retry(ctx);
    return;
  }
  FlowSpec spec = make_flow(ctx->route, ctx->bytes, ctx->efficiency, ctx->rate_cap);
  ctx->tag.attempt = ctx->attempt;
  if (telemetry::Sink* sink = telemetry()) {
    spec.tag = ctx->tag;
    spec.token = sink->issue(ctx->tag, spec.bytes, engine().now());
  }
  spec.on_interrupted = [this, ctx](Bytes, SimTime) { schedule_retry(ctx); };
  network().start_flow(std::move(spec), [ctx](SimTime) {
    if (ctx->done) ctx->done();
  });
}

void Communicator::schedule_retry(const std::shared_ptr<RetryCtx>& ctx) {
  const RecoveryParams& rec = sys().recovery;
  ++ctx->attempt;
  if (ctx->attempt > rec.max_retries) {
    // Retries exhausted: the operation is abandoned but still completes, so
    // schedule barriers and harness loops keep draining.
    op_failed_ = true;
    if (ctx->done) engine().after(SimTime::zero(), [ctx] { ctx->done(); });
    return;
  }
  const int shift = std::min(ctx->attempt - 1, 20);
  const SimTime backoff{
      std::min(rec.backoff_base.ps << shift, rec.backoff_max.ps)};
  engine().after(rec.detect + backoff + ctx->recovery, [this, ctx] { post_attempt(ctx); });
}

void Communicator::host_send(int src, int dst, Bytes bytes, double efficiency, EventFn done) {
  if (!same_node(src, dst)) {
    nic_send(src, dst, MemSpace::kHost, bytes, efficiency, CollContext{}, std::move(done));
    return;
  }
  // Shared-memory path: software overhead + one cross-process memcpy.
  const SimTime t = sys().mpi.o_send + copy_.h2h_time(bytes) + sys().mpi.o_recv;
  record_local("shm", src, dst, bytes, t);
  engine().after(t, std::move(done));
}

void Communicator::nic_send(int src, int dst, MemSpace space, Bytes bytes, double efficiency,
                            const CollContext& ctx, EventFn done) {
  const MpiParams& mpi = sys().mpi;
  const NicParams& nic = sys().nic;
  const bool host = space == MemSpace::kHost;
  SimTime pre = mpi.o_send + nic.send_overhead;
  if (bytes > mpi.eager_threshold) pre += mpi.rndv_handshake;
  if (!host) pre += mpi.gpu_extra;
  const SimTime post = mpi.o_recv + nic.recv_overhead;
  telemetry::FlowTag tag;
  tag.stage = host ? "wire" : "rdma";
  tag.src_rank = src;
  tag.dst_rank = dst;
  tag.algorithm = ctx.algorithm;
  tag.round = ctx.round;
  const Rank& s = ranks_[src];
  const Rank& d = ranks_[dst];
  EventFn counted = count_nic_message(
      s, d, bytes,
      [this, post, done = std::move(done)]() mutable { engine().after(post, std::move(done)); });
  const DeviceId from = host ? s.numa_dev : s.gpu_dev;
  const DeviceId to = host ? d.numa_dev : d.gpu_dev;
  RouteFn reroute = [this, from, to, sg = s.gpu, dg = d.gpu] {
    return cluster_.inter_node_route(from, sg, to, dg);
  };
  const Route route = reroute();
  post_flow(route, bytes, efficiency * nic.protocol_efficiency, /*rate_cap=*/0, pre,
            std::move(counted), tag, std::move(reroute),
            host ? sys().recovery.host_retry : recovery_cost());
}

EventFn Communicator::count_nic_message(const Rank& s, const Rank& d, Bytes bytes,
                                        EventFn done) {
  telemetry::Sink* sink = telemetry();
  if (sink == nullptr) return done;
  sink->nic_message(s.nic_dev, /*send=*/true, bytes, engine().now(),
                    engine().now() + nic_message_overhead(sys().nic, /*send=*/true));
  return [this, dst_nic = d.nic_dev, bytes, done = std::move(done)] {
    if (telemetry::Sink* sink = telemetry()) {
      sink->nic_message(dst_nic, /*send=*/false, bytes, engine().now(),
                        engine().now() + nic_message_overhead(sys().nic, /*send=*/false));
    }
    done();
  };
}

SimTime Communicator::straggle(SimTime launch) const {
  const fault::FaultModel* faults = cluster_.faults();
  if (faults == nullptr || launch <= SimTime::zero()) return launch;
  double factor = 1.0;
  for (const Rank& r : ranks_) factor = std::max(factor, faults->straggler_factor(r.gpu));
  if (factor == 1.0) return launch;
  return SimTime{static_cast<std::int64_t>(static_cast<double>(launch.ps) * factor)};
}

void Communicator::record_local(const char* stage, int src, int dst, Bytes bytes,
                                SimTime duration) {
  telemetry::Sink* sink = telemetry();
  if (sink == nullptr) return;
  telemetry::FlowTag tag;
  tag.mechanism = to_string(mechanism());
  tag.stage = stage;
  tag.src_rank = src;
  tag.dst_rank = dst;
  sink->local_op(tag, bytes, engine().now(), engine().now() + duration);
}

SimTime Communicator::run_op(const char* op, Bytes bytes,
                             const std::function<void(EventFn)>& fn) {
  const SimTime start = engine().now();
  op_failed_ = false;
  bool finished = false;
  fn([&finished] { finished = true; });
  const bool ok = engine().run_until([&finished] { return finished; });
  if (!ok) throw std::runtime_error("operation deadlocked: engine drained before completion");
  if (telemetry::Sink* sink = telemetry()) {
    sink->op_span(to_string(mechanism()), op, bytes, start, engine().now());
  }
  return engine().now() - start;
}

SimTime Communicator::time_send(int src, int dst, Bytes bytes) {
  assert(src >= 0 && src < size() && dst >= 0 && dst < size());
  return run_op("send", bytes, [&](EventFn done) { send(src, dst, bytes, std::move(done)); });
}

SimTime Communicator::time_pingpong(int a, int b, Bytes bytes) {
  assert(a >= 0 && a < size() && b >= 0 && b < size());
  return run_op("pingpong", bytes, [&](EventFn done) {
    send(a, b, bytes, [this, a, b, bytes, done = std::move(done)]() mutable {
      send(b, a, bytes, std::move(done));
    });
  });
}

SimTime Communicator::time_alltoall(Bytes buffer) {
  return run_op("alltoall", buffer, [&](EventFn done) { alltoall(buffer, std::move(done)); });
}

SimTime Communicator::time_allreduce(Bytes buffer) {
  return run_op("allreduce", buffer, [&](EventFn done) { allreduce(buffer, std::move(done)); });
}

SimTime Communicator::time_broadcast(int root, Bytes buffer) {
  return run_op("broadcast", buffer,
                [&](EventFn done) { broadcast(root, buffer, std::move(done)); });
}

SimTime Communicator::time_allgather(Bytes per_rank) {
  return run_op("allgather", per_rank,
                [&](EventFn done) { allgather(per_rank, std::move(done)); });
}

SimTime Communicator::time_reduce_scatter(Bytes buffer) {
  return run_op("reduce_scatter", buffer,
                [&](EventFn done) { reduce_scatter(buffer, std::move(done)); });
}

void Communicator::coll_message(int src, int dst, Bytes bytes, Bytes op_bytes,
                                const CollContext& ctx, EventFn done) {
  (void)op_bytes, (void)ctx;
  send(src, dst, bytes, std::move(done));
}

std::vector<sched::Schedule> Communicator::plan(CollectiveOp op, Bytes bytes, int root) const {
  const int n = size();
  switch (op) {
    case CollectiveOp::kBroadcast:
      // Binomial tree for small vectors; ring scatter + allgather for large
      // ones (the standard 2S-byte pipeline; goodput approaches bw/2).
      if (bytes <= 64_KiB) return {sched::binomial_broadcast(n, root, bytes)};
      return {sched::ring_broadcast(n, root, bytes)};
    case CollectiveOp::kAllgather:
      // Ring: bandwidth-optimal, (n-1)/n of the result moves per rank.
      return {sched::ring_allgather(n, bytes)};
    case CollectiveOp::kReduceScatter:
      return {sched::ring_reduce_scatter(n, bytes)};
    case CollectiveOp::kAlltoall:
      return {sched::pairwise_alltoall(n, bytes)};
    case CollectiveOp::kAllreduce:
      return {sched::ring_allreduce(n, bytes)};
    default:
      return {};
  }
}

sched::ExecHooks Communicator::exec_hooks() {
  sched::ExecHooks hooks;
  hooks.engine = &engine();
  hooks.sink = telemetry();
  hooks.mechanism = to_string(mechanism());
  return hooks;
}

void Communicator::run_coll_schedule(sched::Schedule s, Bytes op_bytes,
                                     std::optional<SimTime> launch, EventFn done) {
  sched::ExecHooks hooks = exec_hooks();
  if (launch.has_value()) launch = straggle(*launch);
  hooks.launch = launch;
  hooks.message = [this, op_bytes](const sched::Step& step, const sched::StepCtx& ctx,
                                   EventFn msg_done) {
    coll_message(step.src, step.dst, step.bytes, op_bytes,
                 CollContext{sched::to_string(ctx.schedule->algorithm), ctx.round},
                 std::move(msg_done));
  };
  hooks.reduce_time = [this](Bytes b) { return copy_.reduce_time(b); };
  sched::execute(std::move(s), hooks, std::move(done));
}

void Communicator::broadcast(int root, Bytes buffer, EventFn done) {
  if (size() < 2) {
    if (done) done();
    return;
  }
  run_coll_schedule(plan(CollectiveOp::kBroadcast, buffer, root).front(), buffer,
                    coll_launch(), std::move(done));
}

void Communicator::allgather(Bytes per_rank, EventFn done) {
  const int n = size();
  if (n < 2) {
    if (done) done();
    return;
  }
  run_coll_schedule(plan(CollectiveOp::kAllgather, per_rank).front(),
                    per_rank * static_cast<Bytes>(n), coll_launch(), std::move(done));
}

void Communicator::reduce_scatter(Bytes buffer, EventFn done) {
  if (size() < 2) {
    if (done) done();
    return;
  }
  run_coll_schedule(plan(CollectiveOp::kReduceScatter, buffer).front(), buffer,
                    coll_launch(), std::move(done));
}

double ramp_factor(Bytes bytes, Bytes rampup) {
  if (rampup == 0) return 1.0;
  const double b = static_cast<double>(bytes);
  return b / (b + static_cast<double>(rampup));
}

}  // namespace gpucomm
