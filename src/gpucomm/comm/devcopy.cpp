#include "gpucomm/comm/devcopy.hpp"

#include <algorithm>
#include <utility>

#include "gpucomm/sched/builders.hpp"

namespace gpucomm {

DeviceCopyComm::DeviceCopyComm(Cluster& cluster, std::vector<int> gpus, CommOptions options)
    : Communicator(cluster, std::move(gpus), std::move(options)) {}

bool DeviceCopyComm::all_same_node() const {
  for (const Rank& r : ranks_) {
    if (r.node != ranks_.front().node) return false;
  }
  return true;
}

bool DeviceCopyComm::available(CollectiveOp) const {
  return sys().gpu.peer_access && opts_.space == MemSpace::kDevice && all_same_node();
}

void DeviceCopyComm::copy_flow(int src, int dst, Bytes bytes, int concurrent,
                               SimTime issue_delay, const CollContext& ctx, EventFn done) {
  const Route route = cluster_.intra_node_route(ranks_[src].gpu, ranks_[dst].gpu);
  const double eff =
      sys().gpu.ipc_copy_efficiency * ramp_factor(bytes, sys().gpu.copy_rampup_bytes);
  Bandwidth cap = 0;
  if (concurrent > 1 && sys().gpu.copy_engine_bw > 0) {
    cap = sys().gpu.copy_engine_bw / static_cast<double>(concurrent);
  }
  telemetry::FlowTag tag;
  tag.stage = "copy";
  tag.src_rank = src;
  tag.dst_rank = dst;
  tag.algorithm = ctx.algorithm;
  tag.round = ctx.round;
  post_flow(route, bytes, eff, cap, sys().gpu.copy_issue + issue_delay, std::move(done), tag,
            [this, sg = ranks_[src].gpu, dg = ranks_[dst].gpu] {
              return cluster_.intra_node_route(sg, dg);
            },
            recovery_cost());
}

void DeviceCopyComm::send(int src, int dst, Bytes bytes, EventFn done) {
  copy_flow(src, dst, bytes, /*concurrent=*/1, SimTime::zero(), CollContext{},
            std::move(done));
}

std::vector<sched::Schedule> DeviceCopyComm::plan(CollectiveOp op, Bytes bytes,
                                                  int root) const {
  if (op == CollectiveOp::kAllreduce) return {sched::star_allreduce(size(), bytes)};
  return Communicator::plan(op, bytes, root);
}

void DeviceCopyComm::alltoall(Bytes buffer, EventFn done) {
  const int n = size();
  sched::ExecHooks hooks = exec_hooks();
  hooks.message = [this, n](const sched::Step& step, const sched::StepCtx& ctx,
                            EventFn msg_done) {
    // Async issues queue back-to-back on the source stream (one per earlier
    // round) before the copies run concurrently on the fabric.
    const SimTime issue_delay = SimTime{sys().gpu.copy_issue.ps * ctx.round};
    copy_flow(step.src, step.dst, step.bytes, n - 1, issue_delay, coll_ctx(ctx),
              std::move(msg_done));
  };
  // A window the size of each rank's full send list: everything is posted
  // up front and overlaps, with no barrier between rounds.
  sched::execute_windowed(plan(CollectiveOp::kAlltoall, buffer).front(),
                          std::max(n - 1, 1), hooks, std::move(done));
}

void DeviceCopyComm::allreduce(Bytes buffer, EventFn done) {
  const int n = size();
  // Round 1: every rank copies its full buffer to rank 0 (concurrent copies
  // share rank 0's ingress links); rank 0 then reduces n-1 buffers.
  // Round 2: rank 0 broadcasts the result with n-1 concurrent copies.
  sched::ExecHooks hooks = exec_hooks();
  hooks.message = [this, n](const sched::Step& step, const sched::StepCtx& ctx,
                            EventFn msg_done) {
    if (step.reduce) {
      copy_flow(step.src, step.dst, step.bytes, /*concurrent=*/1, SimTime::zero(),
                coll_ctx(ctx), std::move(msg_done));
      return;
    }
    const SimTime issue_delay = SimTime{sys().gpu.copy_issue.ps * ctx.index};
    copy_flow(step.src, step.dst, step.bytes, n - 1, issue_delay, coll_ctx(ctx),
              std::move(msg_done));
  };
  hooks.reduce_time = [this](Bytes b) {
    const SimTime t = copy_.reduce_time(b);
    record_local("reduce", 0, 0, b, t);
    return t;
  };
  sched::execute(plan(CollectiveOp::kAllreduce, buffer).front(), hooks, std::move(done));
}

}  // namespace gpucomm
