#include "gpucomm/comm/mpi/mpi_comm.hpp"

#include <algorithm>
#include <utility>

#include "gpucomm/hw/link.hpp"
#include "gpucomm/sched/builders.hpp"

namespace gpucomm {

MpiComm::MpiComm(Cluster& cluster, std::vector<int> gpus, CommOptions options)
    : Communicator(cluster, std::move(gpus), std::move(options)),
      eff_(resolve_mpi(cluster.config().mpi, opts_.env)) {
  if (opts_.env.ucx_ib_sl != 0) opts_.service_level = opts_.env.ucx_ib_sl;
}

MpiP2pPath MpiComm::path_for(int src, int dst, Bytes bytes) const {
  return select_mpi_path(sys(), eff_, opts_.space, same_node(src, dst), bytes);
}

Bandwidth MpiComm::intra_rate_cap() const {
  if (!eff_.sdma_single_link) return 0;
  // One SDMA engine drives a single Infinity Fabric link at a time
  // (HSA_ENABLE_SDMA=1 default; disabling it unlocks striping, Sec. III-B).
  return links::infinity_fabric().rate;
}

void MpiComm::transfer(int src, int dst, Bytes bytes, bool collective, Bytes ramp_ref,
                       const CollContext& ctx, EventFn done) {
  const MpiParams& mpi = sys().mpi;
  const MpiP2pPath path = path_for(src, dst, bytes);
  const SimTime o = mpi.o_send + mpi.o_recv;
  const double wire_eff_p2p = collective ? mpi.net_coll_efficiency : mpi.net_p2p_efficiency;

  switch (path) {
    case MpiP2pPath::kHostShared:
    case MpiP2pPath::kHostNetwork:
      host_send(src, dst, bytes, wire_eff_p2p, std::move(done));
      return;

    case MpiP2pPath::kGdrCopy: {
      // CPU writes through the BAR window: flat latency, modest bandwidth.
      const SimTime t = o + mpi.gdrcopy_latency + transfer_time(bytes, mpi.gdrcopy_bw);
      record_local("gdrcopy", src, dst, bytes, t);
      engine().after(t, std::move(done));
      return;
    }

    case MpiP2pPath::kCpuHbm: {
      const SimTime t = o + mpi.cpu_hbm_latency + transfer_time(bytes, mpi.cpu_hbm_bw);
      record_local("cpu_hbm", src, dst, bytes, t);
      engine().after(t, std::move(done));
      return;
    }

    case MpiP2pPath::kStagedBounce: {
      const SimTime t = o + copy_.d2h_time(bytes) + copy_.h2h_time(bytes) +
                        copy_.h2d_time(bytes);
      record_local("bounce", src, dst, bytes, t);
      engine().after(t, std::move(done));
      return;
    }

    case MpiP2pPath::kIpc: {
      const Route route = cluster_.intra_node_route(ranks_[src].gpu, ranks_[dst].gpu);
      const auto reroute = [this, sg = ranks_[src].gpu, dg = ranks_[dst].gpu] {
        return cluster_.intra_node_route(sg, dg);
      };
      SimTime pre = o + mpi.ipc_setup;
      telemetry::FlowTag tag;
      tag.stage = "ipc";
      tag.src_rank = src;
      tag.dst_rank = dst;
      tag.algorithm = ctx.algorithm;
      tag.round = ctx.round;
      if (bytes <= mpi.eager_threshold) {
        // Eager IPC: a direct small copy, no pipelined rendezvous machinery.
        post_flow(route, bytes, 1.0, mpi.ipc_eager_bw, pre, std::move(done), tag, reroute,
                  recovery_cost());
        return;
      }
      const double eff =
          (collective ? mpi.intra_coll_efficiency : mpi.intra_p2p_efficiency) *
          ramp_factor(ramp_ref, mpi.p2p_rampup);
      pre += mpi.rndv_handshake;
      post_flow(route, bytes, eff, intra_rate_cap(), pre, std::move(done), tag, reroute,
                recovery_cost());
      return;
    }

    case MpiP2pPath::kGdrRdma:
      nic_send(src, dst, MemSpace::kDevice, bytes, wire_eff_p2p, ctx, std::move(done));
      return;
  }
}

void MpiComm::coll_message(int src, int dst, Bytes bytes, Bytes op_bytes,
                           const CollContext& ctx, EventFn done) {
  transfer(src, dst, bytes, /*collective=*/true, op_bytes, ctx, std::move(done));
}

void MpiComm::send(int src, int dst, Bytes bytes, EventFn done) {
  transfer(src, dst, bytes, /*collective=*/false, bytes, CollContext{}, std::move(done));
}

std::vector<sched::Schedule> MpiComm::plan(CollectiveOp op, Bytes bytes, int root) const {
  const int n = size();
  switch (op) {
    case CollectiveOp::kAlltoall:
      // Small vectors: Bruck's algorithm — ceil(log2 n) blocking rounds, each
      // moving ~half the buffer to rank + 2^k (latency-optimal; why MPI wins
      // small collectives, Fig. 11). Larger ones: pairwise exchange.
      if (bytes <= 32_KiB && n >= 4) return {sched::bruck_alltoall(n, bytes)};
      return {sched::pairwise_alltoall(n, bytes)};
    case CollectiveOp::kAllreduce:
      // Small vectors: recursive doubling (latency-optimal, what Cray
      // MPICH's selector picks); requires a power-of-two communicator.
      if (opts_.space != MemSpace::kHost && !sys().mpi.host_staged_allreduce &&
          bytes <= 64_KiB && (n & (n - 1)) == 0 && n >= 2) {
        return {sched::recursive_doubling_allreduce(n, bytes)};
      }
      return {sched::ring_allreduce(n, bytes)};
    default:
      return Communicator::plan(op, bytes, root);
  }
}

void MpiComm::alltoall(Bytes buffer, EventFn done) {
  sched::Schedule s = plan(CollectiveOp::kAlltoall, buffer).front();
  sched::ExecHooks hooks = exec_hooks();
  hooks.message = [this, buffer](const sched::Step& step, const sched::StepCtx& ctx,
                                 EventFn msg_done) {
    transfer(step.src, step.dst, step.bytes, /*collective=*/true, buffer, coll_ctx(ctx),
             std::move(msg_done));
  };
  if (s.algorithm == sched::Algorithm::kBruckAlltoall) {
    // Blocking rounds: every rank joins the barrier before the next stride.
    sched::execute(std::move(s), hooks, std::move(done));
    return;
  }
  // Non-blocking pairwise exchange with a modest isend/irecv window (the
  // standard MPICH/Open MPI medium-message alltoall structure).
  sched::execute_windowed(std::move(s), /*window=*/4, hooks, std::move(done));
}

void MpiComm::allreduce(Bytes buffer, EventFn done) {
  if (opts_.space == MemSpace::kHost) {
    allreduce_host_staged(buffer, std::move(done));
    return;
  }
  sched::Schedule s = plan(CollectiveOp::kAllreduce, buffer).front();
  if (s.algorithm == sched::Algorithm::kRecursiveDoublingAllreduce) {
    // Each step is one collective transfer (coll_message); no launch stage.
    run_coll_schedule(std::move(s), buffer, std::nullopt, std::move(done));
    return;
  }
  if (sys().mpi.host_staged_allreduce) {
    // Open MPI 4.1's CUDA coll: bounce the whole vector through the host
    // and run the reduction there ([34]).
    std::vector<Stage> stages;
    stages.push_back([this, buffer](EventFn next) {
      auto join = JoinCounter::create(size(), std::move(next));
      for (int r = 0; r < size(); ++r) copy_.async_d2h(buffer, [join] { join->arrive(); });
    });
    stages.push_back([this, buffer](EventFn next) { allreduce_host_staged(buffer, std::move(next)); });
    stages.push_back([this, buffer](EventFn next) {
      auto join = JoinCounter::create(size(), std::move(next));
      for (int r = 0; r < size(); ++r) copy_.async_h2d(buffer, [join] { join->arrive(); });
    });
    run_stages(std::move(stages), std::move(done));
    return;
  }
  allreduce_gpu_staged(buffer, std::move(done));
}

void MpiComm::allreduce_gpu_staged(Bytes buffer, EventFn done) {
  // Ring allreduce over the rank order; the GPU-kernel staging buffer limits
  // the effective bandwidth by blk / (blk + halfpoint) (Sec. III-B).
  const double blk_factor =
      static_cast<double>(eff_.allreduce_blk) /
      static_cast<double>(eff_.allreduce_blk + sys().mpi.allreduce_blk_halfpoint);
  sched::ExecHooks hooks = exec_hooks();
  hooks.message = [this, buffer, blk_factor](const sched::Step& step,
                                             const sched::StepCtx& ctx, EventFn msg_done) {
    // Surface the block penalty as extra wire bytes on every ring transfer.
    const Bytes wire = static_cast<Bytes>(static_cast<double>(step.bytes) / blk_factor);
    transfer(step.src, step.dst, wire, /*collective=*/true, buffer, coll_ctx(ctx),
             std::move(msg_done));
  };
  hooks.reduce_time = [this](Bytes b) { return copy_.reduce_time(b); };
  sched::execute(sched::ring_allreduce(size(), buffer), hooks, std::move(done));
}

void MpiComm::allreduce_host_staged(Bytes buffer, EventFn done) {
  // Host ring: the segments move over the host path and the CPU reduces.
  sched::ExecHooks hooks = exec_hooks();
  hooks.message = [this](const sched::Step& step, const sched::StepCtx& ctx,
                         EventFn msg_done) {
    (void)ctx;
    host_send(step.src, step.dst, step.bytes, sys().mpi.net_coll_efficiency,
              std::move(msg_done));
  };
  hooks.reduce_time = [this](Bytes b) { return transfer_time(b, sys().host.reduce_bw); };
  sched::execute(sched::ring_allreduce(size(), buffer), hooks, std::move(done));
}

}  // namespace gpucomm
