// GPU-aware MPI behavioural model (Cray MPICH and Open MPI/UCX flavours).
//
// Point-to-point uses the path table in p2p.hpp. Collectives: pairwise
// exchange alltoall; allreduce is either the Cray MPICH GPU-staged ring
// (block-size-limited, Sec. III-B) or Open MPI's host-staged reduction
// ([34], Sec. IV-D) depending on the flavour.
#pragma once

#include "gpucomm/comm/communicator.hpp"
#include "gpucomm/comm/mpi/mpi_config.hpp"
#include "gpucomm/comm/mpi/p2p.hpp"

namespace gpucomm {

class MpiComm final : public Communicator {
 public:
  MpiComm(Cluster& cluster, std::vector<int> gpus, CommOptions options);

  Mechanism mechanism() const override { return Mechanism::kMpi; }

  void send(int src, int dst, Bytes bytes, EventFn done) override;
  void alltoall(Bytes buffer, EventFn done) override;
  void allreduce(Bytes buffer, EventFn done) override;

  /// MPI selector: Bruck alltoall for small vectors at n >= 4, recursive
  /// doubling allreduce for small power-of-two communicators, ring
  /// allreduce otherwise (staged through GPU or host buffers).
  std::vector<sched::Schedule> plan(CollectiveOp op, Bytes bytes, int root = 0) const override;

  const MpiEffective& effective() const { return eff_; }
  /// Path the next send of this size/pair would take (test/debug hook).
  MpiP2pPath path_for(int src, int dst, Bytes bytes) const;

 protected:
  void coll_message(int src, int dst, Bytes bytes, Bytes op_bytes, const CollContext& ctx,
                    EventFn done) override;
  /// MPI retransmits inside the transport at the message level — no
  /// communicator teardown, just the retransmission bookkeeping.
  SimTime recovery_cost() const override { return sys().recovery.mpi_retransmit; }

 private:
  /// One transfer with collective-context efficiency (per-message software
  /// overheads included; collectives pass lower wire efficiency and the
  /// whole-operation size as the pipeline-ramp reference). `ctx` attributes
  /// the flow to its schedule round.
  void transfer(int src, int dst, Bytes bytes, bool collective, Bytes ramp_ref,
                const CollContext& ctx, EventFn done);

  /// Cray MPICH GPU-staged ring allreduce.
  void allreduce_gpu_staged(Bytes buffer, EventFn done);
  /// Open MPI host-staged allreduce: D2H, host ring allreduce, H2D.
  void allreduce_host_staged(Bytes buffer, EventFn done);

  /// SDMA cap: with SDMA engaged, intra-node copies ride one IF link.
  Bandwidth intra_rate_cap() const;

  MpiEffective eff_;
};

}  // namespace gpucomm
