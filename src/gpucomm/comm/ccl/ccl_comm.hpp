// NCCL / RCCL behavioural model.
//
// Captures the traits the paper measures: kernel-launch/group overhead per
// operation (Obs. 5), channel-limited p2p rate with the RCCL hop-count
// defect (Obs. 3), LL/Simple protocol selection, topology-aware collectives
// (rings over the LUMI GCD mesh, all-pairs exchange on fully connected
// NVLink nodes), GDR-level and CPU-affinity tuning effects (Sec. III-B), and
// the large-scale alltoall stall (Sec. V-C).
#pragma once

#include <vector>

#include "gpucomm/comm/ccl/ccl_config.hpp"
#include "gpucomm/comm/communicator.hpp"

namespace gpucomm {

class CclComm final : public Communicator {
 public:
  CclComm(Cluster& cluster, std::vector<int> gpus, CommOptions options);

  Mechanism mechanism() const override { return Mechanism::kCcl; }
  bool available(CollectiveOp op) const override;

  void send(int src, int dst, Bytes bytes, EventFn done) override;
  void alltoall(Bytes buffer, EventFn done) override;
  void allreduce(Bytes buffer, EventFn done) override;
  /// Topology-aware on non-fully-connected nodes: the ring phases run over
  /// the detected edge-disjoint rings instead of the flat rank order.
  void allgather(Bytes per_rank, EventFn done) override;
  void reduce_scatter(Bytes buffer, EventFn done) override;

  /// *CCL tuner: binomial tree for tiny vectors at scale, counter-rotating
  /// intra-node rings on mesh nodes (one schedule per ring), all-pairs
  /// exchange on fully connected nodes, hierarchical rings across nodes.
  std::vector<sched::Schedule> plan(CollectiveOp op, Bytes bytes, int root = 0) const override;

  const CclEffective& effective() const { return eff_; }

 protected:
  void coll_message(int src, int dst, Bytes bytes, Bytes op_bytes, const CollContext& ctx,
                    EventFn done) override;
  SimTime coll_launch() const override;
  /// *CCL has no transparent message retry: a dead transfer aborts the
  /// communicator, and recovery re-initializes it before the retransmission.
  SimTime recovery_cost() const override { return sys().recovery.ccl_reinit; }

 private:
  struct FlowShape {
    double efficiency = 1.0;
    Bandwidth rate_cap = 0;
  };
  /// Protocol selection: LL below the threshold (flat-latency, modest rate),
  /// Simple with pipeline ramp above it; picks the faster of the two at this
  /// size given the path's nominal rate.
  FlowShape shape(Bytes bytes, Bandwidth base_cap, double big_eff, Bandwidth nominal) const;

  /// One transfer inside a collective (no per-op launch; that is added once).
  /// `simple_eff_intra` is the Simple-protocol efficiency computed from the
  /// *whole* collective buffer (chunks pipeline across rounds, so the ramp
  /// depends on the operation size, not the per-segment size). `ctx`
  /// attributes the flow to its schedule round.
  void coll_transfer(int src, int dst, Bytes bytes, double simple_eff_intra, SimTime pre,
                     const CollContext& ctx, EventFn done);

  /// Simple-protocol intra-node efficiency for a collective of this size.
  double coll_intra_eff(Bytes buffer) const;

  bool multi_node() const;
  double inter_efficiency(bool allreduce) const;

  /// Run per-ring schedules concurrently, each with its own group launch,
  /// joining on a trailing zero-delay hop (the intra-ring allgather /
  /// reduce-scatter shape). Returns false when `plans` is empty.
  bool run_ring_plans(std::vector<sched::Schedule> plans, Bytes op_bytes, EventFn done);

  /// Hierarchical allreduce executor: inflates the inter-node ring flows
  /// when CPU affinity is bad (the allreduce-specific penalty).
  void run_hierarchical(sched::Schedule s, Bytes buffer, EventFn done);

  CclEffective eff_;
  /// Directed intra-node rings (rank sequences) for non-fully-connected
  /// nodes (LUMI); empty when the all-pairs path is used.
  std::vector<std::vector<int>> intra_rings_;
  /// rank index by (node order, local gpu index) for the hierarchical phase.
  std::vector<int> node_order_;  // distinct nodes, in rank order
};

}  // namespace gpucomm
