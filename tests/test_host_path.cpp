// The host-buffer message path shared by staging, host benchmarks and Open
// MPI's host-staged allreduce (Communicator::host_send): a shared-memory copy
// between ranks of one node, a NIC message (Communicator::nic_send) between
// nodes.
#include <gtest/gtest.h>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/comm/communicator.hpp"
#include "gpucomm/systems/registry.hpp"

namespace gpucomm {
namespace {

/// Exposes the protected host path; the mechanism's operations are never
/// called.
class HostSender final : public Communicator {
 public:
  using Communicator::Communicator;
  using Communicator::host_send;

  Mechanism mechanism() const override { return Mechanism::kStaging; }
  void send(int, int, Bytes, EventFn) override {}
  void alltoall(Bytes, EventFn) override {}
  void allreduce(Bytes, EventFn) override {}
};

struct Fixture {
  SystemConfig cfg;
  Cluster cluster;
  HostSender comm;

  explicit Fixture(const std::string& name)
      : cfg(system_by_name(name)),
        cluster(cfg, {.nodes = 2, .enable_noise = false}),
        comm(cluster, {0, 1, cfg.gpus_per_node}, CommOptions{}) {}

  SimTime timed_send(int src, int dst, Bytes bytes, double eff = 1.0) {
    bool done = false;
    const SimTime start = cluster.engine().now();
    comm.host_send(src, dst, bytes, eff, [&done] { done = true; });
    cluster.engine().run_until([&done] { return done; });
    return cluster.engine().now() - start;
  }
};

TEST(HostPathTest, IntraNodeUsesSharedMemoryTiming) {
  Fixture f("leonardo");
  // Same-node send = o_send + h2h + o_recv, no network flow.
  const SimTime t = f.timed_send(0, 1, 1_MiB);
  const SimTime expected = f.cfg.mpi.o_send + f.cfg.mpi.o_recv +
                           microseconds(0.7) +  // h2h overhead
                           transfer_time(1_MiB, f.cfg.host.h2h_bw);
  EXPECT_NEAR(t.micros(), expected.micros(), 0.5);
  EXPECT_EQ(f.cluster.network().total_bits_delivered(), 0.0);
}

TEST(HostPathTest, InterNodeTraversesFabric) {
  Fixture f("leonardo");
  f.timed_send(0, 2, 1_MiB);
  EXPECT_GT(f.cluster.network().total_bits_delivered(), 1_MiB * 8.0);
}

TEST(HostPathTest, EagerVersusRendezvousStep) {
  // Crossing the eager threshold adds the rendezvous handshake.
  Fixture f("alps");
  const Bytes at = f.cfg.mpi.eager_threshold;
  const SimTime t_eager = f.timed_send(0, 2, at);
  const SimTime t_rndv = f.timed_send(0, 2, at + 1);
  const SimTime delta = t_rndv - t_eager;
  EXPECT_GT(delta, SimTime{f.cfg.mpi.rndv_handshake.ps / 2});
  EXPECT_LT(delta, f.cfg.mpi.rndv_handshake + microseconds(0.5));
}

TEST(HostPathTest, EfficiencyInflatesWireTime) {
  Fixture f("lumi");
  const SimTime t_full = f.timed_send(0, 2, 64_MiB, 1.0);
  const SimTime t_half = f.timed_send(0, 2, 64_MiB, 0.5);
  EXPECT_NEAR(t_half.seconds() / t_full.seconds(), 2.0, 0.15);
}

TEST(HostPathTest, OverheadsBracketTheWire) {
  // Sender software and NIC overhead run before the wire and the
  // receiver's after it: a 1-byte message costs both plus the wire latency.
  Fixture f("alps");
  const SimTime overheads =
      f.cfg.mpi.o_send + f.cfg.nic.send_overhead + f.cfg.mpi.o_recv + f.cfg.nic.recv_overhead;
  EXPECT_GT(f.cfg.mpi.o_send + f.cfg.nic.send_overhead, SimTime::zero());
  EXPECT_GT(f.cfg.mpi.o_recv + f.cfg.nic.recv_overhead, SimTime::zero());
  const SimTime t = f.timed_send(0, 2, 1);
  EXPECT_GT(t, overheads);
  EXPECT_LT(t, overheads + microseconds(5.0));
}

TEST(HostPathTest, LatencyOrderingAcrossSystems) {
  // IB host path is leaner than Slingshot's (Fig. 8b / Sec. V-B2).
  Fixture leo("leonardo");
  Fixture alps("alps");
  EXPECT_LT(leo.timed_send(0, 2, 1).micros(), alps.timed_send(0, 2, 1).micros());
}

}  // namespace
}  // namespace gpucomm
