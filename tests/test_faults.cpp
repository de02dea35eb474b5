// Fault-injection subsystem: schedule parsing (including seeded randomized
// inputs), injector validation, mid-collective link failure + recovery for
// every mechanism, reroute correctness, recovery-cost accounting, byte
// conservation under interruption, NIC failover, straggler/degradation
// effects, and the determinism guarantees (same schedule => identical
// timeline; empty schedule => bit-identical to a fault-free run).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/cluster/placement.hpp"
#include "gpucomm/comm/ccl/ccl_comm.hpp"
#include "gpucomm/comm/devcopy.hpp"
#include "gpucomm/comm/mpi/mpi_comm.hpp"
#include "gpucomm/comm/staging.hpp"
#include "gpucomm/fault/fault_injector.hpp"
#include "gpucomm/fault/fault_schedule.hpp"
#include "gpucomm/systems/registry.hpp"
#include "gpucomm/telemetry/counters.hpp"
#include "gpucomm/telemetry/trace_export.hpp"
#include "byte_mutations.hpp"

namespace gpucomm {
namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultSchedule;

FaultEvent link_down(LinkId l, SimTime at, SimTime dur = SimTime::zero()) {
  FaultEvent e;
  e.time = at;
  e.kind = FaultKind::kLinkDown;
  e.link = l;
  e.duration = dur;
  return e;
}

FaultEvent nic_fail(DeviceId nic, SimTime at) {
  FaultEvent e;
  e.time = at;
  e.kind = FaultKind::kNicFail;
  e.dev_a = nic;
  return e;
}

FaultEvent straggler(int gpu, double factor) {
  FaultEvent e;
  e.kind = FaultKind::kStraggler;
  e.gpu = gpu;
  e.factor = factor;
  return e;
}

FaultEvent degrade(LinkId l, double factor) {
  FaultEvent e;
  e.kind = FaultKind::kLinkDegrade;
  e.link = l;
  e.factor = factor;
  return e;
}

struct Fixture {
  SystemConfig cfg;
  Cluster cluster;
  CommOptions opt;

  explicit Fixture(const std::string& name, int nodes, Placement p = Placement::kPacked)
      : cfg(system_by_name(name)),
        cluster(cfg, {.nodes = nodes, .placement = p, .enable_noise = false}) {
    opt.env = cfg.tuned_env();
  }

  std::vector<int> pair() const { return {0, cfg.gpus_per_node}; }
  std::vector<int> gpus(int n) const { return first_n_gpus(cluster, n); }

  /// Directed link ids between two devices, both directions.
  std::vector<LinkId> links_between(DeviceId a, DeviceId b) const {
    std::vector<LinkId> out;
    const Graph& g = cluster.graph();
    for (LinkId l = 0; l < g.link_count(); ++l) {
      const Link& lk = g.link(l);
      if ((lk.src == a && lk.dst == b) || (lk.src == b && lk.dst == a)) out.push_back(l);
    }
    return out;
  }

  /// The NIC wire (NIC -> first-hop switch) of a rank's nominal NIC.
  LinkId nic_wire(int gpu) const {
    const DeviceId nic = cluster.node(cluster.node_of_gpu(gpu))
                             .closest_nic[cluster.local_index(gpu)];
    for (const LinkId l : cluster.graph().out_links(nic)) {
      if (cluster.graph().link(l).type == LinkType::kNicWire) return l;
    }
    return kInvalidLink;
  }
};

// --- schedule parsing -------------------------------------------------------

TEST(FaultSchedule, ParsesTheDocumentedGrammar) {
  const std::string text =
      "# header comment\n"
      "at 100us down link 42\n"
      "at 100us down link 3-17\n"
      "at 100us down link 42 for 200us\n"
      "at 300us up link 42\n"
      "at 0s degrade link 42 0.25\n"
      "at 50us fail nic 12\n"
      "at 50us fail switch 7\n"
      "at 0s straggle gpu 3 2.5\n";
  std::string err;
  const auto sched = fault::parse_fault_schedule(text, &err);
  ASSERT_TRUE(sched.has_value()) << err;
  ASSERT_EQ(sched->events.size(), 8u);
  EXPECT_EQ(sched->events[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(sched->events[0].link, 42u);
  EXPECT_EQ(sched->events[0].time, microseconds(100.0));
  EXPECT_EQ(sched->events[1].dev_a, 3u);
  EXPECT_EQ(sched->events[1].dev_b, 17u);
  EXPECT_EQ(sched->events[2].duration, microseconds(200.0));
  EXPECT_EQ(sched->events[3].kind, FaultKind::kLinkUp);
  EXPECT_DOUBLE_EQ(sched->events[4].factor, 0.25);
  EXPECT_EQ(sched->events[5].kind, FaultKind::kNicFail);
  EXPECT_EQ(sched->events[6].kind, FaultKind::kSwitchFail);
  EXPECT_EQ(sched->events[7].kind, FaultKind::kStraggler);
  EXPECT_DOUBLE_EQ(sched->events[7].factor, 2.5);
}

TEST(FaultSchedule, MalformedLinesReportLineNumbers) {
  std::string err;
  EXPECT_FALSE(fault::parse_fault_schedule("at 1us down link 4\nat nonsense\n", &err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_FALSE(fault::parse_fault_schedule("at 1us degrade link 4 1.5\n", &err));
  EXPECT_FALSE(fault::parse_fault_schedule("at 1us straggle gpu 0 0.5\n", &err));
}

TEST(FaultSchedule, MalformedSpecTableRejectsWithOneLineErrors) {
  // The --faults contract (docs and exit-2 CLI behavior) is strict: every
  // malformed spec draws a single-line diagnostic, never a partial schedule
  // or a silent coercion. One table, one row per way a spec can go wrong.
  const char* bad[] = {
      "down link 4",                      // missing "at <time>"
      "at down link 4",                   // missing the time itself
      "at 1 down link 4",                 // time without a unit
      "at 1lightyears down link 4",       // unknown time unit
      "at -1us down link 4",              // negative time
      "at 1us explode link 4",            // unknown verb
      "at 1us down router 4",             // unknown target kind
      "at 1us down link",                 // missing target id
      "at 1us down link four",            // non-numeric target id
      "at 1us down link -4",              // negative target id
      "at 1us down link 4-",              // half-open device pair
      "at 1us down link 4 for",           // "for" without a duration
      "at 1us down link 4 for 2",         // duration without a unit
      "at 1us down link 4 extra",         // trailing garbage
      "at 1us degrade link 4",            // degrade without a factor
      "at 1us degrade link 4 0.5 0.5",    // degrade with two factors
      "at 1us degrade link 4 -0.5",       // factor below the (0,1) range
      "at 1us straggle gpu 0",            // straggler without a factor
      "at 1us straggle gpu 0 nine",       // non-numeric factor
      "at 1us fail nic",                  // fail without a device
      "at 1us up",                        // up without a target
      "at 1e30s down link 0",             // time past the end of SimTime
      "at 9300000s down link 0",          // just past it (2^63 ps is ~9.22e6 s)
      "at nanus down link 0",             // NaN time
      "at infms down link 0",             // infinite time
      "at 1us down link 0 for infus",     // infinite duration
      "at 9000000s down link 0 for 9000000s",  // restore time past SimTime
      "at 1us degrade link 0 nan",        // NaN passes no (0, 1] check
      "at 1us straggle gpu 0 nan",        // NaN passes no >= 1 check
      "at 1us straggle gpu 0 inf",        // infinite straggle factor
  };
  for (const char* text : bad) {
    std::string err;
    EXPECT_FALSE(fault::parse_fault_schedule(std::string(text) + "\n", &err).has_value())
        << text;
    EXPECT_FALSE(err.empty()) << text;
    EXPECT_EQ(err.find('\n'), std::string::npos) << text << ": " << err;
  }
}

TEST(FaultSchedule, LargestRepresentableTimesStillParse) {
  std::string err;
  const auto sched = fault::parse_fault_schedule(
      "at 9000000s down link 0 for 200000s\nat 9223372036854774000ps up link 0\n", &err);
  ASSERT_TRUE(sched.has_value()) << err;
  EXPECT_EQ(sched->events[0].time, seconds(9e6));
  EXPECT_LT(sched->events[1].time, SimTime::infinity());
}

TEST(FaultSchedule, RandomMutationsYieldAScheduleOrOneLineError) {
  // Seeded flips, inserts, deletes and truncations of a valid schedule:
  // the parser returns a schedule whose every number is in range, or one
  // single-line error — never an exception or undefined behaviour.
  const std::string valid =
      "# comment\n"
      "at 100us down link 42\n"
      "at 100us down link 3-17\n"
      "at 1.5ms down link 42 for 200us\n"
      "at 300us up link 42\n"
      "at 0s degrade link 42 0.25\n"
      "at 50ns fail nic 12\n"
      "at 2e3ps fail switch 7\n"
      "at 0s straggle gpu 3 2.5\n";
  Rng rng(1234);
  std::size_t accepted = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::string text = test::mutate(valid, rng);
    std::string err;
    std::optional<FaultSchedule> sched;
    ASSERT_NO_THROW(sched = fault::parse_fault_schedule(text, &err)) << text;
    if (!sched.has_value()) {
      EXPECT_FALSE(err.empty()) << text;
      EXPECT_EQ(err.find('\n'), std::string::npos) << err;
      continue;
    }
    ++accepted;
    for (const FaultEvent& e : sched->events) {
      EXPECT_GE(e.time, SimTime::zero()) << text;
      EXPECT_GE(e.duration, SimTime::zero()) << text;
      EXPECT_LT(e.duration.ps, SimTime::infinity().ps - e.time.ps) << text;
      EXPECT_TRUE(std::isfinite(e.factor)) << text;
    }
  }
  EXPECT_GT(accepted, 100u);  // the corpus also exercises accepted schedules
}

// --- injector validation ----------------------------------------------------

TEST(FaultInjector, RejectsTargetsOutsideTheGraph) {
  Fixture f("leonardo", 1);
  const LinkId bogus = static_cast<LinkId>(f.cluster.graph().link_count());
  EXPECT_THROW(fault::FaultInjector(f.cluster, {{link_down(bogus, SimTime::zero())}}),
               std::invalid_argument);
  // "fail nic" on a GPU device: wrong kind.
  EXPECT_THROW(
      fault::FaultInjector(f.cluster, {{nic_fail(f.cluster.gpu_device(0), SimTime::zero())}}),
      std::invalid_argument);
  EXPECT_THROW(fault::FaultInjector(f.cluster, {{straggler(999, 2.0)}}),
               std::invalid_argument);
}

// --- link down mid-collective, per mechanism --------------------------------

/// Run an inter-node allreduce healthy, then again on a fresh cluster with
/// rank 0's NIC wire cut transiently mid-operation. The op must complete,
/// recover (not abort), and cost at least the detection delay extra.
template <typename Comm>
void expect_recovers(const std::string& system, Bytes bytes) {
  Fixture healthy(system, 2);
  Comm ch(healthy.cluster, healthy.gpus(healthy.cluster.total_gpus()), healthy.opt);
  const SimTime t0 = ch.time_allreduce(bytes);
  ASSERT_FALSE(ch.last_op_failed());

  Fixture faulty(system, 2);
  const LinkId wire = faulty.nic_wire(0);
  ASSERT_NE(wire, kInvalidLink);
  const Graph& g = faulty.cluster.graph();
  const SimTime mid{t0.ps / 2};
  FaultSchedule sched;
  // Cut both directions of the wire, restore after a short outage.
  for (const LinkId l : faulty.links_between(g.link(wire).src, g.link(wire).dst)) {
    sched.events.push_back(link_down(l, mid, microseconds(50.0)));
  }
  fault::FaultInjector inj(faulty.cluster, sched);
  Comm cf(faulty.cluster, faulty.gpus(faulty.cluster.total_gpus()), faulty.opt);
  const SimTime t1 = cf.time_allreduce(bytes);
  EXPECT_FALSE(cf.last_op_failed()) << system;
  // Either the op finished before the cut (impossible: mid < t0) or it paid
  // at least one detection period on some path.
  EXPECT_GE(t1.ps, t0.ps) << system;
  EXPECT_GE(t1 - t0, faulty.cfg.recovery.detect - microseconds(50.0)) << system;
  EXPECT_EQ(inj.links_down(), 0);  // transient outage fully restored
}

TEST(FaultRecovery, CclAllreduceRecoversFromTransientLinkDown) {
  expect_recovers<CclComm>("leonardo", 4_MiB);
}

TEST(FaultRecovery, MpiAllreduceRecoversFromTransientLinkDown) {
  expect_recovers<MpiComm>("leonardo", 4_MiB);
}

TEST(FaultRecovery, StagingAllreduceRecoversFromTransientLinkDown) {
  expect_recovers<StagingComm>("alps", 4_MiB);
}

TEST(FaultRecovery, DevcopyRecoversFromIntraNodeLinkDown) {
  // Device copies never leave the node: cut the direct GPU0<->GPU1 fabric
  // link mid-transfer and let the host-mediated retry reroute around it.
  Fixture healthy("leonardo", 1);
  DeviceCopyComm ch(healthy.cluster, {0, 1}, healthy.opt);
  const SimTime t0 = ch.time_send(0, 1, 64_MiB);

  Fixture faulty("leonardo", 1);
  FaultSchedule sched;
  for (const LinkId l :
       faulty.links_between(faulty.cluster.gpu_device(0), faulty.cluster.gpu_device(1))) {
    sched.events.push_back(link_down(l, SimTime{t0.ps / 2}, microseconds(100.0)));
  }
  ASSERT_FALSE(sched.events.empty());
  fault::FaultInjector inj(faulty.cluster, sched);
  DeviceCopyComm cf(faulty.cluster, {0, 1}, faulty.opt);
  const SimTime t1 = cf.time_send(0, 1, 64_MiB);
  EXPECT_FALSE(cf.last_op_failed());
  EXPECT_GT(t1, t0);
}

// --- reroute correctness ----------------------------------------------------

TEST(FaultReroute, NoFlowCrossesALinkThatDiedBeforeItStarted) {
  Fixture f("leonardo", 1);
  // Cut the direct GPU0<->GPU1 link before any traffic: every route must
  // detour, and no flow may ever cross the dead pair.
  FaultSchedule sched;
  const auto dead =
      f.links_between(f.cluster.gpu_device(0), f.cluster.gpu_device(1));
  ASSERT_FALSE(dead.empty());
  for (const LinkId l : dead) sched.events.push_back(link_down(l, SimTime::zero()));
  fault::FaultInjector inj(f.cluster, sched);

  telemetry::TraceRecorder rec(&f.cluster.graph());
  f.cluster.set_telemetry(&rec);
  CclComm comm(f.cluster, f.gpus(4), f.opt);
  const SimTime t = comm.time_allreduce(8_MiB);
  EXPECT_GT(t, SimTime::zero());
  EXPECT_FALSE(comm.last_op_failed());

  ASSERT_FALSE(rec.flows().empty());
  for (const auto& flow : rec.flows()) {
    for (const LinkId l : flow.route) {
      EXPECT_EQ(std::count(dead.begin(), dead.end(), l), 0)
          << "flow crossed dead link " << l;
    }
  }
}

TEST(FaultReroute, RetriesAfterMidOpCutAvoidTheDeadLink) {
  Fixture probe("leonardo", 2);
  MpiComm cp(probe.cluster, probe.pair(), probe.opt);
  const SimTime t0 = cp.time_allreduce(16_MiB);

  Fixture f("leonardo", 2);
  const LinkId wire = f.nic_wire(0);
  const Graph& g = f.cluster.graph();
  // 0.3*t0 lands inside the first wire round; t0/2 would fall in the gap
  // between the reduce and allgather rounds, where nothing is in flight.
  const SimTime mid{3 * t0.ps / 10};
  FaultSchedule sched;
  const auto dead = f.links_between(g.link(wire).src, g.link(wire).dst);
  for (const LinkId l : dead) sched.events.push_back(link_down(l, mid));  // permanent
  fault::FaultInjector inj(f.cluster, sched);

  telemetry::TraceRecorder rec(&f.cluster.graph());
  f.cluster.set_telemetry(&rec);
  MpiComm comm(f.cluster, f.pair(), f.opt);
  const SimTime t1 = comm.time_allreduce(16_MiB);
  EXPECT_FALSE(comm.last_op_failed());
  EXPECT_GT(t1, t0);

  // At least one flow died on the cut...
  EXPECT_GE(f.cluster.network().flows_interrupted(), 1u);
  // ...and everything posted after the cut took a different path. (Flows
  // started earlier legitimately crossed the then-healthy wire.)
  int post_fault_flows = 0;
  for (const auto& flow : rec.flows()) {
    if (flow.issued <= mid) continue;
    ++post_fault_flows;
    for (const LinkId l : flow.route) {
      EXPECT_EQ(std::count(dead.begin(), dead.end(), l), 0)
          << "post-fault flow crossed dead link " << l;
    }
  }
  EXPECT_GT(post_fault_flows, 0);
}

// --- recovery cost / failure accounting -------------------------------------

TEST(FaultRecovery, ExhaustedRetriesMarkTheOperationFailed) {
  Fixture f("leonardo", 2);
  // Fail every NIC of node 0 permanently: node 0 is unreachable, recovery
  // retries exhaust, the op completes (barriers drain) but reports failure.
  FaultSchedule sched;
  for (const DeviceId nic : f.cluster.node(0).nics) {
    sched.events.push_back(nic_fail(nic, microseconds(1.0)));
  }
  fault::FaultInjector inj(f.cluster, sched);
  MpiComm comm(f.cluster, f.pair(), f.opt);
  const SimTime t = comm.time_allreduce(1_MiB);
  EXPECT_TRUE(comm.last_op_failed());
  // The abandoned attempts cost at least one detection period.
  EXPECT_GE(t, f.cfg.recovery.detect);
}

TEST(FaultRecovery, NicFailureFailsOverToAPeerNic) {
  Fixture f("leonardo", 2);
  // Fail only rank 0's nominal NIC before any traffic: routing falls over to
  // one of the node's other NICs, the op completes without failure.
  const DeviceId nominal = f.cluster.node(0).closest_nic[0];
  FaultSchedule sched;
  sched.events.push_back(nic_fail(nominal, SimTime::zero()));
  fault::FaultInjector inj(f.cluster, sched);

  telemetry::TraceRecorder rec(&f.cluster.graph());
  f.cluster.set_telemetry(&rec);
  MpiComm comm(f.cluster, f.pair(), f.opt);
  const SimTime t = comm.time_allreduce(1_MiB);
  EXPECT_GT(t, SimTime::zero());
  EXPECT_FALSE(comm.last_op_failed());
  // No flow touches any link attached to the dead NIC.
  for (const auto& flow : rec.flows()) {
    for (const LinkId l : flow.route) {
      const Link& lk = f.cluster.graph().link(l);
      EXPECT_TRUE(lk.src != nominal && lk.dst != nominal)
          << "flow used a link of the failed NIC";
    }
  }
}

// --- byte conservation ------------------------------------------------------

/// After a drained run: posted == delivered + full payloads of killed flows,
/// and the network's interrupted-bits counter matches the partials the trace
/// recorder saw.
void expect_conservation(Cluster& cluster, const telemetry::TraceRecorder& rec) {
  double killed_full_bits = 0;
  double killed_partial_bits = 0;
  for (const auto& flow : rec.flows()) {
    if (!flow.interrupted) continue;
    killed_full_bits += static_cast<double>(flow.bytes) * 8.0;
    killed_partial_bits += static_cast<double>(flow.partial_bytes) * 8.0;
  }
  const Network& net = cluster.network();
  EXPECT_NEAR(net.total_bits_posted(), net.total_bits_delivered() + killed_full_bits,
              64.0 + 1e-9 * net.total_bits_posted());
  EXPECT_NEAR(net.total_bits_interrupted(), killed_partial_bits,
              64.0 * static_cast<double>(net.flows_interrupted()) + 1.0);
  EXPECT_LE(net.total_bits_interrupted(), net.total_bits_posted());
}

template <typename Comm>
void conservation_case(const std::string& system, int nodes, std::vector<int> gpus,
                       Bytes bytes) {
  Fixture probe(system, nodes);
  Comm cp(probe.cluster, gpus, probe.opt);
  const SimTime t0 = cp.time_allreduce(bytes);

  Fixture f(system, nodes);
  const LinkId wire = f.nic_wire(0);
  ASSERT_NE(wire, kInvalidLink);
  const Graph& g = f.cluster.graph();
  FaultSchedule sched;
  // 0.3*t0 lands inside an active wire round for every mechanism here.
  for (const LinkId l : f.links_between(g.link(wire).src, g.link(wire).dst)) {
    sched.events.push_back(link_down(l, SimTime{3 * t0.ps / 10}, microseconds(80.0)));
  }
  fault::FaultInjector inj(f.cluster, sched);
  telemetry::TraceRecorder rec(&f.cluster.graph());
  f.cluster.set_telemetry(&rec);
  Comm comm(f.cluster, gpus, f.opt);
  (void)comm.time_allreduce(bytes);
  EXPECT_FALSE(comm.last_op_failed()) << system;
  expect_conservation(f.cluster, rec);
}

TEST(FaultConservation, CclBytesBalanceUnderInterruption) {
  conservation_case<CclComm>("leonardo", 2, {0, 1, 2, 3, 4, 5, 6, 7}, 16_MiB);
}

TEST(FaultConservation, MpiBytesBalanceUnderInterruption) {
  conservation_case<MpiComm>("leonardo", 2, {0, 4}, 16_MiB);
}

TEST(FaultConservation, StagingBytesBalanceUnderInterruption) {
  conservation_case<StagingComm>("alps", 2, {0, 4}, 16_MiB);
}

TEST(FaultConservation, DevcopyBytesBalanceUnderIntraNodeInterruption) {
  Fixture probe("leonardo", 1);
  DeviceCopyComm cp(probe.cluster, {0, 1}, probe.opt);
  const SimTime t0 = cp.time_send(0, 1, 64_MiB);

  Fixture f("leonardo", 1);
  FaultSchedule sched;
  for (const LinkId l :
       f.links_between(f.cluster.gpu_device(0), f.cluster.gpu_device(1))) {
    sched.events.push_back(link_down(l, SimTime{t0.ps / 2}, microseconds(80.0)));
  }
  fault::FaultInjector inj(f.cluster, sched);
  telemetry::TraceRecorder rec(&f.cluster.graph());
  f.cluster.set_telemetry(&rec);
  DeviceCopyComm comm(f.cluster, {0, 1}, f.opt);
  (void)comm.time_send(0, 1, 64_MiB);
  EXPECT_FALSE(comm.last_op_failed());
  EXPECT_GE(f.cluster.network().flows_interrupted(), 1u);
  expect_conservation(f.cluster, rec);
}

// --- degradation and stragglers ---------------------------------------------

TEST(FaultDegrade, CapacityDegradationSlowsMonotonically) {
  const auto timed = [](double factor) {
    Fixture f("leonardo", 1);
    std::unique_ptr<fault::FaultInjector> inj;
    if (factor < 1.0) {
      FaultSchedule sched;
      for (const LinkId l :
           f.links_between(f.cluster.gpu_device(0), f.cluster.gpu_device(1))) {
        sched.events.push_back(degrade(l, factor));
      }
      inj = std::make_unique<fault::FaultInjector>(f.cluster, sched);
    }
    CclComm comm(f.cluster, f.gpus(4), f.opt);
    return comm.time_allreduce(64_MiB);
  };
  const SimTime full = timed(1.0);
  const SimTime half = timed(0.5);
  const SimTime quarter = timed(0.25);
  EXPECT_GE(half, full);
  EXPECT_GE(quarter, half);
  EXPECT_GT(quarter, full);
}

TEST(FaultStraggler, LaunchInflationSlowsTheCollective) {
  const auto timed = [](double factor) {
    Fixture f("leonardo", 1);
    std::unique_ptr<fault::FaultInjector> inj;
    if (factor > 1.0) {
      inj = std::make_unique<fault::FaultInjector>(f.cluster,
                                                   FaultSchedule{{straggler(0, factor)}});
    }
    CclComm comm(f.cluster, f.gpus(4), f.opt);
    return comm.time_allreduce(64_KiB);
  };
  const SimTime healthy = timed(1.0);
  const SimTime slow = timed(25.0);
  EXPECT_GT(slow, healthy);
}

// --- determinism ------------------------------------------------------------

TEST(FaultDeterminism, SameScheduleSameSeedIsPicosecondIdentical) {
  const auto run = [] {
    Fixture f("leonardo", 2);
    const LinkId wire = f.nic_wire(0);
    const Graph& g = f.cluster.graph();
    FaultSchedule sched;
    for (const LinkId l : f.links_between(g.link(wire).src, g.link(wire).dst)) {
      sched.events.push_back(link_down(l, microseconds(120.0), microseconds(300.0)));
    }
    sched.events.push_back(straggler(0, 2.0));
    fault::FaultInjector inj(f.cluster, sched);
    CclComm comm(f.cluster, f.gpus(f.cluster.total_gpus()), f.opt);
    std::vector<std::int64_t> ps;
    ps.push_back(comm.time_allreduce(8_MiB).ps);
    ps.push_back(comm.time_alltoall(1_MiB).ps);
    ps.push_back(comm.time_allreduce(8_MiB).ps);
    return ps;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultDeterminism, EmptyScheduleIsBitIdenticalToNoInjector) {
  const auto run = [](bool with_injector) {
    Fixture f("leonardo", 2);
    std::unique_ptr<fault::FaultInjector> inj;
    if (with_injector) {
      inj = std::make_unique<fault::FaultInjector>(f.cluster, FaultSchedule{});
    }
    std::vector<std::int64_t> ps;
    {
      CclComm ccl(f.cluster, f.gpus(f.cluster.total_gpus()), f.opt);
      ps.push_back(ccl.time_allreduce(8_MiB).ps);
      ps.push_back(ccl.time_alltoall(1_MiB).ps);
    }
    {
      MpiComm mpi(f.cluster, f.pair(), f.opt);
      ps.push_back(mpi.time_allreduce(8_MiB).ps);
      ps.push_back(mpi.time_pingpong(0, 1, 64_KiB).ps);
    }
    {
      StagingComm st(f.cluster, f.pair(), f.opt);
      ps.push_back(st.time_allreduce(1_MiB).ps);
    }
    return ps;
  };
  EXPECT_EQ(run(false), run(true));
}

// --- pinned recovery timings ------------------------------------------------

// Each row runs three 1 MiB operations back to back on one communicator over
// ranks 0 and gpus_per_node of a 2-node cluster, under a --faults spec, and
// pins the summed time, the iterations abandoned by the recovery model and
// the flows the faults interrupted. Host-buffer wires (staging, MPI host
// buffers) retry at recovery.host_retry and MPI GPU-buffer RDMA messages at
// recovery.mpi_retransmit, so swapping either cost moves a row.
struct RecoveryRow {
  const char* system;
  const char* mechanism;
  MemSpace space;
  const char* op;  // "pingpong" or "allreduce"
  const char* faults;
  std::int64_t ps;
  int fails;
  std::uint64_t interrupted;
};

// Links 24040, 24540 and 36552 are node 0's first NIC wire (NIC -> switch)
// and NIC 833 is Leonardo node 0's first NIC.
constexpr RecoveryRow kRecoveryGolden[] = {
    // Transient wire cut mid-message: one retry, which succeeds.
    {"leonardo", "mpi", MemSpace::kHost, "pingpong", "at 20us down link 24040 for 300us",
     3005963200, 0, 1},
    {"leonardo", "mpi", MemSpace::kHost, "allreduce", "at 20us down link 24040 for 300us",
     2889156481, 0, 1},
    {"leonardo", "mpi", MemSpace::kDevice, "pingpong", "at 20us down link 24040 for 300us",
     2820463200, 0, 1},
    {"alps", "mpi", MemSpace::kHost, "pingpong", "at 20us down link 24540 for 300us", 634491760,
     0, 1},
    {"alps", "mpi", MemSpace::kHost, "allreduce", "at 20us down link 24540 for 300us", 572693335,
     0, 1},
    {"alps", "mpi", MemSpace::kDevice, "pingpong", "at 20us down link 24540 for 300us",
     516581760, 0, 1},
    {"lumi", "mpi", MemSpace::kHost, "pingpong", "at 20us down link 36552 for 300us", 683231760,
     0, 1},
    {"lumi", "mpi", MemSpace::kHost, "allreduce", "at 20us down link 36552 for 300us", 686045283,
     0, 1},
    {"lumi", "mpi", MemSpace::kDevice, "pingpong", "at 20us down link 36552 for 300us",
     515831760, 0, 1},
    // Permanent NIC failure mid-wire: the retry fails over to a peer NIC.
    {"leonardo", "staging", MemSpace::kDevice, "pingpong", "at 60us fail nic 833", 3585651206, 0,
     1},
    {"leonardo", "staging", MemSpace::kDevice, "allreduce", "at 60us fail nic 833", 3174469211,
     0, 2},
    // Both nodes hang off switch 0: every iteration exhausts its retries.
    // MPI's wire is interrupted; staging's starts after the failure, so its
    // retries find no route at all.
    {"leonardo", "mpi", MemSpace::kHost, "pingpong", "at 10us fail switch 0", 380418880000, 3, 1},
    {"leonardo", "staging", MemSpace::kDevice, "pingpong", "at 10us fail switch 0", 380999070552,
     3, 0},
};

TEST(FaultGolden, RecoveryTimingsArePicosecondPinned) {
  for (const RecoveryRow& row : kRecoveryGolden) {
    SCOPED_TRACE(std::string(row.system) + " " + row.mechanism + " " + row.op + ", " +
                 row.faults);
    Fixture f(row.system, 2);
    std::string err;
    const auto sched = fault::parse_fault_schedule(row.faults, &err);
    ASSERT_TRUE(sched.has_value()) << err;
    fault::FaultInjector inj(f.cluster, *sched);
    CommOptions opt = f.opt;
    opt.space = row.space;
    const auto comm = make_comm(*mechanism_named(row.mechanism), f.cluster, f.pair(), opt);
    const bool pingpong = std::string(row.op) == "pingpong";
    std::int64_t ps = 0;
    int fails = 0;
    for (int i = 0; i < 3; ++i) {
      ps += (pingpong ? comm->time_pingpong(0, 1, 1_MiB) : comm->time_allreduce(1_MiB)).ps;
      fails += comm->last_op_failed() ? 1 : 0;
    }
    EXPECT_EQ(ps, row.ps);
    EXPECT_EQ(fails, row.fails);
    EXPECT_EQ(f.cluster.network().flows_interrupted(), row.interrupted);
  }
}

TEST(FaultGolden, PinnedFaultTargetsAreNodeZerosFirstNic) {
  const std::pair<const char*, LinkId> wires[] = {
      {"leonardo", 24040}, {"alps", 24540}, {"lumi", 36552}};
  for (const auto& [system, wire] : wires) {
    const Fixture f(system, 2);
    EXPECT_EQ(f.nic_wire(0), wire) << system;
    EXPECT_EQ(f.cluster.graph().link(wire).src, f.cluster.node(0).nics.front()) << system;
  }
  EXPECT_EQ(Fixture("leonardo", 2).cluster.node(0).nics.front(), 833);
}

// --- telemetry --------------------------------------------------------------

TEST(FaultTelemetry, DowntimeCountersAndTraceEventsRecorded) {
  Fixture f("leonardo", 2);
  telemetry::CounterSet counters(f.cluster.graph());
  telemetry::TraceRecorder rec(&f.cluster.graph());
  telemetry::MultiSink sinks;
  sinks.add(&counters);
  sinks.add(&rec);
  f.cluster.set_telemetry(&sinks);

  const LinkId wire = f.nic_wire(0);
  fault::FaultInjector inj(
      f.cluster, {{link_down(wire, microseconds(100.0), microseconds(250.0))}});
  f.cluster.engine().run();
  counters.finalize(f.cluster.engine().now());

  EXPECT_EQ(counters.link(wire).failures, 1u);
  EXPECT_EQ(counters.link(wire).downtime, microseconds(250.0));
  ASSERT_EQ(rec.faults().size(), 2u);
  EXPECT_FALSE(rec.faults()[0].up);
  EXPECT_TRUE(rec.faults()[1].up);
  EXPECT_EQ(rec.faults()[0].link, wire);
  EXPECT_EQ(rec.faults()[1].at - rec.faults()[0].at, microseconds(250.0));
}

TEST(FaultTelemetry, InterruptedFlowsCloseTheirLinkAccounting) {
  Fixture f("leonardo", 2);
  telemetry::CounterSet counters(f.cluster.graph());
  f.cluster.set_telemetry(&counters);

  Fixture probe("leonardo", 2);
  MpiComm cp(probe.cluster, probe.pair(), probe.opt);
  const SimTime t0 = cp.time_allreduce(16_MiB);

  const LinkId wire = f.nic_wire(0);
  const Graph& g = f.cluster.graph();
  FaultSchedule sched;
  // 0.3*t0 is inside the first wire round (t0/2 is the inter-round gap).
  for (const LinkId l : f.links_between(g.link(wire).src, g.link(wire).dst)) {
    sched.events.push_back(link_down(l, SimTime{3 * t0.ps / 10}, microseconds(80.0)));
  }
  fault::FaultInjector inj(f.cluster, sched);
  MpiComm comm(f.cluster, f.pair(), f.opt);
  (void)comm.time_allreduce(16_MiB);
  counters.finalize(f.cluster.engine().now());

  // Every link's active-flow count returned to zero: interruptions closed
  // their intervals instead of leaking active flows.
  std::uint64_t interruptions = 0;
  for (LinkId l = 0; l < g.link_count(); ++l) {
    EXPECT_EQ(counters.link(l).active, 0) << "link " << l;
    interruptions += counters.link(l).flows_interrupted;
  }
  EXPECT_GE(interruptions, 1u);
}

}  // namespace
}  // namespace gpucomm
