#include "gpucomm/comm/ccl/ccl_comm.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

#include "gpucomm/comm/ccl/channels.hpp"
#include "gpucomm/sched/builders.hpp"
#include "gpucomm/comm/ccl/topo_detect.hpp"
#include "gpucomm/hw/nic.hpp"
#include "gpucomm/sim/log.hpp"
#include "gpucomm/topology/forwarding.hpp"
#include "gpucomm/topology/intra_node.hpp"

namespace gpucomm {

CclComm::CclComm(Cluster& cluster, std::vector<int> gpus, CommOptions options)
    : Communicator(cluster, std::move(gpus), std::move(options)),
      eff_(resolve_ccl(cluster.config().ccl, opts_.env)) {
  // NCCL_IB_SL overrides the communicator's service level when set.
  if (opts_.env.ccl_ib_sl != 0) opts_.service_level = opts_.env.ccl_ib_sl;

  for (const Rank& r : ranks_) {
    if (node_order_.empty() || node_order_.back() != r.node) node_order_.push_back(r.node);
  }

  // Topology detection for single-node communicators on non-fully-connected
  // meshes: build the directed rings *CCL would construct (two per
  // edge-disjoint Hamiltonian cycle).
  if (!multi_node()) {
    std::vector<DeviceId> devs;
    for (const Rank& r : ranks_) devs.push_back(r.gpu_dev);
    if (!fully_connected(cluster_.graph(), devs) && devs.size() >= 3) {
      std::map<DeviceId, int> to_rank;
      for (int i = 0; i < size(); ++i) to_rank[devs[i]] = i;
      for (const auto& cycle : disjoint_hamiltonian_cycles(cluster_.graph(), devs)) {
        std::vector<int> fwd;
        for (const DeviceId d : cycle) fwd.push_back(to_rank.at(d));
        std::vector<int> rev(fwd.rbegin(), fwd.rend());
        intra_rings_.push_back(std::move(fwd));
        intra_rings_.push_back(std::move(rev));
      }
      // The counterpart of NCCL_DEBUG_SUBSYS=INIT,GRAPH output the paper
      // used to diagnose Obs. 3 (set GPUCOMM_LOG=info to see it).
      if (log_level() >= LogLevel::kInfo) {
        for (const auto& ring : intra_rings_) {
          std::string desc;
          for (const int r : ring) desc += std::to_string(r) + " ";
          log_info("ccl/graph", "ring: ", desc);
        }
        for (int peer = 1; peer < size(); ++peer) {
          log_info("ccl/graph", "peer ", ranks_[0].gpu, " -> ", ranks_[peer].gpu,
                   " estimated bw ",
                   ccl_peer_bw_estimate(cluster_.graph(), devs[0], devs[peer],
                                        cluster_.config().ccl.hop_count_bw_bug) / 1e9,
                   " Gb/s");
        }
      }
    }
  }
}

bool CclComm::multi_node() const { return node_order_.size() > 1; }

bool CclComm::available(CollectiveOp op) const {
  if (opts_.space != MemSpace::kDevice) return false;  // *CCL moves GPU buffers
  const int stall = sys().ccl.alltoall_stall_ranks;
  if (op == CollectiveOp::kAlltoall && stall > 0 && size() >= stall) return false;
  return true;
}

CclComm::FlowShape CclComm::shape(Bytes bytes, Bandwidth base_cap, double big_eff,
                                  Bandwidth nominal) const {
  // Protocol auto-selection: LL (flat latency, modest rate) vs Simple
  // (pipelined, ramps to peak with size). *CCL picks per-message; we choose
  // whichever serializes faster at this size, like the real tuner.
  const CclParams& p = sys().ccl;
  const Bandwidth capped_nominal = base_cap > 0 ? std::min(nominal, base_cap) : nominal;
  const double ll_rate = std::min(p.ll_bw, capped_nominal);
  const double simple_eff = big_eff * ramp_factor(bytes, p.p2p_rampup);
  const double simple_rate = simple_eff * capped_nominal;
  if (bytes < p.ll_threshold || ll_rate >= simple_rate) {
    const Bandwidth cap = base_cap > 0 ? std::min(base_cap, p.ll_bw) : p.ll_bw;
    return {1.0, cap};
  }
  return {simple_eff, base_cap};
}

double CclComm::inter_efficiency(bool allreduce) const {
  const CclParams& p = sys().ccl;
  double eff = p.net_coll_efficiency * sys().nic.protocol_efficiency;
  if (!eff_.gdr_ok) eff *= p.gdr_disabled_bw_factor;
  if (!eff_.good_affinity) {
    eff /= allreduce ? p.bad_affinity_allreduce_factor : p.bad_affinity_alltoall_factor;
  }
  return eff;
}

double CclComm::coll_intra_eff(Bytes buffer) const {
  return sys().ccl.intra_coll_efficiency * ramp_factor(buffer, sys().ccl.p2p_rampup);
}

void CclComm::coll_transfer(int src, int dst, Bytes bytes, double simple_eff_intra,
                            SimTime pre, const CollContext& ctx, EventFn done) {
  const CclParams& p = sys().ccl;
  telemetry::FlowTag tag;
  tag.stage = "coll";
  tag.src_rank = src;
  tag.dst_rank = dst;
  tag.algorithm = ctx.algorithm;
  tag.round = ctx.round;
  if (same_node(src, dst)) {
    // Collectives build channel rings with correct topology awareness; the
    // hop-count estimate defect only affects the p2p transport (Obs. 3), so
    // only the channel-count ceiling applies here.
    const Route route = cluster_.intra_node_route(ranks_[src].gpu, ranks_[dst].gpu);
    const auto reroute = [this, sg = ranks_[src].gpu, dg = ranks_[dst].gpu] {
      return cluster_.intra_node_route(sg, dg);
    };
    const Bandwidth cap = static_cast<double>(eff_.nchannels) * p.per_channel_bw;
    const Bandwidth nominal = std::min(cap, route_bottleneck(cluster_.graph(), route));
    // LL vs Simple on the *segment* size, with the Simple efficiency coming
    // from the whole-operation ramp.
    const double ll_rate = std::min(p.ll_bw, nominal);
    const double simple_rate = simple_eff_intra * nominal;
    if (bytes < p.ll_threshold || ll_rate >= simple_rate) {
      post_flow(route, bytes, 1.0, std::min(cap, p.ll_bw), pre, std::move(done), tag, reroute,
                recovery_cost());
    } else {
      post_flow(route, bytes, simple_eff_intra, cap, pre, std::move(done), tag, reroute,
                recovery_cost());
    }
    return;
  }
  const Rank& s = ranks_[src];
  const Rank& d = ranks_[dst];
  if (!eff_.gdr_ok) pre += p.gdr_disabled_latency;
  const Route route = cluster_.inter_node_route(s.gpu_dev, s.gpu, d.gpu_dev, d.gpu);
  // The net proxy pipelines chunks across peers; no per-segment ramp.
  post_flow(route, bytes, inter_efficiency(false), 0, pre,
            count_nic_message(s, d, bytes, std::move(done)), tag,
            [this, s, d] { return cluster_.inter_node_route(s.gpu_dev, s.gpu, d.gpu_dev, d.gpu); },
            recovery_cost());
}

void CclComm::coll_message(int src, int dst, Bytes bytes, Bytes op_bytes,
                           const CollContext& ctx, EventFn done) {
  coll_transfer(src, dst, bytes, coll_intra_eff(op_bytes), SimTime::zero(), ctx,
                std::move(done));
}

SimTime CclComm::coll_launch() const { return sys().ccl.group_launch; }

void CclComm::send(int src, int dst, Bytes bytes, EventFn done) {
  const CclParams& p = sys().ccl;
  telemetry::FlowTag tag;
  tag.stage = "p2p";
  tag.src_rank = src;
  tag.dst_rank = dst;
  if (same_node(src, dst)) {
    const Route route = cluster_.intra_node_route(ranks_[src].gpu, ranks_[dst].gpu);
    const Bandwidth cap = ccl_p2p_rate_cap(cluster_.graph(), ranks_[src].gpu_dev,
                                           ranks_[dst].gpu_dev, p, eff_);
    const FlowShape fs = shape(bytes, cap, p.intra_p2p_efficiency,
                               route_bottleneck(cluster_.graph(), route));
    post_flow(route, bytes, fs.efficiency, fs.rate_cap, p.p2p_launch, std::move(done), tag,
              [this, sg = ranks_[src].gpu, dg = ranks_[dst].gpu] {
                return cluster_.intra_node_route(sg, dg);
              },
              recovery_cost());
    return;
  }
  const Rank& s = ranks_[src];
  const Rank& d = ranks_[dst];
  // Proxy-thread net path: kernel launch + proxy wakeup + NIC processing
  // dominate small inter-node transfers (Obs. 5).
  SimTime pre = p.p2p_launch + p.net_overhead + sys().nic.send_overhead;
  if (!eff_.gdr_ok) pre += p.gdr_disabled_latency;
  double eff = p.net_p2p_efficiency * sys().nic.protocol_efficiency;
  if (!eff_.gdr_ok) eff *= p.gdr_disabled_bw_factor;
  const Route route = cluster_.inter_node_route(s.gpu_dev, s.gpu, d.gpu_dev, d.gpu);
  const FlowShape fs = shape(bytes, 0, eff, sys().nic.rate);
  post_flow(route, bytes, fs.efficiency, fs.rate_cap, pre,
            count_nic_message(s, d, bytes, std::move(done)), tag,
            [this, s, d] { return cluster_.inter_node_route(s.gpu_dev, s.gpu, d.gpu_dev, d.gpu); },
            recovery_cost());
}

std::vector<sched::Schedule> CclComm::plan(CollectiveOp op, Bytes bytes, int root) const {
  const int n = size();
  switch (op) {
    case CollectiveOp::kAlltoall:
      return {sched::pairwise_alltoall(n, bytes)};
    case CollectiveOp::kAllgather:
      if (n >= 2 && !intra_rings_.empty()) {
        // Each ring carries an equal share of every rank's contribution.
        const Bytes total = bytes * static_cast<Bytes>(n);
        const Bytes per_ring = std::max<Bytes>(total / intra_rings_.size(), 1);
        std::vector<sched::Schedule> plans;
        for (const auto& ring : intra_rings_) {
          sched::Schedule s = sched::ring_allgather(
              n, std::max<Bytes>(per_ring / static_cast<Bytes>(n), 1));
          sched::remap_ranks(s, ring);
          plans.push_back(std::move(s));
        }
        return plans;
      }
      return Communicator::plan(op, bytes, root);
    case CollectiveOp::kReduceScatter:
      if (n >= 2 && !intra_rings_.empty()) {
        const Bytes per_ring = std::max<Bytes>(bytes / intra_rings_.size(), 1);
        std::vector<sched::Schedule> plans;
        for (const auto& ring : intra_rings_) {
          sched::Schedule s = sched::ring_reduce_scatter(n, per_ring);
          sched::remap_ranks(s, ring);
          plans.push_back(std::move(s));
        }
        return plans;
      }
      return Communicator::plan(op, bytes, root);
    case CollectiveOp::kAllreduce: {
      // The tuner picks the latency-optimal binomial tree only where the
      // hierarchical ring's 2(nodes-1) rounds dominate: tiny vectors on many
      // nodes (2 log2 n rounds of the full buffer instead).
      if (multi_node() && bytes <= 16_KiB && static_cast<int>(node_order_.size()) >= 16) {
        return {sched::binomial_tree_allreduce(n, bytes)};
      }
      if (!multi_node()) {
        if (!intra_rings_.empty()) {
          // LUMI: counter-rotating rings over the edge-disjoint Hamiltonian
          // cycles; each ring carries an equal share and they run
          // concurrently.
          const Bytes per_ring = bytes / intra_rings_.size();
          std::vector<sched::Schedule> plans;
          for (const auto& ring : intra_rings_) {
            sched::Schedule s = sched::ring_allreduce(static_cast<int>(ring.size()), per_ring);
            sched::remap_ranks(s, ring);
            plans.push_back(std::move(s));
          }
          return plans;
        }
        // Fully connected: direct reduce-scatter + allgather across all links.
        return {sched::all_pairs_allreduce(n, bytes)};
      }
      // Hierarchical: intra-node reduce-scatter, per-local-index inter-node
      // rings (each over its own NIC), intra-node allgather.
      const int n_local = cluster_.gpus_per_node();
      const int nodes = static_cast<int>(node_order_.size());
      assert(n == n_local * nodes && "hierarchical allreduce expects whole nodes");
      return {sched::hierarchical_allreduce(nodes, n_local, bytes)};
    }
    default:
      return Communicator::plan(op, bytes, root);
  }
}

void CclComm::alltoall(Bytes buffer, EventFn done) {
  // One grouped launch (ncclGroupStart/End around n-1 send/recv pairs, as
  // the NCCL documentation suggests [32]); the sends then stream through the
  // channel FIFOs with several messages in flight per rank.
  sched::ExecHooks hooks = exec_hooks();
  hooks.launch = straggle(sys().ccl.group_launch);
  hooks.message = [this, simple_eff = coll_intra_eff(buffer)](
                      const sched::Step& step, const sched::StepCtx& ctx, EventFn msg_done) {
    coll_transfer(step.src, step.dst, step.bytes, simple_eff, sys().ccl.per_chunk_overhead,
                  coll_ctx(ctx), std::move(msg_done));
  };
  sched::execute_windowed(plan(CollectiveOp::kAlltoall, buffer).front(), /*window=*/8, hooks,
                          std::move(done));
}

bool CclComm::run_ring_plans(std::vector<sched::Schedule> plans, Bytes op_bytes,
                             EventFn done) {
  if (plans.empty()) return false;
  auto outer = JoinCounter::create(static_cast<int>(plans.size()),
                                   [this, done = std::move(done)]() mutable {
                                     engine().after(SimTime::zero(), std::move(done));
                                   });
  for (sched::Schedule& s : plans) {
    run_coll_schedule(std::move(s), op_bytes, sys().ccl.group_launch,
                      [outer] { outer->arrive(); });
  }
  return true;
}

void CclComm::allgather(Bytes per_rank, EventFn done) {
  const int n = size();
  if (n >= 2 && !intra_rings_.empty()) {
    run_ring_plans(plan(CollectiveOp::kAllgather, per_rank),
                   per_rank * static_cast<Bytes>(n), std::move(done));
    return;
  }
  Communicator::allgather(per_rank, std::move(done));
}

void CclComm::reduce_scatter(Bytes buffer, EventFn done) {
  const int n = size();
  if (n >= 2 && !intra_rings_.empty()) {
    run_ring_plans(plan(CollectiveOp::kReduceScatter, buffer), buffer, std::move(done));
    return;
  }
  Communicator::reduce_scatter(buffer, std::move(done));
}

void CclComm::run_hierarchical(sched::Schedule s, Bytes buffer, EventFn done) {
  // The allreduce-specific affinity penalty applies to the inter-node ring
  // flows via inter_efficiency(); model the extra cost by inflating those
  // flows when affinity is bad.
  const bool bad_affinity = !eff_.good_affinity;
  const double ratio =
      sys().ccl.bad_affinity_allreduce_factor / sys().ccl.bad_affinity_alltoall_factor;
  sched::ExecHooks hooks = exec_hooks();
  hooks.launch = straggle(sys().ccl.group_launch);
  hooks.reduce_time = [this](Bytes b) { return copy_.reduce_time(b); };
  hooks.message = [this, simple_eff = coll_intra_eff(buffer), bad_affinity, ratio](
                      const sched::Step& step, const sched::StepCtx& ctx, EventFn msg_done) {
    Bytes wire = step.bytes;
    if (bad_affinity && !same_node(step.src, step.dst)) {
      wire = static_cast<Bytes>(static_cast<double>(wire) * ratio);
    }
    coll_transfer(step.src, step.dst, wire, simple_eff, SimTime::zero(), coll_ctx(ctx),
                  std::move(msg_done));
  };
  sched::execute(std::move(s), hooks, std::move(done));
}

void CclComm::allreduce(Bytes buffer, EventFn done) {
  std::vector<sched::Schedule> plans = plan(CollectiveOp::kAllreduce, buffer);
  assert(!plans.empty());
  const sched::Algorithm alg = plans.front().algorithm;

  if (alg == sched::Algorithm::kBinomialTreeAllreduce ||
      alg == sched::Algorithm::kAllPairsAllreduce) {
    run_coll_schedule(std::move(plans.front()), buffer, coll_launch(), std::move(done));
    return;
  }

  if (alg == sched::Algorithm::kRingAllreduce) {
    // LUMI: counter-rotating rings over the edge-disjoint Hamiltonian cycles
    // share one group launch and run concurrently.
    std::vector<Stage> stages;
    stages.push_back([this](EventFn next) {
      engine().after(straggle(sys().ccl.group_launch), std::move(next));
    });
    stages.push_back([this, plans = std::move(plans), buffer](EventFn next) mutable {
      auto join = JoinCounter::create(static_cast<int>(plans.size()), std::move(next));
      for (sched::Schedule& s : plans) {
        run_coll_schedule(std::move(s), buffer, std::nullopt, [join] { join->arrive(); });
      }
    });
    run_stages(std::move(stages), std::move(done));
    return;
  }

  run_hierarchical(std::move(plans.front()), buffer, std::move(done));
}

}  // namespace gpucomm
