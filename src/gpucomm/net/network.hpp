// Event-driven flow-level network.
//
// Transfers are fluid flows over a fixed route. Whenever the active set
// changes, rates are recomputed with max-min fairness (fairshare.hpp) and the
// earliest completion is scheduled. On completion the flow's payload has been
// serialized; delivery fires after the route's propagation latency plus any
// sampled queueing delay from the noise field (network noise, Sec. VI).
//
// Service levels: a flow carries a virtual-lane id. Background production
// noise lives on one VL (Leonardo's default service level 0); flows on that
// VL see reduced link capacity and stochastic per-hop queueing delays, flows
// on other VLs are isolated (separate switch buffering + round-robin
// arbitration, Sec. VI-A).
//
// Solver core: rates are not recomputed over the whole network on every
// event. The active set is stored as struct-of-arrays slots with intrusive
// flow lists per link and per switch, and each reallocation partitions the
// affected flows into connected components (flows coupled through shared
// links, plus shared switches when congestion coupling is enabled), solves
// each component as an independent subproblem, and splices the rates back.
// Events that cannot be localized (link state changes, noise epochs, model
// rewiring) fall back to a full partitioned solve. The partition keeps a
// spanning tree over each component it closes. When the last solve held
// every active flow in one subproblem, the flows that completed since were
// its own, the survivors repair the tree (each whose parent left takes a
// strictly shallower flow on a shared list as its parent) and every started
// flow shares a list with a survivor, the active set is provably one
// component again: the partition is skipped, the completed flows are
// dropped from the kept translation and the started ones appended.
// Every subproblem is one connected component with one tree root.
// Components are solved one after another in discovery order; because they
// share no links and the allocation cache is exact-compare, the resulting
// rates are byte-identical to the kFullResolve reference mode
// (docs/PERFORMANCE.md § Determinism contract, tests/test_network).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gpucomm/fault/fault_model.hpp"
#include "gpucomm/net/fairshare.hpp"
#include "gpucomm/net/solver_stats.hpp"
#include "gpucomm/sim/engine.hpp"
#include "gpucomm/sim/random.hpp"
#include "gpucomm/telemetry/sink.hpp"
#include "gpucomm/topology/graph.hpp"

namespace gpucomm {

using FlowId = std::uint64_t;

struct FlowSpec {
  FlowSpec() = default;
  FlowSpec(Route r, Bytes b, int vlane = 0, Bandwidth cap = 0)
      : route(std::move(r)), bytes(b), vl(vlane), rate_cap(cap) {}

  Route route;
  Bytes bytes = 0;
  int vl = 0;
  /// Per-flow rate ceiling (implementation limits: *CCL channels, protocol
  /// efficiency). 0 means uncapped.
  Bandwidth rate_cap = 0;
  /// Telemetry attribution (who posted this flow and why). Ignored when no
  /// sink is attached.
  telemetry::FlowTag tag;
  /// Pre-issued telemetry token; 0 lets the network issue one itself.
  telemetry::FlowToken token = 0;
  /// Invoked (via the engine, zero delay) if a fault kills a link on the
  /// route before delivery: `serialized` counts the wire bytes already sent.
  /// The flow's on_delivered callback will never fire. Unset = the payload
  /// is silently lost (fire-and-forget traffic like background noise must
  /// set this to keep its stream alive).
  std::function<void(Bytes serialized, SimTime now)> on_interrupted;
};

/// Stochastic model of interfering production traffic (see noise/).
class NoiseField {
 public:
  virtual ~NoiseField() = default;
  /// Fraction of `link`'s capacity consumed by background traffic on the
  /// noisy VL right now, in [0, 1).
  virtual double background_utilization(LinkId link) const = 0;
  /// The service level production traffic is mapped to (0 on Leonardo).
  virtual int noisy_vl() const { return 0; }
  /// Sampled additional queueing delay for one message crossing `link` on the
  /// noisy VL.
  virtual SimTime queueing_delay(LinkId link) = 0;
  /// Start a new background epoch (called by the harness between
  /// iterations). A field may defer the draws to the first read that needs
  /// them, so an epoch nobody reads costs nothing, provided every read
  /// answers as if they had run here.
  virtual void resample() = 0;
  /// Monotone stamp that changes whenever background_utilization()'s answers
  /// may have changed (i.e. on resample). The incremental solver re-solves
  /// only affected components and must know when link capacities moved under
  /// it; a changed version forces a full re-solve. Return 0 (the default) to
  /// declare the field unversioned — correct but slow: every reallocation
  /// then falls back to a full solve while noise is attached.
  virtual std::uint64_t version() const { return 0; }
};

/// Shared-buffer congestion coupling (see SystemConfig::CongestionParams):
/// an incast saturating a link with many flows degrades co-located same-VL
/// traffic crossing the affected switch.
struct SwitchCongestion {
  int flow_threshold = 4;
  double rate_factor = 1.0;
};

/// How reallocation events are turned into fairshare subproblems.
enum class SolverMode {
  /// Solve only the connected components touched by the event; full
  /// partitioned solve on fallback. The default.
  kIncremental,
  /// Re-partition and re-solve every component from scratch on every event:
  /// the pre-PR-7 cost model (O(network) per event) with the per-component
  /// subproblem decomposition. Reference mode for the differential tests —
  /// bit-identical to kIncremental, because both solve only connected
  /// components and untouched components re-solve the same subproblem the
  /// incremental mode skips. (A literal whole-set-as-one-subproblem solve is
  /// NOT bit-stable against any decomposition: the fairshare solver's 1e-12
  /// freeze tolerance lets one component's fill level capture a flow in
  /// another whose own share ties within an ulp. The 45 pinned regression
  /// timings pin the per-component result to the PR 6 whole-set behavior on
  /// every real scenario.)
  kFullResolve,
};

class Network {
 public:
  Network(Engine& engine, const Graph& graph);
  ~Network();  // folds solver_stats() into net::SolverStatsRegistry::global()

  /// Attach interfering-traffic model; nullptr disables noise. Non-owning.
  void set_noise(NoiseField* noise);
  NoiseField* noise() const { return noise_; }

  /// Attach the fault subsystem's link-state provider; nullptr (the default)
  /// keeps every code path branch-identical to a machine that never breaks.
  /// Non-owning.
  void set_faults(const fault::FaultModel* faults);
  const fault::FaultModel* faults() const { return faults_; }

  void set_congestion(SwitchCongestion c);

  /// Attach a telemetry sink; nullptr (the default) disables instrumentation
  /// and keeps the simulation path branch-identical to an untraced run.
  /// Non-owning.
  void set_telemetry(telemetry::Sink* sink);
  telemetry::Sink* telemetry() const { return telemetry_; }

  /// Select the solving strategy. Rates are bit-identical in both modes;
  /// only wall-clock and the solver counters differ.
  void set_solver_mode(SolverMode mode) { mode_ = mode; }

  /// Live solver counters for this network (see solver_stats.hpp).
  const net::SolverStats& solver_stats() const { return stats_; }

  /// Begin a transfer. `on_delivered` fires (via the engine) when the last
  /// byte has arrived at the destination.
  FlowId start_flow(FlowSpec spec, std::function<void(SimTime)> on_delivered);

  std::size_t active_flows() const { return order_.size(); }

  /// Current allocated rate of a flow (0 if unknown/finished). A binary
  /// search of the active set, which is kept in FlowId order. Test hook.
  Bandwidth flow_rate(FlowId id) const;

  /// Bits delivered since construction (all flows). Test hook.
  double total_bits_delivered() const { return bits_delivered_; }

  /// Bits posted since construction (payload of every started flow). Under
  /// interruption, posted = delivered + interrupted-partials + in-flight
  /// residual, the conservation law tests check.
  double total_bits_posted() const { return bits_posted_; }

  /// Wire bits that had serialized on flows later killed by a fault.
  double total_bits_interrupted() const { return bits_interrupted_; }
  std::uint64_t flows_interrupted() const { return flows_interrupted_; }

  /// Re-evaluate every active flow against the fault provider: flows
  /// crossing a downed link are interrupted (partial bytes accounted, the
  /// spec's on_interrupted fired via the engine), and surviving flows are
  /// re-rated against the new capacities. Called by the fault injector after
  /// it flips link state; a no-op without a provider.
  void on_link_state_change();

 private:
  /// Solver context (fairshare solver, subproblem scratch, exact-compare
  /// allocation cache, congestion scratch). Defined in network.cpp.
  struct SolverCtx;

  /// A flow leaving the active set, with everything deliver()/interrupt()
  /// still need after its slot has been recycled.
  struct RemovedFlow {
    FlowId id = 0;
    Route route;
    int vl = 0;
    double total_bits = 0;
    double residual_bits = 0;
    telemetry::FlowToken token = 0;
    std::function<void(SimTime)> on_delivered;
    std::function<void(Bytes, SimTime)> on_interrupted;
  };

  /// Why the next reallocation must be a full partitioned solve.
  enum class FullReason : std::uint8_t { kNone, kFirst, kLinkState, kNoise, kConfig };

  /// Effective capacity of a link for traffic on `vl`, net of noise.
  Bandwidth effective_capacity(LinkId link, int vl) const;

  void mark_dirty();
  void reallocate_and_schedule();
  void advance_residuals();
  void on_completion_event();
  void deliver(RemovedFlow&& flow);
  /// Account + report a fault-killed flow and fire its on_interrupted.
  void interrupt(RemovedFlow&& flow);
  /// True when any link of `route` is currently down.
  bool route_has_down_link(const Route& route) const;

  // --- slot management ---
  std::uint32_t acquire_slot();
  /// Detach `slot` from the active set (entry lists; order_ position handled
  /// by the caller's compaction) and move its payload out.
  RemovedFlow extract_flow(std::uint32_t slot);
  void link_flow_entries(std::uint32_t slot);
  void unlink_flow_entries(std::uint32_t slot);
  /// Grow the per-link/per-device tables to the graph's current size.
  void ensure_tables();
  void request_full_solve(FullReason reason);

  // --- partitioning ---
  /// Append the connected component containing `seed_slot` (nothing if
  /// already visited this epoch) to comp_slots_ / comp_offset_, sorted by
  /// FlowId, with `seed_slot` as its tree root: drain the lists of every
  /// link and (under congestion closure) every switch its flows touch,
  /// until no flow is added.
  void bfs_component(std::uint32_t seed_slot);
  /// Enqueue the unvisited flows of one link's (or, with `head` =
  /// switch_head_, one switch's) entry list, unless it was drained already,
  /// as tree children of `parent`.
  void drain_list(const std::vector<std::int32_t>& head, std::vector<std::uint64_t>& mark,
                  std::uint32_t key, std::uint32_t parent);
  /// Whether closing a component must drain link `l`'s own list: always
  /// without the congestion closure, and under it only when neither
  /// endpoint is a switch (whose list already holds every flow on `l`).
  bool link_needs_drain(LinkId l);
  /// Partition every active flow into components (order_ walk).
  void partition_all();
  /// The first flow satisfying `pred` on a list `slot`'s flow is on that the
  /// partition drains: its route links' lists where link_needs_drain holds,
  /// then its switch lists. kNoSlot when there is none.
  template <typename Pred>
  std::uint32_t find_on_drained_lists(std::uint32_t slot, Pred pred);
  /// Whether the active set is provably still the one component of the last
  /// whole-set solve (whole_set_flows_): its surviving flows stay connected
  /// (repair_tree) and every started flow joins them (whole_set_grows).
  /// Sets `kept` to the leading flows ctx_->problem still translates.
  bool whole_set_holds(std::uint32_t& kept);
  /// Re-parent each of the first `survivors` flows of order_ whose tree
  /// parent left to a strictly shallower flow on one of its drained lists.
  /// False when one finds none or the tree's root left.
  bool repair_tree(std::uint32_t survivors);
  /// Whether every started flow, order_[kept..], shares a drained list with
  /// one of the first `kept` flows; each takes that flow as tree parent.
  bool whole_set_grows(std::uint32_t kept);
  /// Remove whole_set_left_'s flows from ctx_->problem, leaving it the
  /// translation of order_'s first `survivors` flows. False when a fresh
  /// translation is needed instead.
  bool drop_left_flows(std::uint32_t survivors);

  // --- solving ---
  /// Solve every comp_offset_ range in order and write rates (and telemetry
  /// trace state) back to the slots. The first range's leading `kept` flows
  /// are still translated in ctx_->problem (kept = 0: translate afresh).
  void solve_components(std::uint32_t kept);
  void solve_component(std::uint32_t begin, std::uint32_t end, std::uint32_t kept);
  /// Post-allocation congestion coupling for one component: degrade flows
  /// crossing switches with an incast-saturated port on their VL.
  void apply_congestion_component(const std::uint32_t* slots, std::uint32_t count);
  /// Emit flow_rate / flow_throttled / link_saturated for the allocation just
  /// computed, reconstructed from the persisted per-slot/per-link trace state
  /// in the exact order the pre-PR-7 whole-set solver emitted them. Only called when
  /// a telemetry sink is attached.
  void emit_allocation();

  Engine& engine_;
  const Graph& graph_;
  NoiseField* noise_ = nullptr;
  const fault::FaultModel* faults_ = nullptr;
  telemetry::Sink* telemetry_ = nullptr;

  // --- active flows, struct-of-arrays, indexed by slot ---
  // Slots are recycled through free_slots_; order_ lists the live slots in
  // ascending FlowId (insertion) order and is compacted stably on removal,
  // which keeps every per-link arithmetic sequence identical to the
  // pre-PR-7 reference. Routes and callbacks live in parallel arrays so the
  // hot scans (residual advance, deadline scan) touch only small PODs.
  std::vector<FlowId> id_;
  std::vector<Route> route_;
  std::vector<int> vl_;
  std::vector<Bandwidth> rate_cap_;
  std::vector<double> total_bits_;
  std::vector<double> residual_bits_;
  std::vector<Bandwidth> rate_;
  std::vector<telemetry::FlowToken> token_;
  std::vector<LinkId> bottleneck_;  // last solve's throttle attribution
  std::vector<std::int32_t> ent_head_;     // first link entry of the flow, -1
  std::vector<std::int32_t> sw_ent_head_;  // first switch entry of the flow, -1
  std::vector<std::function<void(SimTime)>> on_delivered_;
  std::vector<std::function<void(Bytes, SimTime)>> on_interrupted_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> order_;  // live slots, ascending FlowId

  // --- per-link and per-switch intrusive flow-entry lists ---
  // One entry per (flow, route link) occurrence and, while the congestion
  // closure is on, one per (flow, distinct switch endpoint of a route link):
  // doubly linked within the link's or switch's list (O(hop) removal),
  // singly linked within the flow's link or switch list. This is what makes
  // component discovery O(component), not O(network), with and without the
  // congestion closure.
  std::vector<std::uint32_t> ent_slot_;
  std::vector<std::uint32_t> ent_key_;  // LinkId, or DeviceId of a switch
  std::vector<std::int32_t> ent_next_, ent_prev_;  // within the key's list
  std::vector<std::int32_t> ent_next_flow_;
  std::vector<std::int32_t> link_head_;    // per link, -1 = no active flows
  std::vector<std::int32_t> switch_head_;  // per device, -1 = none (or not a switch)
  std::vector<std::int32_t> free_entries_;

  // --- partition scratch (epoch-stamped, never cleared) ---
  std::vector<std::uint64_t> slot_mark_, link_mark_, dev_mark_;
  std::uint64_t mark_epoch_ = 0;
  std::vector<std::uint32_t> comp_slots_;   // concatenated component slots
  std::vector<std::uint32_t> comp_offset_;  // component i = [off[i], off[i+1])
  // Congestion closure (rate_factor < 1): flows are on switch lists and
  // components expand through them. Set by set_congestion.
  bool closure_switches_ = false;
  // Per link, filled on first use by link_needs_drain: 0 = not yet known,
  // 1 = no switch endpoint, 2 = a switch endpoint.
  std::vector<std::uint8_t> link_switch_;

  // --- event seeds accumulated between coalesced reallocations ---
  std::vector<std::uint32_t> pending_new_slots_;  // flows started since last
  std::vector<LinkId> pending_seed_links_;        // links of removed flows
  FullReason full_reason_ = FullReason::kFirst;
  std::uint64_t noise_version_seen_ = 0;
  // When the last reallocation solved the whole active set as one subproblem
  // (of at least kCacheMaxFlows flows), its flow count: ctx_->problem still
  // holds the translation of those flows, for graph_ at whole_set_links_
  // links. 0 once a full solve is requested. whole_set_left_ holds the
  // positions in that subproblem of the flows that completed since.
  std::uint32_t whole_set_flows_ = 0;
  std::size_t whole_set_links_ = 0;
  std::vector<std::uint32_t> whole_set_left_;
  // Spanning tree over each component the partition closes, per slot: a
  // flow it shares a drained list with (parent; 0 for a root) and its depth,
  // strictly greater than the parent's, so parents lead every flow to a
  // root. parent is compared with id_[parent_slot], which extract_flow
  // clears, so a freed or recycled slot never passes for a live parent.
  // Flows started since the last solve have depth kUnreached.
  struct TreeNode {
    FlowId parent = 0;
    std::uint32_t parent_slot = 0;
    std::uint32_t depth = 0;
  };
  std::vector<TreeNode> tree_;

  // --- solving state ---
  SolverMode mode_ = SolverMode::kIncremental;
  std::unique_ptr<SolverCtx> ctx_;
  // Persisted telemetry trace state (filled only when telemetry_ is set):
  // which links the last allocation saturated and by how many flows. Emission
  // walks the active set, so stale entries for unused links are never read.
  std::vector<char> link_sat_;
  std::vector<int> link_sat_count_;
  std::vector<std::uint64_t> link_vis_;  // emission first-visit dedupe
  std::uint64_t vis_epoch_ = 0;

  SwitchCongestion congestion_;
  FlowId next_id_ = 1;
  SimTime last_advance_;
  bool realloc_pending_ = false;
  EventId completion_event_ = 0;
  bool completion_scheduled_ = false;
  double bits_delivered_ = 0;
  double bits_posted_ = 0;
  double bits_interrupted_ = 0;
  std::uint64_t flows_interrupted_ = 0;

  net::SolverStats stats_;
  // Removal scratch reused across events.
  std::vector<RemovedFlow> removed_scratch_;
};

}  // namespace gpucomm
