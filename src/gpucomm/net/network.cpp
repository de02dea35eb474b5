#include "gpucomm/net/network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace gpucomm {

namespace {
// Residuals below this are treated as complete (guards FP rounding).
constexpr double kEpsilonBits = 1e-6;
// Separates flows inside the allocation key. Link ids are < link_count and
// the double bit patterns in the key come from finite capacities, so the
// sentinel cannot collide with a payload word.
constexpr std::uint64_t kKeyDelimiter = UINT64_MAX;
// Allocation cache: FIFO ring of exact-compare entries, sized so
// the steady-state component mix of a large alltoall (many small recurring
// subproblems) stays resident. Only components under kCacheMaxFlows flows
// are keyed, looked up and stored: a larger component's membership changes
// with nearly every start or completion, so it does not recur (on the fig09
// exact-sim alltoall cells, 0 hits in 42,454 lookups of components of 32 or
// more flows), and the bound keeps every entry small.
constexpr std::size_t kCacheEntries = 128;
constexpr std::uint32_t kCacheMaxFlows = 32;
// No slot: find_on_drained_lists' miss.
constexpr std::uint32_t kNoSlot = UINT32_MAX;
// Tree depth of a flow started since the last solve: never a parent.
constexpr std::uint32_t kUnreached = UINT32_MAX;

std::uint64_t hash_key(const std::vector<std::uint64_t>& key) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over 64-bit words
  for (const std::uint64_t w : key) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

/// Everything the solver needs to turn a component into rates: the fairshare
/// solver, the component's route translation, the exact-compare allocation
/// cache and congestion-coupling scratch.
struct Network::SolverCtx {
  FairshareSolver solver;
  FairshareTrace trace;
  // The component's routes translated to dense link slots, read by the fill
  // and the congestion pass; slot_vl[s] is the VL problem.capacity[s] was
  // computed for, and slot_mixed[s] says flows of another VL crossed it
  // too. emptied counts the slots that removals left with no crossing
  // since the last fresh translation.
  SlotProblem problem;
  std::vector<int> slot_vl;
  std::vector<char> slot_mixed;
  std::size_t emptied = 0;
  std::vector<std::uint64_t> key;

  struct CacheEntry {
    std::uint64_t hash = 0;
    std::vector<std::uint64_t> key;
    std::vector<Bandwidth> rates;  // post-congestion
    // Telemetry trace of the cached allocation; filled only when the key's
    // trace bit is set (so untraced entries never serve a traced lookup).
    std::vector<LinkId> bottleneck;
    std::vector<std::pair<LinkId, int>> saturated;
  };
  std::vector<CacheEntry> cache;  // FIFO ring, capacity kCacheEntries
  std::size_t cache_next = 0;

  // Congestion scratch, over the fill's link slots. One SlotVl per (slot,
  // vl) with flows, chained per slot, and only on slots crossed by at least
  // flow_threshold flows: no (link, vl) on a lighter one can reach the
  // threshold. cg_hop[k] is hop k's SlotVl (-1 on a light slot). One DevVl
  // per warm (switch, vl), chained per device (epoch-stamped).
  struct SlotVl {
    int vl = 0;
    int count = 0;
    double sum = 0;
    std::int32_t flows_head = -1;
    std::int32_t next = -1;
    std::uint32_t slot = 0;
    bool congested = false;
  };
  struct DevVl {
    int vl = 0;
    std::int32_t next = -1;
  };
  std::vector<std::int32_t> cg_slot_first, cg_hop;
  std::vector<SlotVl> cg_svl;
  std::vector<std::uint64_t> cg_dev_epoch;
  std::vector<std::int32_t> cg_dev_first;
  std::vector<DevVl> cg_dvl;
  std::vector<std::uint32_t> cg_ent_slot;
  std::vector<std::int32_t> cg_ent_next;
  std::vector<DeviceId> cg_origins;
  std::uint64_t cg_epoch = 0;
};

Network::Network(Engine& engine, const Graph& graph)
    : engine_(engine),
      graph_(graph),
      ctx_(std::make_unique<SolverCtx>()),
      last_advance_(engine.now()) {}

Network::~Network() { net::SolverStatsRegistry::global().add(solver_stats()); }

void Network::set_noise(NoiseField* noise) {
  noise_ = noise;
  request_full_solve(FullReason::kConfig);
}

void Network::set_faults(const fault::FaultModel* faults) {
  faults_ = faults;
  request_full_solve(FullReason::kConfig);
}

void Network::set_congestion(SwitchCongestion c) {
  congestion_ = c;
  // Flows sit on per-switch entry lists only while the congestion closure
  // reads them, so relist the active flows when it turns on or off.
  const bool closure = c.rate_factor < 1.0;
  if (closure != closure_switches_) {
    closure_switches_ = closure;
    for (const std::uint32_t slot : order_) {
      unlink_flow_entries(slot);
      link_flow_entries(slot);
    }
  }
  request_full_solve(FullReason::kConfig);
}

void Network::set_telemetry(telemetry::Sink* sink) {
  telemetry_ = sink;
  request_full_solve(FullReason::kConfig);
}

void Network::request_full_solve(FullReason reason) {
  // First cause wins: a pending kFirst/kLinkState is not downgraded.
  if (full_reason_ == FullReason::kNone) full_reason_ = reason;
  // Whatever forced the full solve may have moved a kept slot's capacity.
  whole_set_flows_ = 0;
}

Bandwidth Network::effective_capacity(LinkId link, int vl) const {
  Bandwidth cap = graph_.link(link).capacity;
  if (faults_ != nullptr) cap *= faults_->capacity_factor(link);
  if (noise_ != nullptr && vl == noise_->noisy_vl()) {
    const double bg = std::clamp(noise_->background_utilization(link), 0.0, 0.95);
    cap *= (1.0 - bg);
  }
  return cap;
}

bool Network::route_has_down_link(const Route& route) const {
  for (const LinkId l : route) {
    if (!faults_->link_up(l)) return true;
  }
  return false;
}

void Network::ensure_tables() {
  const std::size_t links = graph_.link_count();
  if (link_head_.size() < links) {
    link_head_.resize(links, -1);
    link_mark_.resize(links, 0);
    link_sat_.resize(links, 0);
    link_sat_count_.resize(links, 0);
    link_vis_.resize(links, 0);
    link_switch_.resize(links, 0);
  }
  const std::size_t devices = graph_.device_count();
  if (switch_head_.size() < devices) {
    switch_head_.resize(devices, -1);
    dev_mark_.resize(devices, 0);
  }
}

Bandwidth Network::flow_rate(FlowId id) const {
  const auto it = std::lower_bound(
      order_.begin(), order_.end(), id,
      [this](std::uint32_t slot, FlowId want) { return id_[slot] < want; });
  return it != order_.end() && id_[*it] == id ? rate_[*it] : 0;
}

std::uint32_t Network::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(id_.size());
  id_.push_back(0);
  route_.emplace_back();
  vl_.push_back(0);
  rate_cap_.push_back(0);
  total_bits_.push_back(0);
  residual_bits_.push_back(0);
  rate_.push_back(0);
  token_.push_back(0);
  bottleneck_.push_back(kInvalidLink);
  ent_head_.push_back(-1);
  sw_ent_head_.push_back(-1);
  on_delivered_.emplace_back();
  on_interrupted_.emplace_back();
  slot_mark_.push_back(0);
  tree_.emplace_back();
  return slot;
}

void Network::link_flow_entries(std::uint32_t slot) {
  // Push one entry for `slot` onto the front of `key`'s list in `heads` and
  // of the flow's own list starting at `flow_head`.
  const auto push = [this, slot](std::vector<std::int32_t>& heads, std::uint32_t key,
                                 std::int32_t& flow_head) {
    std::int32_t e;
    if (!free_entries_.empty()) {
      e = free_entries_.back();
      free_entries_.pop_back();
      ent_slot_[e] = slot;
      ent_key_[e] = key;
    } else {
      e = static_cast<std::int32_t>(ent_slot_.size());
      ent_slot_.push_back(slot);
      ent_key_.push_back(key);
      ent_next_.push_back(-1);
      ent_prev_.push_back(-1);
      ent_next_flow_.push_back(-1);
    }
    ent_prev_[e] = -1;
    ent_next_[e] = heads[key];
    if (heads[key] != -1) ent_prev_[heads[key]] = e;
    heads[key] = e;
    ent_next_flow_[e] = flow_head;
    flow_head = e;
  };
  std::int32_t links = -1, switches = -1;
  for (const LinkId l : route_[slot]) {
    push(link_head_, l, links);
    if (!closure_switches_) continue;
    const Link& lk = graph_.link(l);
    for (const DeviceId d : {lk.src, lk.dst}) {
      if (graph_.device(d).kind != DeviceKind::kSwitch) continue;
      bool listed = false;
      for (std::int32_t e = switches; e != -1 && !listed; e = ent_next_flow_[e]) {
        listed = ent_key_[e] == d;
      }
      if (!listed) push(switch_head_, d, switches);
    }
  }
  ent_head_[slot] = links;
  sw_ent_head_[slot] = switches;
}

void Network::unlink_flow_entries(std::uint32_t slot) {
  const auto unlink = [this](std::vector<std::int32_t>& heads, std::int32_t& flow_head) {
    for (std::int32_t e = flow_head; e != -1;) {
      const std::int32_t next = ent_next_flow_[e];
      if (ent_prev_[e] != -1) {
        ent_next_[ent_prev_[e]] = ent_next_[e];
      } else {
        heads[ent_key_[e]] = ent_next_[e];
      }
      if (ent_next_[e] != -1) ent_prev_[ent_next_[e]] = ent_prev_[e];
      free_entries_.push_back(e);
      e = next;
    }
    flow_head = -1;
  };
  unlink(link_head_, ent_head_[slot]);
  unlink(switch_head_, sw_ent_head_[slot]);
}

FlowId Network::start_flow(FlowSpec spec, std::function<void(SimTime)> on_delivered) {
  ensure_tables();
  const FlowId id = next_id_++;
  const double total_bits = static_cast<double>(spec.bytes) * 8.0;
  bits_posted_ += total_bits;

  telemetry::FlowToken token = 0;
  if (telemetry_ != nullptr) {
    token = spec.token != 0 ? spec.token
                            : telemetry_->issue(spec.tag, spec.bytes, engine_.now());
    telemetry_->flow_started(token, spec.tag, spec.route, spec.vl, spec.bytes,
                             engine_.now());
  }

  // A flow posted onto a route with a downed link dies immediately (zero
  // bytes serialized) instead of joining the active set: no traffic ever
  // crosses a dead link.
  if (faults_ != nullptr && route_has_down_link(spec.route)) {
    RemovedFlow dead;
    dead.id = id;
    dead.route = std::move(spec.route);
    dead.vl = spec.vl;
    dead.total_bits = total_bits;
    dead.residual_bits = total_bits;
    dead.token = token;
    dead.on_interrupted = std::move(spec.on_interrupted);
    interrupt(std::move(dead));
    return id;
  }

  if (total_bits <= 0 || (spec.route.empty() && spec.rate_cap <= 0)) {
    // No constraint at all: deliver after latency only.
    RemovedFlow instant;
    instant.id = id;
    instant.route = std::move(spec.route);
    instant.vl = spec.vl;
    instant.total_bits = total_bits;
    instant.token = token;
    instant.on_delivered = std::move(on_delivered);
    deliver(std::move(instant));
    return id;
  }

  advance_residuals();
  const std::uint32_t slot = acquire_slot();
  id_[slot] = id;
  route_[slot] = std::move(spec.route);
  vl_[slot] = spec.vl;
  rate_cap_[slot] = spec.rate_cap;
  total_bits_[slot] = total_bits;
  residual_bits_[slot] = total_bits;
  rate_[slot] = 0;
  token_[slot] = token;
  bottleneck_[slot] = kInvalidLink;
  on_delivered_[slot] = std::move(on_delivered);
  on_interrupted_[slot] = std::move(spec.on_interrupted);
  tree_[slot] = {0, 0, kUnreached};
  order_.push_back(slot);
  link_flow_entries(slot);
  pending_new_slots_.push_back(slot);
  mark_dirty();
  return id;
}

Network::RemovedFlow Network::extract_flow(std::uint32_t slot) {
  unlink_flow_entries(slot);
  RemovedFlow f;
  f.id = id_[slot];
  id_[slot] = 0;  // no tree child takes the freed slot for its parent
  f.route = std::move(route_[slot]);
  f.vl = vl_[slot];
  f.total_bits = total_bits_[slot];
  f.residual_bits = residual_bits_[slot];
  f.token = token_[slot];
  f.on_delivered = std::move(on_delivered_[slot]);
  f.on_interrupted = std::move(on_interrupted_[slot]);
  on_delivered_[slot] = nullptr;
  on_interrupted_[slot] = nullptr;
  free_slots_.push_back(slot);
  return f;
}

void Network::mark_dirty() {
  if (realloc_pending_) return;
  realloc_pending_ = true;
  // Zero-delay event: coalesces a whole batch of starts/completions at the
  // same timestamp into one rate computation.
  engine_.after(SimTime::zero(), [this] {
    realloc_pending_ = false;
    reallocate_and_schedule();
  });
}

void Network::advance_residuals() {
  const SimTime now = engine_.now();
  if (now == last_advance_) return;
  const double dt = (now - last_advance_).seconds();
  for (const std::uint32_t slot : order_) {
    residual_bits_[slot] = std::max(0.0, residual_bits_[slot] - rate_[slot] * dt);
  }
  last_advance_ = now;
}

void Network::drain_list(const std::vector<std::int32_t>& head, std::vector<std::uint64_t>& mark,
                         std::uint32_t key, std::uint32_t parent) {
  if (mark[key] == mark_epoch_) return;
  mark[key] = mark_epoch_;
  const TreeNode child{id_[parent], parent, tree_[parent].depth + 1};
  for (std::int32_t e = head[key]; e != -1; e = ent_next_[e]) {
    const std::uint32_t s = ent_slot_[e];
    if (slot_mark_[s] != mark_epoch_) {
      slot_mark_[s] = mark_epoch_;
      comp_slots_.push_back(s);
      tree_[s] = child;
    }
  }
}

bool Network::link_needs_drain(LinkId l) {
  if (!closure_switches_) return true;
  // Under the switch closure, every flow on a link with a switch endpoint is
  // on that switch's list, which the closure drains anyway.
  std::uint8_t& kind = link_switch_[l];
  if (kind == 0) {
    const Link& lk = graph_.link(l);
    const bool adjacent = graph_.device(lk.src).kind == DeviceKind::kSwitch ||
                          graph_.device(lk.dst).kind == DeviceKind::kSwitch;
    kind = adjacent ? 2 : 1;
  }
  return kind == 1;
}

void Network::bfs_component(std::uint32_t seed_slot) {
  if (slot_mark_[seed_slot] == mark_epoch_) return;
  const std::size_t start = comp_slots_.size();
  slot_mark_[seed_slot] = mark_epoch_;
  comp_slots_.push_back(seed_slot);
  tree_[seed_slot] = {};
  // Frontier drain: each discovered slot drains the lists of its route's
  // links, which enqueue further slots. Index-based because comp_slots_
  // grows in place.
  for (std::size_t i = start; i < comp_slots_.size(); ++i) {
    const std::uint32_t slot = comp_slots_[i];
    for (const LinkId l : route_[slot]) {
      if (link_needs_drain(l)) drain_list(link_head_, link_mark_, l, slot);
    }
    if (!closure_switches_) continue;
    // Congestion couples flows through shared switch buffers even when they
    // share no link: a hot flow warms every switch on its route and same-VL
    // flows crossing those switches are degraded (apply_congestion_component).
    // Components therefore close over the switch endpoints of member flows'
    // links -- and only those: an empty switch-to-switch link must not chain
    // the whole fabric into one component.
    for (std::int32_t e = sw_ent_head_[slot]; e != -1; e = ent_next_flow_[e]) {
      drain_list(switch_head_, dev_mark_, ent_key_[e], slot);
    }
  }
  const std::size_t size = comp_slots_.size() - start;
  // Component members solve in ascending FlowId order so every per-link
  // subtraction sequence matches the whole-set solver it replaced, bit for
  // bit. order_ already holds the whole active set in that order.
  const auto first = comp_slots_.begin() + static_cast<std::ptrdiff_t>(start);
  if (size == order_.size()) {
    std::copy(order_.begin(), order_.end(), first);
  } else {
    std::sort(first, comp_slots_.end(),
              [this](std::uint32_t a, std::uint32_t b) { return id_[a] < id_[b]; });
  }
  comp_offset_.push_back(static_cast<std::uint32_t>(comp_slots_.size()));
}

void Network::partition_all() {
  for (const std::uint32_t slot : order_) bfs_component(slot);
}

template <typename Pred>
std::uint32_t Network::find_on_drained_lists(std::uint32_t slot, Pred pred) {
  const auto scan = [this, &pred](const std::vector<std::int32_t>& head, std::uint32_t key) {
    for (std::int32_t e = head[key]; e != -1; e = ent_next_[e]) {
      if (pred(ent_slot_[e])) return ent_slot_[e];
    }
    return kNoSlot;
  };
  for (const LinkId l : route_[slot]) {
    if (!link_needs_drain(l)) continue;
    if (const std::uint32_t s = scan(link_head_, l); s != kNoSlot) return s;
  }
  for (std::int32_t e = sw_ent_head_[slot]; e != -1; e = ent_next_flow_[e]) {
    if (const std::uint32_t s = scan(switch_head_, ent_key_[e]); s != kNoSlot) return s;
  }
  return kNoSlot;
}

bool Network::whole_set_holds(std::uint32_t& kept) {
  if (whole_set_flows_ == 0 || graph_.link_count() != whole_set_links_) return false;
  const auto survivors =
      static_cast<std::uint32_t>(whole_set_flows_ - whole_set_left_.size());
  if (whole_set_left_.empty()) {
    // Nothing changed: the seeded BFS finds no work.
    if (order_.size() == survivors) return false;
  } else if (!repair_tree(survivors)) {
    return false;
  }
  if (!whole_set_grows(survivors)) return false;
  kept = whole_set_left_.empty() || drop_left_flows(survivors) ? survivors : 0;
  return true;
}

bool Network::drop_left_flows(std::uint32_t survivors) {
  SolverCtx& ctx = *ctx_;
  SlotProblem& p = ctx.problem;
  // Below kCacheMaxFlows the solve keys every flow anyway. On a slot that
  // flows of two VLs cross, the capacity follows the VL of the newest one,
  // which may be leaving.
  if (survivors < kCacheMaxFlows) return false;
  for (const std::uint32_t i : whole_set_left_) {
    for (std::uint32_t k = p.offset[i]; k < p.offset[i + 1]; ++k) {
      if (ctx.slot_mixed[p.hops[k]] != 0) return false;
    }
  }
  ctx.emptied += p.remove_flows(whole_set_left_);
  // Emptied slots cost the fill a little each; translate afresh before they
  // outnumber the crossed ones.
  return 2 * ctx.emptied <= p.link.size();
}

bool Network::repair_tree(std::uint32_t survivors) {
  // Every subproblem is one component with one tree root. When the root
  // left, the loop below fails at the shallowest survivor; stop here first.
  if (std::none_of(order_.begin(), order_.begin() + survivors,
                   [this](std::uint32_t s) { return tree_[s].parent == 0; })) {
    return false;
  }
  // A survivor whose parent left keeps its depth and takes a strictly
  // shallower parent, which cannot be one of its descendants; so parents
  // still lead every survivor to the root. Flows started since the last
  // solve are kUnreached deep and never qualify.
  for (std::uint32_t i = 0; i < survivors; ++i) {
    TreeNode& t = tree_[order_[i]];
    if (t.parent == 0 || id_[t.parent_slot] == t.parent) continue;
    const std::uint32_t parent = find_on_drained_lists(
        order_[i], [this, &t](std::uint32_t s) { return tree_[s].depth < t.depth; });
    if (parent == kNoSlot) return false;
    t.parent = id_[parent];
    t.parent_slot = parent;
  }
  return true;
}

bool Network::whole_set_grows(std::uint32_t kept) {
  if (order_.size() == kept) return true;
  // Lists are push-front, so a walk passes the started flows' entries first
  // and stops at the first entry of a flow the kept subproblem holds.
  const FlowId first_new = id_[order_[kept]];
  for (std::size_t i = kept; i < order_.size(); ++i) {
    const std::uint32_t slot = order_[i];
    const std::uint32_t parent = find_on_drained_lists(
        slot, [this, first_new](std::uint32_t s) { return id_[s] < first_new; });
    if (parent == kNoSlot) return false;
    tree_[slot] = {id_[parent], parent, tree_[parent].depth + 1};
  }
  return true;
}

void Network::reallocate_and_schedule() {
  advance_residuals();

  if (completion_scheduled_) {
    engine_.cancel(completion_event_);
    completion_scheduled_ = false;
  }
  ++stats_.reallocations;
  if (order_.empty()) {
    pending_new_slots_.clear();
    pending_seed_links_.clear();
    whole_set_left_.clear();
    whole_set_flows_ = 0;
    return;
  }
  ensure_tables();

  // A changed (or unversioned) noise field may have moved any link's
  // capacity: only a full solve is sound.
  if (noise_ != nullptr) {
    const std::uint64_t v = noise_->version();
    if (v == 0 || v != noise_version_seen_) {
      noise_version_seen_ = v;
      request_full_solve(FullReason::kNoise);
    }
  }

  comp_slots_.clear();
  comp_offset_.assign(1, 0);
  ++mark_epoch_;

  std::uint32_t kept = 0;  // leading flows already translated in ctx_->problem
  if (mode_ == SolverMode::kFullResolve) {
    // Re-solve every component from scratch: the pre-PR-7 O(network)-per-
    // event cost model, kept as the reference the differential tests compare
    // against. (See the SolverMode doc for why the reference partitions too.)
    partition_all();
    ++stats_.reference_solves;
  } else if (full_reason_ != FullReason::kNone) {
    partition_all();
    ++stats_.full_solves;
    switch (full_reason_) {
      case FullReason::kFirst: ++stats_.fallback_first; break;
      case FullReason::kLinkState: ++stats_.fallback_link_state; break;
      case FullReason::kNoise: ++stats_.fallback_noise; break;
      case FullReason::kConfig: ++stats_.fallback_config; break;
      case FullReason::kNone: break;
    }
  } else if (whole_set_holds(kept)) {
    // The whole active set was solved as one subproblem, its survivors are
    // still connected, and each started flow shares a drained list with one
    // of them: the seeded BFS below would find order_ as one component and
    // book a threshold fallback. Skip it.
    comp_slots_.assign(order_.begin(), order_.end());
    comp_offset_.push_back(static_cast<std::uint32_t>(order_.size()));
    ++stats_.full_solves;
    ++stats_.fallback_threshold;
  } else {
    // Incremental: re-solve only the components containing an event seed --
    // flows started since the last reallocation, and the links a completed
    // or interrupted flow vacated (its bandwidth redistributes there).
    for (const std::uint32_t slot : pending_new_slots_) bfs_component(slot);
    // Each flow left on a vacated link's list, or under the congestion
    // closure on one of its switch endpoints' lists, seeds its own
    // component: the flow that left may have been all that coupled them. A
    // list this epoch drained already holds only placed flows.
    const auto seed_list = [this](const std::vector<std::int32_t>& head,
                                  const std::vector<std::uint64_t>& mark, std::uint32_t key) {
      if (mark[key] == mark_epoch_) return;
      for (std::int32_t e = head[key]; e != -1; e = ent_next_[e]) bfs_component(ent_slot_[e]);
    };
    for (const LinkId l : pending_seed_links_) {
      if (link_needs_drain(l)) seed_list(link_head_, link_mark_, l);
      if (closure_switches_) {
        const Link& lk = graph_.link(l);
        for (const DeviceId d : {lk.src, lk.dst}) seed_list(switch_head_, dev_mark_, d);
      }
    }
    if (4 * comp_slots_.size() >= 3 * order_.size()) {
      // Affected set close to the whole network: partition the rest too and
      // book it as a threshold fallback.
      partition_all();
      ++stats_.full_solves;
      ++stats_.fallback_threshold;
    } else if (comp_offset_.size() == 1) {
      ++stats_.no_work_events;
    } else {
      ++stats_.incremental_events;
    }
  }
  pending_new_slots_.clear();
  pending_seed_links_.clear();
  whole_set_left_.clear();
  full_reason_ = FullReason::kNone;

  solve_components(kept);
  // Below kCacheMaxFlows a solve keys every flow anyway, so only a larger
  // whole-set subproblem is worth extending.
  const bool whole_set = comp_offset_.size() == 2 && comp_offset_[1] == order_.size() &&
                         order_.size() >= kCacheMaxFlows;
  whole_set_flows_ = whole_set ? static_cast<std::uint32_t>(order_.size()) : 0;
  whole_set_links_ = graph_.link_count();
  if (telemetry_ != nullptr) emit_allocation();

  SimTime earliest = SimTime::infinity();
  for (const std::uint32_t slot : order_) {
    if (rate_[slot] > 0) {
      const double secs = residual_bits_[slot] / rate_[slot];
      const SimTime done =
          engine_.now() + SimTime{static_cast<std::int64_t>(std::ceil(secs * 1e12))};
      earliest = std::min(earliest, done);
    }
  }
  if (!earliest.is_infinite()) {
    completion_event_ = engine_.at(earliest, [this] {
      completion_scheduled_ = false;
      on_completion_event();
    });
    completion_scheduled_ = true;
  }
}

void Network::solve_components(std::uint32_t kept) {
  for (std::size_t i = 0; i + 1 < comp_offset_.size(); ++i) {
    solve_component(comp_offset_[i], comp_offset_[i + 1], i == 0 ? kept : 0);
  }
}

void Network::solve_component(std::uint32_t begin, std::uint32_t end, std::uint32_t kept) {
  SolverCtx& ctx = *ctx_;
  const std::uint32_t* slots = comp_slots_.data() + begin;
  const std::uint32_t n = end - begin;
  const bool tracing = telemetry_ != nullptr;

  ++stats_.component_solves;
  const unsigned bucket = static_cast<unsigned>(std::bit_width(n)) - 1;
  ++stats_.component_size_log2[std::min(bucket, 20u)];

  // Assemble the subproblem, translating routes to link slots once for the
  // fill and the congestion pass; for a cached component the key records
  // the exact solver input (routes, vl, caps, per-occurrence effective
  // capacities, congestion config, whether a trace is being filled) in the
  // same unambiguous word encoding the pre-PR-7 solver used for its
  // whole-problem epoch cache. A kept translation (never of a cached size)
  // already holds the first `kept` flows, in the order this loop would have
  // appended them.
  const bool cached = n < kCacheMaxFlows;
  SlotProblem& p = ctx.problem;
  if (kept == 0) {
    p.reset(graph_.link_count());
    ctx.slot_vl.clear();
    ctx.slot_mixed.clear();
    ctx.emptied = 0;
  }
  ctx.key.clear();
  if (cached) {
    ctx.key.push_back(n);
    ctx.key.push_back(tracing ? 1 : 0);
    ctx.key.push_back(static_cast<std::uint64_t>(congestion_.flow_threshold));
    ctx.key.push_back(std::bit_cast<std::uint64_t>(congestion_.rate_factor));
  }
  for (std::uint32_t i = kept; i < n; ++i) {
    const std::uint32_t slot = slots[i];
    const int vl = vl_[slot];
    // One capacity per link, which the max-min allocator shares across all
    // its flows -- a work-conserving approximation of round-robin VL
    // arbitration. When flows on different VLs share a link, it is the
    // capacity for the VL of the highest-FlowId flow on it (the noise
    // discount applies only on the noisy VL).
    for (const LinkId l : route_[slot]) {
      bool fresh;
      const std::uint32_t ls = p.add_hop(l, fresh);
      if (fresh) {
        ctx.slot_vl.push_back(vl);
        ctx.slot_mixed.push_back(0);
      }
      if (fresh || ctx.slot_vl[ls] != vl) {
        if (!fresh) ctx.slot_mixed[ls] = 1;
        ctx.slot_vl[ls] = vl;
        p.capacity[ls] = effective_capacity(l, vl);
      }
      if (cached) {
        ctx.key.push_back(l);
        ctx.key.push_back(std::bit_cast<std::uint64_t>(p.capacity[ls]));
      }
    }
    const Bandwidth flow_cap =
        rate_cap_[slot] > 0 ? rate_cap_[slot] : std::numeric_limits<double>::infinity();
    if (cached) {
      ctx.key.push_back(kKeyDelimiter);
      ctx.key.push_back(static_cast<std::uint64_t>(vl));
      ctx.key.push_back(std::bit_cast<std::uint64_t>(flow_cap));
    }
    p.end_flow(flow_cap);
  }
  std::uint64_t h = 0;
  if (cached) {
    h = hash_key(ctx.key);
    for (const SolverCtx::CacheEntry& e : ctx.cache) {
      if (e.hash != h || e.key != ctx.key) continue;
      // Identical subproblem: reapply the cached post-congestion rates (and
      // trace state). Exact comparison of the whole key, so a stale hit is
      // impossible.
      ++stats_.cache_hits;
      for (std::uint32_t i = 0; i < n; ++i) rate_[slots[i]] = e.rates[i];
      if (tracing) {
        for (std::uint32_t i = 0; i < n; ++i) {
          bottleneck_[slots[i]] = e.bottleneck[i];
          for (const LinkId l : route_[slots[i]]) link_sat_[l] = 0;
        }
        for (const auto& [l, flows] : e.saturated) {
          link_sat_[l] = 1;
          link_sat_count_[l] = flows;
        }
      }
      return;
    }
    ++stats_.cache_misses;
  }

  const std::vector<Bandwidth>& rates = ctx.solver.fill(p, tracing ? &ctx.trace : nullptr);
  for (std::uint32_t i = 0; i < n; ++i) rate_[slots[i]] = rates[i];
  if (congestion_.rate_factor < 1.0) apply_congestion_component(slots, n);
  if (tracing) {
    for (std::uint32_t i = 0; i < n; ++i) {
      bottleneck_[slots[i]] = ctx.trace.bottleneck[i];
      for (const LinkId l : route_[slots[i]]) link_sat_[l] = 0;
    }
    for (const auto& [l, flows] : ctx.trace.saturated) {
      link_sat_[l] = 1;
      link_sat_count_[l] = flows;
    }
  }

  if (!cached) return;
  SolverCtx::CacheEntry fresh;
  fresh.hash = h;
  fresh.key = ctx.key;
  fresh.rates.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) fresh.rates[i] = rate_[slots[i]];
  if (tracing) {
    fresh.bottleneck = ctx.trace.bottleneck;
    fresh.saturated = ctx.trace.saturated;
  }
  if (ctx.cache.size() < kCacheEntries) {
    ctx.cache.push_back(std::move(fresh));
  } else {
    ctx.cache[ctx.cache_next] = std::move(fresh);
    ctx.cache_next = (ctx.cache_next + 1) % kCacheEntries;
  }
}

void Network::apply_congestion_component(const std::uint32_t* slots, std::uint32_t count) {
  // A (link, vl) is incast-congested when >= flow_threshold flows saturate
  // it. The backlog propagates upstream through the buffers of every switch
  // the congesting flows traverse (credit/PFC backpressure), so flows of the
  // same VL crossing any of those switches lose rate. All coupling stays
  // inside the component: flows sharing a link share its component, and the
  // switch closure (bfs_component) merges components whose flows share a
  // switch, so a per-component pass reproduces the global computation.
  SolverCtx& ctx = *ctx_;
  const SlotProblem& p = ctx.problem;
  const int threshold = congestion_.flow_threshold;
  if (ctx.cg_dev_epoch.size() < graph_.device_count()) {
    ctx.cg_dev_epoch.resize(graph_.device_count(), 0);
    ctx.cg_dev_first.resize(graph_.device_count(), -1);
  }
  ++ctx.cg_epoch;
  ctx.cg_slot_first.assign(p.link.size(), -1);
  ctx.cg_hop.resize(p.hops.size());
  ctx.cg_svl.clear();
  ctx.cg_dvl.clear();
  ctx.cg_ent_slot.clear();
  ctx.cg_ent_next.clear();

  // Pass 1: per (link, vl) flow count, allocated-rate sum (ascending-FlowId
  // accumulation order, matching the pre-PR-7 whole-set pass), and an
  // intrusive list of the crossing flows, on the heavy slots only.
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t slot = slots[i];
    const int vl = vl_[slot];
    for (std::uint32_t k = p.offset[i]; k < p.offset[i + 1]; ++k) {
      const std::uint32_t ls = p.hops[k];
      std::int32_t sv = -1;
      if (p.crossings[ls] >= threshold) {
        sv = ctx.cg_slot_first[ls];
        while (sv != -1 && ctx.cg_svl[static_cast<std::size_t>(sv)].vl != vl) {
          sv = ctx.cg_svl[static_cast<std::size_t>(sv)].next;
        }
        if (sv == -1) {
          sv = static_cast<std::int32_t>(ctx.cg_svl.size());
          ctx.cg_svl.push_back({vl, 0, 0.0, -1, ctx.cg_slot_first[ls], ls, false});
          ctx.cg_slot_first[ls] = sv;
        }
        SolverCtx::SlotVl& e = ctx.cg_svl[static_cast<std::size_t>(sv)];
        ++e.count;
        e.sum += rate_[slot];
        ctx.cg_ent_slot.push_back(slot);
        ctx.cg_ent_next.push_back(e.flows_head);
        e.flows_head = static_cast<std::int32_t>(ctx.cg_ent_slot.size()) - 1;
      }
      ctx.cg_hop[k] = sv;
    }
  }

  // Pass 2: candidate links. An incast needs the converging flows to come
  // from many *distinct sources* -- a single rank streaming a deep window
  // through its own NIC is well-behaved traffic, not congestion.
  bool any = false;
  for (SolverCtx::SlotVl& e : ctx.cg_svl) {
    if (e.count < threshold) continue;
    if (e.sum < 0.98 * effective_capacity(p.link[e.slot], e.vl)) continue;
    ctx.cg_origins.clear();
    for (std::int32_t ent = e.flows_head; ent != -1; ent = ctx.cg_ent_next[ent]) {
      ctx.cg_origins.push_back(graph_.link(route_[ctx.cg_ent_slot[ent]].front()).src);
    }
    std::sort(ctx.cg_origins.begin(), ctx.cg_origins.end());
    const auto distinct =
        std::unique(ctx.cg_origins.begin(), ctx.cg_origins.end()) - ctx.cg_origins.begin();
    if (static_cast<int>(distinct) < threshold) continue;
    e.congested = true;
    any = true;
  }
  if (!any) return;

  // Pass 3: hot flows (crossing a congested link) warm every switch on their
  // route (their buffers hold the backlog).
  const auto warm_dev = [&ctx, this](DeviceId d, int vl) {
    if (graph_.device(d).kind != DeviceKind::kSwitch) return;
    if (ctx.cg_dev_epoch[d] != ctx.cg_epoch) {
      ctx.cg_dev_epoch[d] = ctx.cg_epoch;
      ctx.cg_dev_first[d] = -1;
    }
    for (std::int32_t i = ctx.cg_dev_first[d]; i != -1; i = ctx.cg_dvl[i].next) {
      if (ctx.cg_dvl[i].vl == vl) return;
    }
    ctx.cg_dvl.push_back({vl, ctx.cg_dev_first[d]});
    ctx.cg_dev_first[d] = static_cast<std::int32_t>(ctx.cg_dvl.size()) - 1;
  };
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t slot = slots[i];
    const int vl = vl_[slot];
    bool hot = false;
    for (std::uint32_t k = p.offset[i]; k < p.offset[i + 1] && !hot; ++k) {
      hot = ctx.cg_hop[k] != -1 && ctx.cg_svl[static_cast<std::size_t>(ctx.cg_hop[k])].congested;
    }
    if (!hot) continue;
    for (const LinkId l : route_[slot]) {
      const Link& lk = graph_.link(l);
      warm_dev(lk.src, vl);
      warm_dev(lk.dst, vl);
    }
  }

  // Pass 4: every flow crossing a warm switch on its VL is degraded.
  const auto dev_warm = [&ctx](DeviceId d, int vl) {
    if (ctx.cg_dev_epoch[d] != ctx.cg_epoch) return false;
    for (std::int32_t i = ctx.cg_dev_first[d]; i != -1; i = ctx.cg_dvl[i].next) {
      if (ctx.cg_dvl[i].vl == vl) return true;
    }
    return false;
  };
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t slot = slots[i];
    const int vl = vl_[slot];
    bool crosses = false;
    for (const LinkId l : route_[slot]) {
      const Link& lk = graph_.link(l);
      if (dev_warm(lk.src, vl) || dev_warm(lk.dst, vl)) {
        crosses = true;
        break;
      }
    }
    if (crosses) rate_[slot] *= congestion_.rate_factor;
  }
}

void Network::emit_allocation() {
  const SimTime now = engine_.now();
  for (const std::uint32_t slot : order_) {
    if (token_[slot] == 0) continue;
    // Standalone = what the flow would get running alone (its route
    // bottleneck, or its private cap if tighter); allocated below it means
    // fair sharing is squeezing the flow.
    Bandwidth standalone = rate_cap_[slot] > 0 ? rate_cap_[slot] : 0;
    for (const LinkId l : route_[slot]) {
      const Bandwidth cap = effective_capacity(l, vl_[slot]);
      if (standalone <= 0 || cap < standalone) standalone = cap;
    }
    telemetry_->flow_rate(token_[slot], route_[slot], rate_[slot], standalone, now);
    if (standalone > 0 && rate_[slot] < standalone * (1.0 - 1e-9)) {
      telemetry_->flow_throttled(token_[slot], bottleneck_[slot], now);
    }
  }
  // Saturated links, in first-visit order over the active flows' routes --
  // the exact order the pre-PR-7 solver's trace listed them. Stale flags
  // on links no active flow crosses are never visited, hence never emitted.
  ++vis_epoch_;
  for (const std::uint32_t slot : order_) {
    for (const LinkId l : route_[slot]) {
      if (link_vis_[l] == vis_epoch_) continue;
      link_vis_[l] = vis_epoch_;
      if (link_sat_[l] != 0) telemetry_->link_saturated(l, link_sat_count_[l], now);
    }
  }
}

void Network::on_completion_event() {
  advance_residuals();
  // Complete every flow that has fully serialized (ties batch here). One
  // stable partition pass over order_: survivors slide down in place, so the
  // ascending-FlowId invariant is preserved.
  removed_scratch_.clear();
  std::size_t keep = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const std::uint32_t slot = order_[i];
    if (residual_bits_[slot] <= kEpsilonBits) {
      // The vacated links are next event's seeds: the completed flow's share
      // redistributes to whatever still crosses them. Only flows of the last
      // solve have run, so with a kept whole set the flow is one of its
      // first whole_set_flows_ and leaves a hole at its position there.
      for (const LinkId l : route_[slot]) pending_seed_links_.push_back(l);
      if (whole_set_flows_ != 0) whole_set_left_.push_back(static_cast<std::uint32_t>(i));
      removed_scratch_.push_back(extract_flow(slot));
    } else {
      order_[keep++] = slot;
    }
  }
  order_.resize(keep);
  for (RemovedFlow& f : removed_scratch_) deliver(std::move(f));
  removed_scratch_.clear();
  mark_dirty();
}

void Network::on_link_state_change() {
  if (faults_ == nullptr) return;
  advance_residuals();
  removed_scratch_.clear();
  std::size_t keep = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const std::uint32_t slot = order_[i];
    if (route_has_down_link(route_[slot])) {
      removed_scratch_.push_back(extract_flow(slot));
    } else {
      order_[keep++] = slot;
    }
  }
  order_.resize(keep);
  for (RemovedFlow& f : removed_scratch_) interrupt(std::move(f));
  removed_scratch_.clear();
  // Survivors are re-rated against the new capacities (degraded or restored
  // links) at the same coalesced zero-delay event starts/completions use.
  // Which links changed is unknown here, so localization is unsound: force a
  // full solve.
  request_full_solve(FullReason::kLinkState);
  mark_dirty();
}

void Network::interrupt(RemovedFlow&& flow) {
  const double sent_bits = flow.total_bits - flow.residual_bits;
  bits_interrupted_ += sent_bits;
  ++flows_interrupted_;
  const Bytes sent = static_cast<Bytes>(sent_bits / 8.0);
  if (telemetry_ != nullptr && flow.token != 0) {
    telemetry_->flow_interrupted(flow.token, flow.route, sent, engine_.now());
  }
  if (flow.on_interrupted) {
    engine_.after(SimTime::zero(), [cb = std::move(flow.on_interrupted), sent, this] {
      cb(sent, engine_.now());
    });
  }
}

void Network::deliver(RemovedFlow&& flow) {
  SimTime delay = route_latency(graph_, flow.route);
  if (noise_ != nullptr && flow.vl == noise_->noisy_vl()) {
    for (const LinkId l : flow.route) delay += noise_->queueing_delay(l);
  }
  bits_delivered_ += flow.total_bits;
  if (telemetry_ != nullptr && flow.token != 0) {
    telemetry_->flow_completed(flow.token, flow.route,
                               static_cast<Bytes>(flow.total_bits / 8.0), engine_.now(),
                               engine_.now() + delay);
  }
  auto cb = std::move(flow.on_delivered);
  if (!cb) return;
  engine_.after(delay, [cb = std::move(cb), this] { cb(engine_.now()); });
}

}  // namespace gpucomm
