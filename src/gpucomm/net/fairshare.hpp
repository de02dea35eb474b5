// Progressive-filling max-min fair rate allocation.
//
// Given active flows (each a set of directed links) and per-link available
// capacities, assigns each flow the max-min fair rate: repeatedly saturate
// the tightest link, freeze its flows at the fair share, and continue.
// This is the classic fluid approximation of per-flow fair queueing and is
// the core of the flow-level network model.
#pragma once

#include <cstdint>
#include <vector>

#include "gpucomm/sim/units.hpp"
#include "gpucomm/topology/graph.hpp"

namespace gpucomm {

struct FairshareProblem {
  /// capacity[link] = available bits/s for the flows being allocated (already
  /// net of background-noise occupancy on the flow's virtual lane).
  std::vector<Bandwidth> capacity;
  /// flows[i] = distinct links used by flow i (duplicates must be pre-merged;
  /// a flow crossing a link twice is not a case our routes produce).
  std::vector<std::vector<LinkId>> flows;
  /// Optional per-flow rate ceiling (protocol/implementation limits such as
  /// *CCL channel counts). Empty, or infinity entries, mean uncapped. A cap
  /// behaves like a private link of that capacity: capped flows freeze at
  /// their cap and the slack is redistributed to the others.
  std::vector<Bandwidth> caps;
};

/// Diagnostic by-product of an allocation, filled only when requested (the
/// telemetry hooks are the sole consumer; the solver's hot path is unchanged
/// when it is not).
struct FairshareTrace {
  /// bottleneck[i]: the link whose fair share froze flow i, or kInvalidLink
  /// when the flow froze at its private cap (or used no links at all).
  std::vector<LinkId> bottleneck;
  /// Links the allocation filled to capacity, with the number of flows
  /// crossing each.
  std::vector<std::pair<LinkId, int>> saturated;
};

/// Returns rate[i] in bits/s for each flow. Flows that use no links (pure
/// local transfers) get an unbounded sentinel rate of 0 meaning "no network
/// constraint"; callers bound those by device limits.
///
/// Reference implementation: allocates its working state per call. The hot
/// path (Network) uses FairshareSolver below, which produces bit-identical
/// rates; tests/test_fairshare_fastpath holds the two together.
std::vector<Bandwidth> maxmin_fair_rates(const FairshareProblem& problem,
                                         FairshareTrace* trace = nullptr);

/// A max-min problem whose routes are already translated to dense link
/// slots: the input of FairshareSolver::fill. add_hop numbers slots in
/// first-visit order (flows in order, each route in order), but no rate
/// depends on the numbering: the fill takes an exact minimum over slots,
/// subtracts from each slot in flow order and walks each flow's hops in
/// route order, so per-link arithmetic is sequenced as in maxmin_fair_rates
/// under any numbering, and a slot no flow crosses changes nothing
/// (tests/test_fairshare_fastpath). Network builds one per component
/// subproblem, its congestion pass reads the same translation, and a kept
/// whole-set problem loses completed flows in place (remove_flows).
class SlotProblem {
 public:
  /// Start an empty problem over links below `link_count`. The LinkId ->
  /// slot table is epoch-stamped, so this costs nothing per link.
  void reset(std::size_t link_count);
  /// Append `link` to the route of the flow being built and return its
  /// slot. `fresh` says the link just got its slot; the caller then sets
  /// capacity[slot].
  std::uint32_t add_hop(LinkId link, bool& fresh);
  /// Close the flow being built; `rate_cap` follows FairshareProblem::caps
  /// (infinity = uncapped).
  void end_flow(Bandwidth rate_cap);
  /// Remove the flows at the ascending indices `gone`: their hops leave and
  /// their slots' crossings fall. Slots stay numbered as they were, and a
  /// slot no flow crosses any more stays too. Returns how many slots the
  /// removal left with no crossing.
  std::size_t remove_flows(const std::vector<std::uint32_t>& gone);

  std::size_t flow_count() const { return cap.size(); }

  // Per slot.
  std::vector<LinkId> link;
  std::vector<Bandwidth> capacity;  // FairshareProblem::capacity semantics
  std::vector<int> crossings;       // flows crossing the slot's link
  // Flow i's slots are hops[offset[i] .. offset[i + 1]).
  std::vector<std::uint32_t> hops;
  std::vector<std::uint32_t> offset;
  // Per flow: its private rate ceiling (infinity = uncapped).
  std::vector<Bandwidth> cap;

 private:
  // LinkId -> slot, valid only when slot_epoch_[link] == epoch_.
  std::vector<std::uint32_t> slot_of_link_;
  std::vector<std::uint64_t> slot_epoch_;
  std::uint64_t epoch_ = 0;
};

inline std::uint32_t SlotProblem::add_hop(LinkId l, bool& fresh) {
  fresh = slot_epoch_[l] != epoch_;
  if (fresh) {
    slot_epoch_[l] = epoch_;
    slot_of_link_[l] = static_cast<std::uint32_t>(link.size());
    link.push_back(l);
    capacity.push_back(0);
    crossings.push_back(0);
  }
  const std::uint32_t slot = slot_of_link_[l];
  ++crossings[slot];
  hops.push_back(slot);
  return slot;
}

/// Allocation-free progressive filling for the reallocation hot path.
///
/// Produces exactly the rates of maxmin_fair_rates — same freeze order, same
/// floating-point operation sequence — but:
///  - it fills a SlotProblem, whose routes are translated to dense slots
///    once up front (flat array, no hashing in the filling loop),
///  - each round tests only the flows that can freeze in it (a tight-set
///    round): the unfrozen flows on slots whose cached share is within the
///    freeze tolerance of the round's level, plus capped flows when their
///    cap binds, in ascending flow order; saturated links leave the
///    per-round share scan,
///  - every vector is owned by the solver and reused across solves.
class FairshareSolver {
 public:
  /// Rates of `problem`'s flows. The returned reference is owned by the
  /// solver and valid until the next fill() or solve().
  const std::vector<Bandwidth>& fill(const SlotProblem& problem,
                                     FairshareTrace* trace = nullptr);

  /// Translate, then fill. `capacity` is indexed by LinkId (entries for
  /// links not used by any flow are ignored); `flows[i]` points at flow i's
  /// route; `caps` follows FairshareProblem::caps semantics.
  const std::vector<Bandwidth>& solve(const std::vector<Bandwidth>& capacity,
                                      const std::vector<const Route*>& flows,
                                      const std::vector<Bandwidth>& caps,
                                      FairshareTrace* trace = nullptr);

 private:
  // Set flow i's bit in candidates_.
  void mark(std::uint32_t i) { candidates_[i >> 6] |= std::uint64_t{1} << (i & 63); }

  SlotProblem problem_;  // solve()'s translation
  // Per slot.
  std::vector<Bandwidth> remaining_;
  std::vector<int> unfrozen_count_;
  // remaining_ / unfrozen_count_, or NaN once no unfrozen flow crosses the
  // slot (NaN passes no share test, as the reference skips such a slot).
  std::vector<double> share_;
  std::vector<std::uint64_t> marked_round_;  // last round that marked its flows
  // The flows crossing slot s, ascending: slot_flows_[slot_begin_[s] ..
  // slot_begin_[s + 1]).
  std::vector<std::uint32_t> slot_begin_;
  std::vector<std::uint32_t> slot_flows_;
  std::vector<std::uint32_t> live_slots_;  // slots with unfrozen flows left
  std::vector<std::uint32_t> live_pos_;    // slot -> index in live_slots_
  std::vector<std::uint32_t> tight_;       // a round's slots at its level
  // Per flow, one bit each.
  std::vector<std::uint64_t> unfrozen_;
  std::vector<std::uint64_t> candidates_;  // flows the round still tests
  std::vector<std::uint32_t> capped_;      // unfrozen flows with a finite cap
  std::vector<Bandwidth> rate_;
  std::uint64_t round_ = 0;  // filling rounds across fills, for marked_round_
};

}  // namespace gpucomm
