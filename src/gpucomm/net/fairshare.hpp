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

/// Allocation-free progressive filling for the reallocation hot path.
///
/// Produces exactly the rates of maxmin_fair_rates — same freeze order, same
/// floating-point operation sequence — but:
///  - routes are taken by pointer (no per-call copies),
///  - the LinkId -> dense-slot map is an epoch-stamped array instead of a
///    per-call unordered_map, so no hashing in the filling loop and no
///    O(links) clear between solves,
///  - routes are translated to dense slots once up front (flat array),
///  - frozen flows leave the scan entirely (ordered compaction) instead of
///    being skipped by an O(n) rescan every filling round, and likewise
///    saturated links leave the per-round share scan,
///  - every vector is owned by the solver and reused across solves.
class FairshareSolver {
 public:
  /// `capacity` is indexed by LinkId (entries for links not used by any flow
  /// are ignored); `flows[i]` points at flow i's route; `caps` follows
  /// FairshareProblem::caps semantics. The returned reference is owned by
  /// the solver and valid until the next solve().
  const std::vector<Bandwidth>& solve(const std::vector<Bandwidth>& capacity,
                                      const std::vector<const Route*>& flows,
                                      const std::vector<Bandwidth>& caps,
                                      FairshareTrace* trace = nullptr);

 private:
  // LinkId -> dense slot, valid only when slot_epoch_[link] == epoch_.
  std::vector<std::uint32_t> slot_of_link_;
  std::vector<std::uint64_t> slot_epoch_;
  std::uint64_t epoch_ = 0;
  // Per dense slot (links used by at least one flow, first-visit order).
  std::vector<Bandwidth> remaining_;
  std::vector<int> unfrozen_count_;
  std::vector<int> total_count_;  // filled only when tracing
  std::vector<LinkId> dense_link_;
  std::vector<std::uint32_t> live_slots_;  // slots with unfrozen flows left
  // Flattened route translation: flow i's slots are
  // flow_slots_[flow_offset_[i] .. flow_offset_[i + 1]).
  std::vector<std::uint32_t> flow_slots_;
  std::vector<std::uint32_t> flow_offset_;
  std::vector<std::uint32_t> unfrozen_;  // unfrozen flow ids, ascending
  std::vector<Bandwidth> rate_;
};

}  // namespace gpucomm
