#include "gpucomm/net/fairshare.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <unordered_map>

namespace gpucomm {

std::vector<Bandwidth> maxmin_fair_rates(const FairshareProblem& problem,
                                         FairshareTrace* trace) {
  const std::size_t n = problem.flows.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<Bandwidth> rate(n, 0.0);
  if (trace) {
    trace->bottleneck.assign(n, kInvalidLink);
    trace->saturated.clear();
  }
  if (n == 0) return rate;
  assert(problem.caps.empty() || problem.caps.size() == n);

  const auto cap_of = [&](std::size_t i) {
    return problem.caps.empty() ? kInf : problem.caps[i];
  };

  // Only links actually used by some flow participate; map to a dense index.
  std::unordered_map<LinkId, std::size_t> dense;
  std::vector<Bandwidth> remaining;
  std::vector<int> unfrozen_count;
  std::vector<LinkId> dense_link;
  for (const auto& flow : problem.flows) {
    for (const LinkId l : flow) {
      auto [it, inserted] = dense.try_emplace(l, remaining.size());
      if (inserted) {
        remaining.push_back(std::max(problem.capacity[l], 0.0));
        unfrozen_count.push_back(0);
        dense_link.push_back(l);
      }
      ++unfrozen_count[it->second];
    }
  }
  std::vector<int> total_count;
  if (trace) total_count = unfrozen_count;

  std::vector<bool> frozen(n, false);
  std::size_t frozen_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (problem.flows[i].empty()) {
      // No link constraint: the flow runs at its cap (callers bound pure
      // local transfers by device limits via the cap).
      rate[i] = std::isfinite(cap_of(i)) ? cap_of(i) : 0.0;
      frozen[i] = true;
      ++frozen_total;
    }
  }

  // Progressive filling. Each iteration freezes at least one flow: either a
  // set of flows crossing the current bottleneck link (at the link's fair
  // share), or flows whose private cap binds below that share.
  while (frozen_total < n) {
    double link_share = kInf;
    for (std::size_t li = 0; li < remaining.size(); ++li) {
      if (unfrozen_count[li] <= 0) continue;
      link_share = std::min(link_share, remaining[li] / unfrozen_count[li]);
    }
    double cap_min = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      if (!frozen[i]) cap_min = std::min(cap_min, cap_of(i));
    }
    const double s = std::max(0.0, std::min(link_share, cap_min));
    if (!std::isfinite(s)) break;  // remaining flows are unconstrained

    bool froze_any = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (frozen[i]) continue;
      const double cap = cap_of(i);
      // kInvalidLink marks a private-cap freeze (not a network bottleneck).
      LinkId bottleneck = kInvalidLink;
      bool at_bottleneck = cap <= s * (1.0 + 1e-12);
      if (!at_bottleneck) {
        for (const LinkId l : problem.flows[i]) {
          const std::size_t li = dense.at(l);
          if (unfrozen_count[li] > 0 &&
              remaining[li] / unfrozen_count[li] <= s * (1.0 + 1e-12)) {
            at_bottleneck = true;
            bottleneck = l;
            break;
          }
        }
      }
      if (!at_bottleneck) continue;
      if (trace) trace->bottleneck[i] = bottleneck;
      const double r = std::min(s, cap);
      rate[i] = r;
      frozen[i] = true;
      ++frozen_total;
      froze_any = true;
      for (const LinkId l : problem.flows[i]) {
        const std::size_t li = dense.at(l);
        remaining[li] = std::max(0.0, remaining[li] - r);
        --unfrozen_count[li];
      }
    }
    assert(froze_any && "progressive filling must make progress");
    if (!froze_any) break;
  }
  if (trace) {
    for (std::size_t li = 0; li < remaining.size(); ++li) {
      const Bandwidth cap = std::max(problem.capacity[dense_link[li]], 0.0);
      if (cap > 0 && remaining[li] <= cap * 1e-9) {
        trace->saturated.emplace_back(dense_link[li], total_count[li]);
      }
    }
  }
  return rate;
}

void SlotProblem::reset(std::size_t link_count) {
  if (slot_of_link_.size() < link_count) {
    slot_of_link_.resize(link_count, 0);
    slot_epoch_.resize(link_count, 0);
  }
  ++epoch_;
  link.clear();
  capacity.clear();
  crossings.clear();
  hops.clear();
  offset.assign(1, 0);
  cap.clear();
}

void SlotProblem::end_flow(Bandwidth rate_cap) {
  offset.push_back(static_cast<std::uint32_t>(hops.size()));
  cap.push_back(rate_cap);
}

std::size_t SlotProblem::remove_flows(const std::vector<std::uint32_t>& gone) {
  if (gone.empty()) return 0;
  std::size_t emptied = 0;
  // Compact in place from the first removed flow on. offset[i + 1] is read
  // before the write cursor can reach it.
  std::uint32_t flows = gone.front();
  std::uint32_t end_hop = offset[flows];
  std::uint32_t begin = end_hop;
  std::size_t g = 0;
  for (std::uint32_t i = gone.front(); i < flow_count(); ++i) {
    const std::uint32_t end = offset[i + 1];
    if (g < gone.size() && gone[g] == i) {
      ++g;
      for (std::uint32_t k = begin; k < end; ++k) emptied += --crossings[hops[k]] == 0;
    } else {
      std::copy(hops.begin() + begin, hops.begin() + end, hops.begin() + end_hop);
      end_hop += end - begin;
      cap[flows] = cap[i];
      offset[++flows] = end_hop;
    }
    begin = end;
  }
  hops.resize(end_hop);
  cap.resize(flows);
  offset.resize(flows + 1);
  return emptied;
}

const std::vector<Bandwidth>& FairshareSolver::solve(
    const std::vector<Bandwidth>& capacity, const std::vector<const Route*>& flows,
    const std::vector<Bandwidth>& caps, FairshareTrace* trace) {
  assert(caps.empty() || caps.size() == flows.size());
  problem_.reset(capacity.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    for (const LinkId l : *flows[i]) {
      bool fresh;
      const std::uint32_t slot = problem_.add_hop(l, fresh);
      if (fresh) problem_.capacity[slot] = capacity[l];
    }
    problem_.end_flow(caps.empty() ? std::numeric_limits<double>::infinity() : caps[i]);
  }
  return fill(problem_, trace);
}

const std::vector<Bandwidth>& FairshareSolver::fill(const SlotProblem& p,
                                                    FairshareTrace* trace) {
  const std::size_t n = p.flow_count();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNoFlow = std::numeric_limits<double>::quiet_NaN();
  rate_.assign(n, 0.0);
  if (trace) {
    trace->bottleneck.assign(n, kInvalidLink);
    trace->saturated.clear();
  }
  if (n == 0) return rate_;

  const std::size_t slots = p.capacity.size();
  remaining_.resize(slots);
  unfrozen_count_.assign(p.crossings.begin(), p.crossings.end());
  share_.resize(slots);
  marked_round_.resize(slots, 0);
  live_slots_.resize(slots);
  live_pos_.resize(slots);
  std::uint32_t live = 0;
  // slot_begin_[s + 1] starts as slot s's first index into slot_flows_ and
  // ends, once the flows are placed below, as its end (counting sort).
  slot_begin_.resize(slots + 1);
  slot_begin_[0] = 0;
  std::uint32_t placed = 0;
  for (std::uint32_t slot = 0; slot < slots; ++slot) {
    remaining_[slot] = std::max(p.capacity[slot], 0.0);
    const int count = p.crossings[slot];
    slot_begin_[slot + 1] = placed;
    placed += static_cast<std::uint32_t>(count);
    if (count > 0) {
      share_[slot] = remaining_[slot] / count;
      live_pos_[slot] = live;
      live_slots_[live++] = slot;
    } else {
      share_[slot] = kNoFlow;
    }
  }
  live_slots_.resize(live);
  assert(placed == p.hops.size());
  slot_flows_.resize(placed);

  const std::size_t words = (n + 63) / 64;
  unfrozen_.assign(words, 0);
  candidates_.assign(words, 0);
  capped_.clear();
  std::size_t frozen_total = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (p.offset[i] == p.offset[i + 1]) {
      // No link constraint: the flow runs at its cap (callers bound pure
      // local transfers by device limits via the cap).
      rate_[i] = std::isfinite(p.cap[i]) ? p.cap[i] : 0.0;
      ++frozen_total;
      continue;
    }
    unfrozen_[i >> 6] |= std::uint64_t{1} << (i & 63);
    if (p.cap[i] < kInf) capped_.push_back(i);
    for (std::uint32_t k = p.offset[i]; k < p.offset[i + 1]; ++k) {
      slot_flows_[slot_begin_[p.hops[k] + 1]++] = i;
    }
  }

  // Progressive filling, as in maxmin_fair_rates, but each round tests only
  // its candidates: the unfrozen flows on slots whose share is within the
  // tolerance of the round's level s (tight slots), and the capped flows
  // whose cap is. Every freeze of a round subtracts min(s, cap) <= s, and
  // subtracting at most s from a slot whose share exceeds s cannot lower the
  // share in exact arithmetic, so a slot that was not tight when the round
  // started becomes tight only through rounding; the guard below then marks
  // its later flows. Each candidate, visited in ascending order, gets the
  // reference's test against the shares as they stand, so the freeze set,
  // the freeze order and every subtraction are the reference's.
  while (frozen_total < n) {
    // The exact minimum share over live slots, collecting the slots within
    // the tolerance of the running minimum (filtered again once s is known).
    double link_share = kInf;
    double bound = kInf;
    tight_.clear();
    for (const std::uint32_t slot : live_slots_) {
      const double share = share_[slot];
      if (!(share <= bound)) continue;
      if (share < link_share) {
        link_share = share;
        bound = share * (1.0 + 1e-12);
        std::size_t keep = 0;
        for (const std::uint32_t t : tight_) {
          if (share_[t] <= bound) tight_[keep++] = t;
        }
        tight_.resize(keep);
      }
      tight_.push_back(slot);
    }
    double cap_min = kInf;
    std::size_t capped = 0;
    for (const std::uint32_t i : capped_) {
      if (((unfrozen_[i >> 6] >> (i & 63)) & 1) == 0) continue;
      capped_[capped++] = i;
      cap_min = std::min(cap_min, p.cap[i]);
    }
    capped_.resize(capped);
    const double s = std::max(0.0, std::min(link_share, cap_min));
    if (!std::isfinite(s)) break;  // remaining flows are unconstrained
    const double level = s * (1.0 + 1e-12);

    ++round_;
    for (const std::uint32_t slot : tight_) {
      if (!(share_[slot] <= level)) continue;
      marked_round_[slot] = round_;
      for (std::uint32_t k = slot_begin_[slot]; k < slot_begin_[slot + 1]; ++k) {
        mark(slot_flows_[k]);
      }
    }
    if (cap_min <= level) {
      for (const std::uint32_t i : capped_) {
        if (p.cap[i] <= level) mark(i);
      }
    }
    // A level whose tolerance overflows passes every flow's cap test.
    if (level == kInf) candidates_ = unfrozen_;

    bool froze_any = false;
    for (std::size_t w = 0; w < words; ++w) {
      // Re-read the word after each flow: the guard may mark later flows.
      while (const std::uint64_t bits = candidates_[w] & unfrozen_[w]) {
        candidates_[w] = bits & (bits - 1);
        const auto i = static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
        const double cap = p.cap[i];
        // kInvalidLink marks a private-cap freeze (not a network bottleneck).
        LinkId bottleneck = kInvalidLink;
        bool at_bottleneck = cap <= level;
        if (!at_bottleneck) {
          for (std::uint32_t k = p.offset[i]; k < p.offset[i + 1]; ++k) {
            const std::uint32_t slot = p.hops[k];
            if (share_[slot] <= level) {
              at_bottleneck = true;
              bottleneck = p.link[slot];
              break;
            }
          }
        }
        if (!at_bottleneck) continue;
        if (trace) trace->bottleneck[i] = bottleneck;
        const double r = std::min(s, cap);
        rate_[i] = r;
        unfrozen_[w] &= ~(std::uint64_t{1} << (i & 63));
        ++frozen_total;
        froze_any = true;
        for (std::uint32_t k = p.offset[i]; k < p.offset[i + 1]; ++k) {
          const std::uint32_t slot = p.hops[k];
          remaining_[slot] = std::max(0.0, remaining_[slot] - r);
          const int left = --unfrozen_count_[slot];
          if (left == 0) {
            // The slot's last unfrozen flow: the slot leaves the share scan.
            share_[slot] = kNoFlow;
            const std::uint32_t moved = live_slots_.back();
            live_slots_[live_pos_[slot]] = moved;
            live_pos_[moved] = live_pos_[slot];
            live_slots_.pop_back();
            continue;
          }
          const double share = remaining_[slot] / left;
          share_[slot] = share;
          if (share <= level && marked_round_[slot] != round_) {
            // Rounding guard: the slot reached the level mid-round, so its
            // flows after i may freeze on it in this round.
            marked_round_[slot] = round_;
            const auto first = slot_flows_.begin() + slot_begin_[slot];
            const auto last = slot_flows_.begin() + slot_begin_[slot + 1];
            for (auto f = std::upper_bound(first, last, i); f != last; ++f) mark(*f);
          }
        }
      }
      candidates_[w] = 0;
    }
    assert(froze_any && "progressive filling must make progress");
    if (!froze_any) break;
  }
  if (trace) {
    for (std::size_t slot = 0; slot < remaining_.size(); ++slot) {
      const Bandwidth cap = std::max(p.capacity[slot], 0.0);
      if (cap > 0 && remaining_[slot] <= cap * 1e-9) {
        trace->saturated.emplace_back(p.link[slot], p.crossings[slot]);
      }
    }
  }
  return rate_;
}

}  // namespace gpucomm
