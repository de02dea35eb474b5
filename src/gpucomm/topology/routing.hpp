// Generic shortest-path routing over the device graph.
//
// Used for intra-node routes (GPU->GPU over NVLink/xGMI, GPU->NIC over PCIe)
// and as the reference router in tests. Fabric topologies (Dragonfly,
// Dragonfly+) use their own structured routing; see dragonfly*.hpp.
//
// Paths are minimal-hop with a deterministic lexicographic tie-break (the
// smallest next device id on a shortest path is taken). Determinism matters:
// the edge-forwarding-index analysis of Sec. IV-A and the simulator itself
// must agree on which link a pair of GPUs loads.
#pragma once

#include <functional>
#include <optional>

#include "gpucomm/topology/graph.hpp"

namespace gpucomm {

struct RouteOptions {
  /// If set, only links for which this returns true are usable.
  std::function<bool(LinkId, const Link&)> link_filter;
  /// Maximum number of hops explored; routes longer than this fail.
  int max_hops = 64;
};

/// Why a route query failed. "No path" and "path too long" are different
/// conditions: the first means the (filtered) graph is disconnected, the
/// second that a path exists but exceeds the hop budget — a distinction that
/// matters when fault-induced reroutes lengthen paths.
enum class RouteFailure : std::uint8_t {
  kNone,         ///< a route was found
  kUnreachable,  ///< no path exists under the filter at any hop count
  kHopBudget,    ///< a path exists but needs more than max_hops links
};

/// Optional out-diagnostic for shortest_route.
struct RouteDiag {
  RouteFailure failure = RouteFailure::kNone;
};

/// Minimal-hop route src -> dst, lexicographic tie-break on device ids.
/// Returns std::nullopt when no route within opts.max_hops exists; `diag`
/// (if given) reports whether that was disconnection or budget exhaustion.
/// The search runs forward from src and stops at dst's level, so a query
/// touches the links near src, not the whole graph.
std::optional<Route> shortest_route(const Graph& g, DeviceId src, DeviceId dst,
                                    const RouteOptions& opts = {}, RouteDiag* diag = nullptr);

/// hop_distance sentinel: no path exists at all.
inline constexpr int kHopsUnreachable = -1;
/// hop_distance sentinel: a path exists but is longer than opts.max_hops.
inline constexpr int kHopsBudgetExceeded = -2;

/// Hop distance (number of links), kHopsUnreachable when src and dst are
/// disconnected, or kHopsBudgetExceeded when the shortest path overruns the
/// hop budget.
int hop_distance(const Graph& g, DeviceId src, DeviceId dst, const RouteOptions& opts = {});

/// Fault-aware fallback for the structured fabric routers: a minimal-hop
/// NIC->NIC path constrained to usable switch<->switch links plus the two
/// endpoint NIC wires, so a reroute never transits another node's NIC.
/// Returns an empty route when the fabric is disconnected for this pair.
Route filtered_fabric_route(const Graph& g, DeviceId src_nic, DeviceId dst_nic,
                            const LinkFilter& link_ok);

}  // namespace gpucomm
