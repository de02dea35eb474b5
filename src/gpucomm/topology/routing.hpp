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
};

/// Minimal-hop route src -> dst, lexicographic tie-break on device ids.
/// Returns std::nullopt when no route exists under the filter. The search
/// runs forward from src and stops at dst's level, so a query touches the
/// links near src, not the whole graph.
std::optional<Route> shortest_route(const Graph& g, DeviceId src, DeviceId dst,
                                    const RouteOptions& opts = {});

/// hop_distance sentinel: no path exists at all.
inline constexpr int kHopsUnreachable = -1;

/// Hop distance (number of links), or kHopsUnreachable when src and dst are
/// disconnected.
int hop_distance(const Graph& g, DeviceId src, DeviceId dst, const RouteOptions& opts = {});

/// Fault-aware fallback for the structured fabric routers: a minimal-hop
/// NIC->NIC path constrained to usable switch<->switch links plus the two
/// endpoint NIC wires, so a reroute never transits another node's NIC.
/// Returns an empty route when the fabric is disconnected for this pair.
Route filtered_fabric_route(const Graph& g, DeviceId src_nic, DeviceId dst_nic,
                            const LinkFilter& link_ok);

}  // namespace gpucomm
