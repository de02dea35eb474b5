#include "gpucomm/topology/routing.hpp"

#include <vector>

namespace gpucomm {

namespace {
bool usable(const RouteOptions& opts, LinkId id, const Link& l) {
  return !opts.link_filter || opts.link_filter(id, l);
}

// Minimal-hop search from src to dst that touches only the devices closer to
// src than dst is, not the whole graph.
struct ShortestPaths {
  /// Hop count of the shortest src->dst path; kHopsUnreachable without one.
  int hops = kHopsUnreachable;
  /// After mark(): hops from src for every device lying on some shortest
  /// src->dst path, -1 for every other device.
  std::vector<int> level;
  /// Reached devices in breadth-first (nondecreasing level) order.
  std::vector<DeviceId> order;
};

// Breadth-first search from src over the filtered out-links. It stops as
// soon as dst is reached: every device of dst's predecessor level is known by
// then. Without a path it visits src's whole reachable set.
ShortestPaths search(const Graph& g, DeviceId src, DeviceId dst, const RouteOptions& opts) {
  ShortestPaths sp;
  sp.level.assign(g.device_count(), -1);
  sp.level[src] = 0;
  sp.order.push_back(src);
  for (std::size_t head = 0; head < sp.order.size(); ++head) {
    const DeviceId cur = sp.order[head];
    for (const LinkId id : g.out_links(cur)) {
      const Link& l = g.link(id);
      if (sp.level[l.dst] >= 0 || !usable(opts, id, l)) continue;
      sp.level[l.dst] = sp.level[cur] + 1;
      sp.order.push_back(l.dst);
      if (l.dst == dst) {
        sp.hops = sp.level[dst];
        return sp;
      }
    }
  }
  return sp;
}

// Back pass from dst, level by level: a device stays on a shortest path iff
// one of its filtered out-links reaches a device of the next level that is
// on one. Reverse breadth-first order finishes each level before the one
// below it, so only out-links are needed.
void mark(const Graph& g, DeviceId dst, const RouteOptions& opts, ShortestPaths& sp) {
  for (auto it = sp.order.rbegin(); it != sp.order.rend(); ++it) {
    const DeviceId cur = *it;
    if (cur == dst) continue;
    bool on_path = false;
    if (sp.level[cur] < sp.hops) {
      for (const LinkId id : g.out_links(cur)) {
        const Link& l = g.link(id);
        if (sp.level[l.dst] == sp.level[cur] + 1 && usable(opts, id, l)) {
          on_path = true;
          break;
        }
      }
    }
    if (!on_path) sp.level[cur] = -1;
  }
}
}  // namespace

std::optional<Route> shortest_route(const Graph& g, DeviceId src, DeviceId dst,
                                    const RouteOptions& opts) {
  if (src == dst) return Route{};
  ShortestPaths sp = search(g, src, dst, opts);
  if (sp.hops < 0) return std::nullopt;
  mark(g, dst, opts, sp);

  Route route;
  DeviceId cur = src;
  while (cur != dst) {
    // Follow the shortest-path DAG; among candidate next hops take the
    // smallest device id, and among parallel links to it the smallest link id.
    LinkId best_link = kInvalidLink;
    DeviceId best_next = kInvalidDevice;
    for (const LinkId id : g.out_links(cur)) {
      const Link& l = g.link(id);
      if (sp.level[l.dst] != sp.level[cur] + 1 || !usable(opts, id, l)) continue;
      if (best_next == kInvalidDevice || l.dst < best_next ||
          (l.dst == best_next && id < best_link)) {
        best_next = l.dst;
        best_link = id;
      }
    }
    if (best_link == kInvalidLink) return std::nullopt;  // filter removed the DAG edge
    route.push_back(best_link);
    cur = best_next;
  }
  return route;
}

int hop_distance(const Graph& g, DeviceId src, DeviceId dst, const RouteOptions& opts) {
  if (src == dst) return 0;
  return search(g, src, dst, opts).hops;
}

Route filtered_fabric_route(const Graph& g, DeviceId src_nic, DeviceId dst_nic,
                            const LinkFilter& link_ok) {
  RouteOptions opts;
  opts.link_filter = [&](LinkId id, const Link& l) {
    if (link_ok && !link_ok(id)) return false;
    const bool src_switch = g.device(l.src).kind == DeviceKind::kSwitch;
    const bool dst_switch = g.device(l.dst).kind == DeviceKind::kSwitch;
    if (src_switch && dst_switch) return true;
    // The only non-switch hops allowed are leaving the source NIC and
    // entering the destination NIC.
    return (l.src == src_nic && dst_switch) || (src_switch && l.dst == dst_nic);
  };
  const auto r = shortest_route(g, src_nic, dst_nic, opts);
  return r.has_value() ? *r : Route{};
}

}  // namespace gpucomm
