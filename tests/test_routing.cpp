#include <gtest/gtest.h>

#include <queue>
#include <set>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/fault/fault_model.hpp"
#include "gpucomm/sim/random.hpp"
#include "gpucomm/systems/registry.hpp"
#include "gpucomm/topology/intra_node.hpp"
#include "gpucomm/topology/routing.hpp"

namespace gpucomm {
namespace {

/// Line graph 0-1-2-3 plus a shortcut 0-3 of low bandwidth.
struct LineFixture {
  Graph g;
  DeviceId d[4];
  LineFixture() {
    for (int i = 0; i < 4; ++i) {
      std::string label = "d";
      label += std::to_string(i);
      d[i] = g.add_device({DeviceKind::kGpu, 0, i, label});
    }
    for (int i = 0; i < 3; ++i)
      g.add_duplex_link(d[i], d[i + 1], gbps(100), nanoseconds(10), LinkType::kNvLink);
  }
};

TEST(RoutingTest, TrivialSelfRoute) {
  LineFixture f;
  const auto r = shortest_route(f.g, f.d[1], f.d[1]);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->empty());
}

TEST(RoutingTest, DirectNeighbor) {
  LineFixture f;
  const auto r = shortest_route(f.g, f.d[0], f.d[1]);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(f.g.link((*r)[0]).dst, f.d[1]);
}

TEST(RoutingTest, MultiHopPathIsMinimal) {
  LineFixture f;
  const auto r = shortest_route(f.g, f.d[0], f.d[3]);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), 3u);
  // Route is contiguous: each link starts where the previous ended.
  DeviceId cur = f.d[0];
  for (const LinkId l : *r) {
    EXPECT_EQ(f.g.link(l).src, cur);
    cur = f.g.link(l).dst;
  }
  EXPECT_EQ(cur, f.d[3]);
}

TEST(RoutingTest, ShortcutPreferredWhenShorter) {
  LineFixture f;
  f.g.add_duplex_link(f.d[0], f.d[3], gbps(10), nanoseconds(10), LinkType::kNvLink);
  const auto r = shortest_route(f.g, f.d[0], f.d[3]);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), 1u);  // hop count wins over bandwidth
}

TEST(RoutingTest, LexicographicTieBreak) {
  // Diamond: 0 -> {1, 2} -> 3; both 2-hop. The smaller next device id wins.
  Graph g;
  DeviceId d[4];
  for (int i = 0; i < 4; ++i)
    g.add_device({DeviceKind::kGpu, 0, i, ""});
  for (int i = 0; i < 4; ++i) d[i] = static_cast<DeviceId>(i);
  g.add_duplex_link(d[0], d[2], gbps(100), nanoseconds(10), LinkType::kNvLink);
  g.add_duplex_link(d[0], d[1], gbps(100), nanoseconds(10), LinkType::kNvLink);
  g.add_duplex_link(d[1], d[3], gbps(100), nanoseconds(10), LinkType::kNvLink);
  g.add_duplex_link(d[2], d[3], gbps(100), nanoseconds(10), LinkType::kNvLink);
  const auto r = shortest_route(g, d[0], d[3]);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ(g.link((*r)[0]).dst, d[1]);  // via device 1, not 2
}

TEST(RoutingTest, LinkFilterRestrictsPaths) {
  LineFixture f;
  f.g.add_duplex_link(f.d[0], f.d[3], gbps(10), nanoseconds(10), LinkType::kPcie);
  RouteOptions opts;
  opts.link_filter = [](LinkId, const Link& l) { return l.type == LinkType::kNvLink; };
  const auto r = shortest_route(f.g, f.d[0], f.d[3], opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), 3u);  // the PCIe shortcut is filtered out
}

TEST(RoutingTest, UnreachableReturnsNullopt) {
  Graph g;
  const DeviceId a = g.add_device({DeviceKind::kGpu, 0, 0, ""});
  const DeviceId b = g.add_device({DeviceKind::kGpu, 1, 0, ""});
  EXPECT_FALSE(shortest_route(g, a, b).has_value());
  EXPECT_EQ(hop_distance(g, a, b), kHopsUnreachable);
}

TEST(RoutingTest, LinkFilterDisconnectionIsUnreachable) {
  // A filter that rejects every link partitions the graph.
  LineFixture f;
  RouteOptions opts;
  opts.link_filter = [](LinkId, const Link&) { return false; };
  EXPECT_FALSE(shortest_route(f.g, f.d[0], f.d[3], opts).has_value());
  EXPECT_EQ(hop_distance(f.g, f.d[0], f.d[3], opts), kHopsUnreachable);
}

TEST(RoutingTest, HopDistance) {
  LineFixture f;
  EXPECT_EQ(hop_distance(f.g, f.d[0], f.d[0]), 0);
  EXPECT_EQ(hop_distance(f.g, f.d[0], f.d[1]), 1);
  EXPECT_EQ(hop_distance(f.g, f.d[0], f.d[3]), 3);
}

// The reference router: a reverse breadth-first search from dst over a
// reverse index of the whole filtered graph, rebuilt on every query, then the
// same greedy walk down the shortest-path DAG. shortest_route and
// hop_distance must agree with it exactly.
namespace reference {

std::vector<std::vector<LinkId>> in_links(const Graph& g, const RouteOptions& opts) {
  std::vector<std::vector<LinkId>> in(g.device_count());
  for (LinkId id = 0; id < g.link_count(); ++id) {
    const Link& l = g.link(id);
    if (opts.link_filter && !opts.link_filter(id, l)) continue;
    in[l.dst].push_back(id);
  }
  return in;
}

std::vector<int> distances_to(const Graph& g, DeviceId dst,
                              const std::vector<std::vector<LinkId>>& in) {
  std::vector<int> dist(g.device_count(), -1);
  std::queue<DeviceId> q;
  dist[dst] = 0;
  q.push(dst);
  while (!q.empty()) {
    const DeviceId cur = q.front();
    q.pop();
    for (const LinkId id : in[cur]) {
      const DeviceId prev = g.link(id).src;
      if (dist[prev] < 0) {
        dist[prev] = dist[cur] + 1;
        q.push(prev);
      }
    }
  }
  return dist;
}

std::optional<Route> shortest_route(const Graph& g, DeviceId src, DeviceId dst,
                                    const RouteOptions& opts) {
  if (src == dst) return Route{};
  const std::vector<int> dist = distances_to(g, dst, in_links(g, opts));
  if (dist[src] < 0) return std::nullopt;
  Route route;
  DeviceId cur = src;
  while (cur != dst) {
    LinkId best_link = kInvalidLink;
    DeviceId best_next = kInvalidDevice;
    for (const LinkId id : g.out_links(cur)) {
      const Link& l = g.link(id);
      if (opts.link_filter && !opts.link_filter(id, l)) continue;
      if (dist[l.dst] != dist[cur] - 1) continue;
      if (best_next == kInvalidDevice || l.dst < best_next ||
          (l.dst == best_next && id < best_link)) {
        best_next = l.dst;
        best_link = id;
      }
    }
    if (best_link == kInvalidLink) return std::nullopt;
    route.push_back(best_link);
    cur = best_next;
  }
  return route;
}

int hop_distance(const Graph& g, DeviceId src, DeviceId dst, const RouteOptions& opts) {
  if (src == dst) return 0;
  return distances_to(g, dst, in_links(g, opts))[src];
}

}  // namespace reference

/// Route and hop count of one query, under both routers.
void expect_matches_reference(const Graph& g, DeviceId src, DeviceId dst,
                              const RouteOptions& opts) {
  const auto got = shortest_route(g, src, dst, opts);
  const auto want = reference::shortest_route(g, src, dst, opts);
  ASSERT_EQ(got.has_value(), want.has_value()) << src << "->" << dst;
  if (want.has_value()) {
    EXPECT_EQ(*got, *want) << src << "->" << dst;
  }
  EXPECT_EQ(hop_distance(g, src, dst, opts), reference::hop_distance(g, src, dst, opts))
      << src << "->" << dst;
}

TEST(RoutingOracle, RandomGraphsMatchReverseSearch) {
  // One-way links, parallel links, several disconnected parts and random
  // link filters.
  Rng rng(2024);
  int routed = 0;
  int unreachable = 0;
  for (int trial = 0; trial < 500; ++trial) {
    Graph g;
    const int n = 2 + static_cast<int>(rng.uniform_int(15));
    for (int i = 0; i < n; ++i) g.add_device({DeviceKind::kGpu, 0, i, ""});
    // Devices fall into up to three parts; links stay inside a part.
    const int parts = 1 + static_cast<int>(rng.uniform_int(3));
    std::vector<int> part(static_cast<std::size_t>(n));
    for (int& p : part) p = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(parts)));
    const int links = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(3 * n)));
    for (int k = 0; k < links; ++k) {
      const auto a = static_cast<DeviceId>(rng.uniform_int(static_cast<std::uint64_t>(n)));
      const auto b = static_cast<DeviceId>(rng.uniform_int(static_cast<std::uint64_t>(n)));
      if (a == b || part[a] != part[b]) continue;
      const int copies = rng.bernoulli(0.2) ? 2 : 1;  // parallel links
      for (int c = 0; c < copies; ++c) {
        if (rng.bernoulli(0.6)) {
          Link one_way;
          one_way.src = a;
          one_way.dst = b;
          one_way.capacity = gbps(100);
          g.add_link(one_way);
        } else {
          g.add_duplex_link(a, b, gbps(100), nanoseconds(10), LinkType::kNvLink);
        }
      }
    }
    RouteOptions opts;
    if (rng.bernoulli(0.5)) {
      std::vector<std::uint8_t> up(g.link_count());
      for (auto& u : up) u = rng.bernoulli(0.75) ? 1 : 0;
      opts.link_filter = [up](LinkId id, const Link&) { return up[id] != 0; };
    }
    for (DeviceId src = 0; src < g.device_count(); ++src) {
      for (DeviceId dst = 0; dst < g.device_count(); ++dst) {
        const int hops = reference::hop_distance(g, src, dst, opts);
        expect_matches_reference(g, src, dst, opts);
        if (hops == kHopsUnreachable) ++unreachable;
        if (hops > 0) ++routed;
      }
    }
    if (HasFailure()) return;
  }
  // The generator exercises every outcome.
  EXPECT_GT(routed, 5000);
  EXPECT_GT(unreachable, 5000);
}

// Downs every listed link; all else nominal.
struct DownLinks final : fault::FaultModel {
  std::set<LinkId> down;
  bool link_up(LinkId link) const override { return down.count(link) == 0; }
  double capacity_factor(LinkId) const override { return 1.0; }
  double straggler_factor(int) const override { return 1.0; }
};

TEST(RoutingOracle, SameNodeGpuPairsMatchReverseSearch) {
  for (const char* name : {"alps", "leonardo", "lumi"}) {
    SCOPED_TRACE(name);
    Cluster cluster(system_by_name(name), {.nodes = 2});
    const Graph& g = cluster.graph();
    const RouteOptions fabric = gpu_fabric_options();
    // A quarter of the GPU-fabric links go down, seeded, so some pairs
    // reroute or lose every path.
    DownLinks faults;
    Rng rng(7);
    for (LinkId id = 0; id < g.link_count(); ++id) {
      if (fabric.link_filter(id, g.link(id)) && rng.bernoulli(0.25)) faults.down.insert(id);
    }
    RouteOptions faulted = fabric;
    faulted.link_filter = [&](LinkId id, const Link& l) {
      return fabric.link_filter(id, l) && faults.link_up(id);
    };
    int rerouted = 0;
    for (int n = 0; n < cluster.num_nodes(); ++n) {
      const int base = n * cluster.gpus_per_node();
      for (int a = base; a < base + cluster.gpus_per_node(); ++a) {
        for (int b = base; b < base + cluster.gpus_per_node(); ++b) {
          const DeviceId src = cluster.gpu_device(a);
          const DeviceId dst = cluster.gpu_device(b);
          expect_matches_reference(g, src, dst, fabric);
          expect_matches_reference(g, src, dst, faulted);
          if (a == b) continue;
          cluster.set_faults(nullptr);
          const Route nominal = cluster.intra_node_route(a, b);
          EXPECT_EQ(nominal, reference::shortest_route(g, src, dst, fabric).value());
          cluster.set_faults(&faults);
          const Route degraded = cluster.intra_node_route(a, b);
          EXPECT_EQ(degraded,
                    reference::shortest_route(g, src, dst, faulted).value_or(Route{}));
          if (degraded != nominal) ++rerouted;
        }
      }
    }
    cluster.set_faults(nullptr);
    EXPECT_GT(rerouted, 0) << "the downed links change some routes";
  }
}

}  // namespace
}  // namespace gpucomm
