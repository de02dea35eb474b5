// Fat-tree fabric (the Sec. VIII what-if): structure, routing, and the
// paper's expectation that cross-pod latency exceeds a Dragonfly's
// cross-group latency due to the larger diameter.
#include <gtest/gtest.h>

#include "gpucomm/cluster/placement.hpp"
#include "gpucomm/comm/mpi/mpi_comm.hpp"
#include "gpucomm/systems/registry.hpp"
#include "gpucomm/topology/fat_tree.hpp"
#include "gpucomm/topology/intra_node.hpp"

namespace gpucomm {
namespace {

struct Fixture {
  Graph g;
  FatTreeParams params;
  std::unique_ptr<FatTree> ft;
  std::vector<NodeDevices> nodes;

  explicit Fixture(Placement placement = Placement::kPacked) {
    params.pods = 4;
    params.edges_per_pod = 4;
    params.aggs_per_pod = 4;
    params.cores = 8;
    params.nodes_per_edge = 4;
    params.placement = placement;
    ft = std::make_unique<FatTree>(g, params);
  }

  void attach(int count) {
    for (int i = 0; i < count; ++i) {
      nodes.push_back(build_node(g, NodeArch::kLeonardo, i));
      ft->attach_node(g, nodes.back());
    }
  }
};

TEST(FatTreeTest, SwitchCounts) {
  Fixture f;
  // 4 pods x (4 edge + 4 agg) + 8 cores.
  EXPECT_EQ(f.g.devices_of_kind(DeviceKind::kSwitch).size(), 4u * 8u + 8u);
  EXPECT_EQ(f.ft->max_nodes(), 4u * 4u * 4u);
}

TEST(FatTreeTest, EdgeAggBipartite) {
  Fixture f;
  for (int e = 0; e < 4; ++e) {
    int ups = 0;
    for (const LinkId l : f.g.out_links(f.ft->edge_device(1, e))) {
      if (f.g.link(l).type == LinkType::kLeafSpine) ++ups;
    }
    EXPECT_EQ(ups, 4);
  }
}

TEST(FatTreeTest, CoreServesEveryPod) {
  Fixture f;
  for (int c = 0; c < 8; ++c) {
    int down = 0;
    for (const LinkId l : f.g.out_links(f.ft->core_device(c))) {
      if (f.g.link(l).type == LinkType::kGlobal) ++down;
    }
    EXPECT_EQ(down, 4);  // one link per pod
  }
}

TEST(FatTreeTest, RouteHopStructure) {
  Fixture f(Placement::kScatterGroups);
  f.attach(8);
  Rng rng(3);
  // Same edge: 2 links. Same pod: 4 links. Cross pod: 6 links (diameter).
  const Route same_edge = f.ft->route(f.g, f.nodes[0].nics[0], f.nodes[4].nics[1], rng);
  EXPECT_EQ(same_edge.size(), 2u);
  const Route cross_pod = f.ft->route(f.g, f.nodes[0].nics[0], f.nodes[1].nics[0], rng);
  EXPECT_EQ(cross_pod.size(), 6u);
  // Contiguity.
  for (std::size_t i = 1; i < cross_pod.size(); ++i)
    EXPECT_EQ(f.g.link(cross_pod[i]).src, f.g.link(cross_pod[i - 1]).dst);
  EXPECT_EQ(f.g.link(cross_pod.back()).dst, f.nodes[1].nics[0]);
}

TEST(FatTreeTest, SamePodRouteViaAggregation) {
  Fixture f(Placement::kScatterSwitches);
  f.attach(2);
  Rng rng(5);
  const Route r = f.ft->route(f.g, f.nodes[0].nics[0], f.nodes[1].nics[0], rng);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(f.g.link(r[1]).type, LinkType::kLeafSpine);
}

TEST(FatTreeTest, EcmpSpreadsCores) {
  Fixture f(Placement::kScatterGroups);
  f.attach(4);
  Rng rng(7);
  std::set<LinkId> cores_used;
  for (int t = 0; t < 64; ++t) {
    const Route r = f.ft->route(f.g, f.nodes[0].nics[0], f.nodes[1].nics[0], rng);
    for (const LinkId l : r) {
      if (f.g.link(l).type == LinkType::kGlobal) cores_used.insert(l);
    }
  }
  EXPECT_GT(cores_used.size(), 2u);
}

TEST(FatTreeTest, FilteredRouteAvoidsDeadLinks) {
  Fixture f(Placement::kScatterGroups);
  f.attach(4);
  Rng rng(11);
  // Kill the fabric links of a healthy cross-pod route; ECMP must steer the
  // reroute through surviving aggregation/core switches only.
  const Route healthy = f.ft->route(f.g, f.nodes[0].nics[0], f.nodes[1].nics[0], rng);
  std::set<LinkId> dead;
  for (const LinkId l : healthy) {
    if (f.g.link(l).type != LinkType::kNicWire) dead.insert(l);
  }
  ASSERT_FALSE(dead.empty());
  const LinkFilter ok = [&dead](LinkId l) { return dead.count(l) == 0; };
  for (int trial = 0; trial < 16; ++trial) {
    const Route r = f.ft->route(f.g, f.nodes[0].nics[0], f.nodes[1].nics[0], rng, ok);
    ASSERT_GE(r.size(), 2u);
    for (const LinkId l : r) EXPECT_EQ(dead.count(l), 0u) << "used dead link " << l;
    for (std::size_t i = 1; i < r.size(); ++i)
      EXPECT_EQ(f.g.link(r[i]).src, f.g.link(r[i - 1]).dst);
  }
}

TEST(FatTreeTest, DeadNicWireMakesRouteEmpty) {
  Fixture f;
  f.attach(2);
  Rng rng(13);
  const DeviceId src = f.nodes[0].nics[0];
  const LinkFilter ok = [&](LinkId l) {
    return f.g.link(l).src != src && f.g.link(l).dst != src;
  };
  EXPECT_TRUE(f.ft->route(f.g, src, f.nodes[1].nics[0], rng, ok).empty());
}

TEST(FatTreeTest, ClassifyDistances) {
  Fixture f(Placement::kScatterGroups);
  f.attach(8);
  EXPECT_EQ(f.ft->classify(f.nodes[0].nics[0], f.nodes[1].nics[0]),
            NetworkDistance::kDiffGroup);
  EXPECT_NE(f.ft->classify(f.nodes[0].nics[0], f.nodes[4].nics[0]),
            NetworkDistance::kDiffGroup);
}

TEST(FatTreeTest, ThrowsWhenFull) {
  Fixture f;
  EXPECT_NO_THROW(f.attach(64));
  NodeDevices extra = build_node(f.g, NodeArch::kLeonardo, 999);
  EXPECT_THROW(f.ft->attach_node(f.g, extra), std::runtime_error);
}

TEST(FatTreeSystemTest, LeonardoOnFatTreeWorksEndToEnd) {
  // Swap Leonardo's interconnect for a fat tree (Sec. VIII what-if): the
  // stack still runs, and cross-pod latency exceeds the Dragonfly+
  // cross-group latency thanks to the two extra switch hops.
  SystemConfig cfg = leonardo_config();
  cfg.fabric.kind = FabricKind::kFatTree;
  cfg.fabric.fat_tree.pods = 8;
  cfg.noise.production_noise = false;  // isolate topology latency

  ClusterOptions copt;
  copt.nodes = 4;
  copt.placement = Placement::kScatterGroups;
  Cluster ft(cfg, copt);
  CommOptions opt;
  opt.env = cfg.tuned_env();
  MpiComm mpi_ft(ft, {0, 4}, opt);
  const double lat_ft = mpi_ft.time_pingpong(0, 1, 1).micros() / 2;

  SystemConfig df = leonardo_config();
  df.noise.production_noise = false;
  Cluster dplus(df, copt);
  MpiComm mpi_df(dplus, {0, 4}, opt);
  const double lat_df = mpi_df.time_pingpong(0, 1, 1).micros() / 2;

  EXPECT_GT(lat_ft, lat_df);            // larger diameter
  EXPECT_LT(lat_ft, lat_df + 1.5);      // "slightly higher" (Sec. VIII)

  // Goodput conclusions carry over: MPI still ~ NIC peak.
  const double gp = goodput_gbps(1_GiB, SimTime{mpi_ft.time_pingpong(0, 1, 1_GiB).ps / 2});
  EXPECT_GT(gp, 85.0);
}

TEST(ValiantRoutingTest, DetourAddsOneGlobalHop) {
  Graph g;
  DragonflyParams p;
  p.groups = 6;
  p.valiant = true;
  p.placement = Placement::kScatterGroups;
  Dragonfly df(g, p);
  std::vector<NodeDevices> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(build_node(g, NodeArch::kAlps, i));
    df.attach_node(g, nodes.back());
  }
  Rng rng(11);
  for (int t = 0; t < 32; ++t) {
    const Route r = df.route(g, nodes[0].nics[0], nodes[1].nics[0], rng);
    int globals = 0;
    for (const LinkId l : r) {
      if (g.link(l).type == LinkType::kGlobal) ++globals;
    }
    EXPECT_EQ(globals, 2);  // src -> mid -> dst
    // Contiguity through the detour.
    for (std::size_t i = 1; i < r.size(); ++i)
      EXPECT_EQ(g.link(r[i]).src, g.link(r[i - 1]).dst);
  }
}

TEST(ValiantRoutingTest, MinimalStaysSingleGlobalHop) {
  Graph g;
  DragonflyParams p;
  p.groups = 6;
  p.placement = Placement::kScatterGroups;
  Dragonfly df(g, p);
  std::vector<NodeDevices> nodes;
  for (int i = 0; i < 2; ++i) {
    nodes.push_back(build_node(g, NodeArch::kAlps, i));
    df.attach_node(g, nodes.back());
  }
  Rng rng(13);
  const Route r = df.route(g, nodes[0].nics[0], nodes[1].nics[0], rng);
  int globals = 0;
  for (const LinkId l : r) {
    if (g.link(l).type == LinkType::kGlobal) ++globals;
  }
  EXPECT_EQ(globals, 1);
}

}  // namespace
}  // namespace gpucomm
