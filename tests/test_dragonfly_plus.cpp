// Leonardo Dragonfly+ construction against Sec. II-B: 23 groups of 18 leaf +
// 18 spine switches; 10 nodes per leaf; one global link per spine per other
// group (22 global ports).
#include <gtest/gtest.h>

#include "gpucomm/topology/dragonfly_plus.hpp"
#include "gpucomm/topology/intra_node.hpp"

namespace gpucomm {
namespace {

struct Fixture {
  Graph g;
  DragonflyPlusParams params;
  std::unique_ptr<DragonflyPlus> df;
  std::vector<NodeDevices> nodes;

  explicit Fixture(int groups = 4,
                   Placement placement = Placement::kPacked) {
    params.groups = groups;
    params.placement = placement;
    df = std::make_unique<DragonflyPlus>(g, params);
  }

  void attach(int count) {
    for (int i = 0; i < count; ++i) {
      nodes.push_back(build_node(g, NodeArch::kLeonardo, i));
      df->attach_node(g, nodes.back());
    }
  }
};

TEST(DragonflyPlusTest, SwitchCounts) {
  Fixture f(4);
  EXPECT_EQ(f.g.devices_of_kind(DeviceKind::kSwitch).size(), 4u * 36u);
}

TEST(DragonflyPlusTest, FullScaleLeonardoBuilds) {
  Fixture f(23);
  EXPECT_EQ(f.g.devices_of_kind(DeviceKind::kSwitch).size(), 23u * 36u);
  EXPECT_EQ(f.df->max_nodes(), 23u * 18u * 10u);  // 4140 >= 3456 booster nodes
}

TEST(DragonflyPlusTest, LeafSpineCompleteBipartite) {
  Fixture f(3);
  for (int l = 0; l < 18; ++l) {
    for (int p = 0; p < 18; ++p) {
      const LinkId up = f.df->up_link(1, l, p);
      ASSERT_NE(up, kInvalidLink);
      EXPECT_EQ(f.g.link(up).src, f.df->leaf_device(1, l));
      EXPECT_EQ(f.g.link(up).dst, f.df->spine_device(1, p));
      EXPECT_DOUBLE_EQ(f.g.link(up).capacity, gbps(200));
    }
  }
}

TEST(DragonflyPlusTest, SpineGlobalPortBudget) {
  // Each spine has one link to each other group: at most 22 used (Sec. II-B).
  Fixture f(23);
  for (int p = 0; p < 18; ++p) {
    int globals = 0;
    for (const LinkId l : f.g.out_links(f.df->spine_device(0, p))) {
      if (f.g.link(l).type == LinkType::kGlobal) ++globals;
    }
    EXPECT_EQ(globals, 22);
  }
}

TEST(DragonflyPlusTest, GlobalPairingBySpineIndex) {
  Fixture f(5);
  for (int a = 0; a < 5; ++a) {
    for (int b = 0; b < 5; ++b) {
      if (a == b) continue;
      for (int p = 0; p < 18; ++p) {
        const LinkId l = f.df->global_link(a, b, p);
        ASSERT_NE(l, kInvalidLink);
        EXPECT_EQ(f.g.link(l).src, f.df->spine_device(a, p));
        EXPECT_EQ(f.g.link(l).dst, f.df->spine_device(b, p));
      }
    }
  }
}

TEST(DragonflyPlusTest, AllNodePortsOnSameLeaf) {
  // "all connected to the same switch at the time of writing" (Sec. II-B).
  Fixture f(4);
  f.attach(3);
  for (const auto& node : f.nodes) {
    const int sw = f.df->switch_of(node.nics[0]);
    for (const DeviceId nic : node.nics) EXPECT_EQ(f.df->switch_of(nic), sw);
    for (const DeviceId nic : node.nics) {
      const LinkId wire = f.g.find_link(nic, f.df->leaf_device(0, sw % 18));
      ASSERT_NE(wire, kInvalidLink);
      EXPECT_DOUBLE_EQ(f.g.link(wire).capacity, gbps(100));  // 100 Gb/s ports
    }
  }
}

TEST(DragonflyPlusTest, PackedFillsLeafWithTenNodes) {
  Fixture f(4);
  f.attach(11);
  for (int n = 0; n < 10; ++n)
    EXPECT_EQ(f.df->switch_of(f.nodes[n].nics[0]), f.df->switch_of(f.nodes[0].nics[0]));
  EXPECT_NE(f.df->switch_of(f.nodes[10].nics[0]), f.df->switch_of(f.nodes[0].nics[0]));
}

TEST(DragonflyPlusTest, ScatterModes) {
  {
    Fixture f(4, Placement::kScatterGroups);
    f.attach(8);
    for (int n = 0; n < 8; ++n) EXPECT_EQ(f.df->group_of(f.nodes[n].nics[0]), n % 4);
  }
  {
    Fixture f(4, Placement::kScatterSwitches);
    f.attach(6);
    for (int n = 0; n < 6; ++n) EXPECT_EQ(f.df->group_of(f.nodes[n].nics[0]), 0);
    EXPECT_NE(f.df->switch_of(f.nodes[1].nics[0]), f.df->switch_of(f.nodes[0].nics[0]));
  }
}

TEST(DragonflyPlusTest, RouteHopCounts) {
  Fixture f(4, Placement::kScatterGroups);
  f.attach(8);
  Rng rng(5);
  // Same leaf (nodes 0 and 4 share group 0, leaf 0 under packed fill rules).
  const Route same_leaf = f.df->route(f.g, f.nodes[0].nics[0], f.nodes[4].nics[1], rng);
  EXPECT_EQ(same_leaf.size(), 2u);
  // Different groups: wire + up + global + down + wire = 5 links.
  const Route diff_group = f.df->route(f.g, f.nodes[0].nics[0], f.nodes[1].nics[0], rng);
  EXPECT_EQ(diff_group.size(), 5u);
  int globals = 0;
  for (const LinkId l : diff_group) {
    if (f.g.link(l).type == LinkType::kGlobal) ++globals;
  }
  EXPECT_EQ(globals, 1);
}

TEST(DragonflyPlusTest, SameGroupRouteGoesViaSpine) {
  Fixture f(4, Placement::kScatterSwitches);
  f.attach(2);
  Rng rng(9);
  const Route r = f.df->route(f.g, f.nodes[0].nics[0], f.nodes[1].nics[0], rng);
  EXPECT_EQ(r.size(), 4u);  // wire + up + down + wire
  EXPECT_EQ(f.g.link(r[1]).type, LinkType::kLeafSpine);
  EXPECT_EQ(f.g.link(r[2]).type, LinkType::kLeafSpine);
}

TEST(DragonflyPlusTest, AdaptiveSpineSelectionSpreads) {
  Fixture f(4, Placement::kScatterGroups);
  f.attach(4);
  Rng rng(13);
  std::set<LinkId> spines;
  for (int t = 0; t < 64; ++t) {
    const Route r = f.df->route(f.g, f.nodes[0].nics[0], f.nodes[1].nics[0], rng);
    spines.insert(r[1]);
  }
  EXPECT_GT(spines.size(), 4u);
}

TEST(DragonflyPlusTest, RouteContiguity) {
  Fixture f(4, Placement::kScatterGroups);
  f.attach(8);
  Rng rng(17);
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      if (a == b) continue;
      const Route r = f.df->route(f.g, f.nodes[a].nics[0], f.nodes[b].nics[0], rng);
      for (std::size_t i = 1; i < r.size(); ++i)
        EXPECT_EQ(f.g.link(r[i]).src, f.g.link(r[i - 1]).dst);
    }
  }
}

TEST(DragonflyPlusTest, FilteredRouteAvoidsDeadLinks) {
  Fixture f(4, Placement::kScatterGroups);
  f.attach(4);
  Rng rng(19);
  // Kill the fabric links of a healthy inter-group route; the reroute must
  // find a different spine/global path and never touch a dead link.
  const Route healthy = f.df->route(f.g, f.nodes[0].nics[0], f.nodes[1].nics[0], rng);
  std::set<LinkId> dead;
  for (const LinkId l : healthy) {
    if (f.g.link(l).type != LinkType::kNicWire) dead.insert(l);
  }
  ASSERT_FALSE(dead.empty());
  const LinkFilter ok = [&dead](LinkId l) { return dead.count(l) == 0; };
  for (int trial = 0; trial < 16; ++trial) {
    const Route r = f.df->route(f.g, f.nodes[0].nics[0], f.nodes[1].nics[0], rng, ok);
    ASSERT_GE(r.size(), 2u);
    for (const LinkId l : r) EXPECT_EQ(dead.count(l), 0u) << "used dead link " << l;
    for (std::size_t i = 1; i < r.size(); ++i)
      EXPECT_EQ(f.g.link(r[i]).src, f.g.link(r[i - 1]).dst);
  }
}

TEST(DragonflyPlusTest, DeadNicWireMakesRouteEmpty) {
  Fixture f(4);
  f.attach(2);
  Rng rng(23);
  const DeviceId src = f.nodes[0].nics[0];
  const LinkFilter ok = [&](LinkId l) {
    return f.g.link(l).src != src && f.g.link(l).dst != src;
  };
  EXPECT_TRUE(f.df->route(f.g, src, f.nodes[1].nics[0], rng, ok).empty());
}

TEST(DragonflyPlusTest, RejectsTooManyGroups) {
  Graph g;
  DragonflyPlusParams p;
  p.groups = 24;  // spines have 22 global ports -> max 23 groups
  EXPECT_THROW(DragonflyPlus(g, p), std::invalid_argument);
}

}  // namespace
}  // namespace gpucomm
