// Slingshot Dragonfly construction and routing against Sec. II-A/II-C port
// budgets: 16 endpoint + 31 local + 17 global ports per switch.
#include <gtest/gtest.h>

#include "gpucomm/topology/dragonfly.hpp"
#include "gpucomm/topology/intra_node.hpp"

namespace gpucomm {
namespace {

struct Fixture {
  Graph g;
  DragonflyParams params;
  std::unique_ptr<Dragonfly> df;
  std::vector<NodeDevices> nodes;

  explicit Fixture(int groups = 4, int span = 1,
                   Placement placement = Placement::kPacked) {
    params.groups = groups;
    params.switch_span = span;
    params.placement = placement;
    df = std::make_unique<Dragonfly>(g, params);
  }

  void attach(int count, NodeArch arch = NodeArch::kAlps) {
    for (int i = 0; i < count; ++i) {
      nodes.push_back(build_node(g, arch, i));
      df->attach_node(g, nodes.back());
    }
  }
};

TEST(DragonflyTest, SwitchCount) {
  Fixture f(4);
  EXPECT_EQ(f.g.devices_of_kind(DeviceKind::kSwitch).size(), 4u * 32u);
}

TEST(DragonflyTest, IntraGroupAllToAll) {
  Fixture f(2);
  // Each switch reaches the other 31 in its group directly: 31 local ports.
  for (int s = 0; s < 32; ++s) {
    int local = 0;
    for (const LinkId l : f.g.out_links(f.df->switch_device(0, s))) {
      if (f.g.link(l).type == LinkType::kIntraGroup) ++local;
    }
    EXPECT_EQ(local, 31);
  }
}

TEST(DragonflyTest, GlobalPortBudgetRespected) {
  // No switch may terminate more than its 17 global ports (Sec. II-A).
  for (const int groups : {2, 8, 16, 24}) {
    Fixture f(groups);
    for (const int used : f.df->global_ports_used()) {
      EXPECT_LE(used, 17) << groups << " groups";
    }
  }
}

TEST(DragonflyTest, EveryGroupPairConnected) {
  Fixture f(8);
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      if (a == b) continue;
      EXPECT_FALSE(f.df->global_links(a, b).empty()) << a << "->" << b;
    }
  }
}

TEST(DragonflyTest, PackedAttachGivesSameSwitchNeighbours) {
  Fixture f(4);
  f.attach(4);  // 4 Alps nodes x 4 NICs = 16 endpoint ports = 1 full switch
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ(f.df->switch_of(f.nodes[n].nics[0]), f.df->switch_of(f.nodes[0].nics[0]));
  }
}

TEST(DragonflyTest, PackedAttachSpillsToNextSwitch) {
  Fixture f(4);
  f.attach(5);
  EXPECT_NE(f.df->switch_of(f.nodes[4].nics[0]), f.df->switch_of(f.nodes[0].nics[0]));
  EXPECT_EQ(f.df->group_of(f.nodes[4].nics[0]), f.df->group_of(f.nodes[0].nics[0]));
}

TEST(DragonflyTest, ScatterGroupsRoundRobins) {
  Fixture f(4, 1, Placement::kScatterGroups);
  f.attach(8);
  for (int n = 0; n < 8; ++n) EXPECT_EQ(f.df->group_of(f.nodes[n].nics[0]), n % 4);
}

TEST(DragonflyTest, ScatterSwitchesStaysInGroupZero) {
  Fixture f(4, 1, Placement::kScatterSwitches);
  f.attach(6);
  for (int n = 0; n < 6; ++n) EXPECT_EQ(f.df->group_of(f.nodes[n].nics[0]), 0);
  EXPECT_NE(f.df->switch_of(f.nodes[1].nics[0]), f.df->switch_of(f.nodes[0].nics[0]));
}

TEST(DragonflyTest, LumiSpanTwoSwitches) {
  // Each LUMI node connects to two switches in the same group (Sec. II-C).
  Fixture f(4, /*span=*/2);
  f.attach(2, NodeArch::kLumi);
  const auto& node = f.nodes[0];
  EXPECT_EQ(f.df->switch_of(node.nics[0]), f.df->switch_of(node.nics[1]));
  EXPECT_EQ(f.df->switch_of(node.nics[2]), f.df->switch_of(node.nics[3]));
  EXPECT_NE(f.df->switch_of(node.nics[0]), f.df->switch_of(node.nics[2]));
  EXPECT_EQ(f.df->group_of(node.nics[0]), f.df->group_of(node.nics[2]));
}

TEST(DragonflyTest, RouteSameSwitchIsTwoWires) {
  Fixture f(4);
  f.attach(2);
  Rng rng(1);
  const Route r = f.df->route(f.g, f.nodes[0].nics[0], f.nodes[1].nics[0], rng);
  EXPECT_EQ(r.size(), 2u);  // NIC -> switch -> NIC
  EXPECT_EQ(f.g.link(r.front()).type, LinkType::kNicWire);
  EXPECT_EQ(f.g.link(r.back()).type, LinkType::kNicWire);
}

TEST(DragonflyTest, RouteValidityAcrossAllClasses) {
  Fixture f(4, 1, Placement::kScatterGroups);
  f.attach(8);
  Rng rng(7);
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      if (a == b) continue;
      const Route r = f.df->route(f.g, f.nodes[a].nics[0], f.nodes[b].nics[0], rng);
      ASSERT_GE(r.size(), 2u);
      // Contiguity.
      for (std::size_t i = 1; i < r.size(); ++i) {
        EXPECT_EQ(f.g.link(r[i]).src, f.g.link(r[i - 1]).dst);
      }
      EXPECT_EQ(f.g.link(r.front()).src, f.nodes[a].nics[0]);
      EXPECT_EQ(f.g.link(r.back()).dst, f.nodes[b].nics[0]);
      // Minimal inter-group routes: at most l-g-l = 5 links incl. wires.
      EXPECT_LE(r.size(), 5u);
    }
  }
}

TEST(DragonflyTest, InterGroupRouteCrossesExactlyOneGlobalLink) {
  Fixture f(4, 1, Placement::kScatterGroups);
  f.attach(4);
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const Route r = f.df->route(f.g, f.nodes[0].nics[0], f.nodes[1].nics[0], rng);
    int globals = 0;
    for (const LinkId l : r) {
      if (f.g.link(l).type == LinkType::kGlobal) ++globals;
    }
    EXPECT_EQ(globals, 1);
  }
}

TEST(DragonflyTest, AdaptiveRoutingSpreadsGlobalLinks) {
  Fixture f(4, 1, Placement::kScatterGroups);
  f.attach(4);
  Rng rng(11);
  std::set<LinkId> used;
  for (int trial = 0; trial < 64; ++trial) {
    const Route r = f.df->route(f.g, f.nodes[0].nics[0], f.nodes[1].nics[0], rng);
    for (const LinkId l : r) {
      if (f.g.link(l).type == LinkType::kGlobal) used.insert(l);
    }
  }
  EXPECT_GT(used.size(), 1u);  // multiple parallel global links exercised
}

TEST(DragonflyTest, FilteredRouteAvoidsDeadLinks) {
  Fixture f(4, 1, Placement::kScatterGroups);
  f.attach(4);
  // Kill every fabric link a healthy inter-group route uses (not the NIC
  // wires): the filtered route must avoid all of them and still connect.
  Rng rng(5);
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
    for (std::size_t i = 1; i < r.size(); ++i) {
      EXPECT_EQ(f.g.link(r[i]).src, f.g.link(r[i - 1]).dst);
    }
  }
}

TEST(DragonflyTest, DeadNicWireMakesRouteEmpty) {
  Fixture f(4);
  f.attach(2);
  Rng rng(9);
  // The source NIC's own wire is the only way out: kill it and no path exists.
  const DeviceId src = f.nodes[0].nics[0];
  const LinkFilter ok = [&](LinkId l) {
    return f.g.link(l).src != src && f.g.link(l).dst != src;
  };
  EXPECT_TRUE(f.df->route(f.g, src, f.nodes[1].nics[0], rng, ok).empty());
}

TEST(DragonflyTest, EmptyFilterMatchesUnfilteredChoices) {
  // The documented contract: from identical router state, an
  // accept-everything filter consumes the same adaptive choices (rng draws
  // and spreading cursors) as no filter at all.
  Fixture plain_f(4, 1, Placement::kScatterGroups);
  plain_f.attach(4);
  Fixture filt_f(4, 1, Placement::kScatterGroups);
  filt_f.attach(4);
  Rng rng_a(21), rng_b(21);
  const LinkFilter all = [](LinkId) { return true; };
  for (int trial = 0; trial < 16; ++trial) {
    const Route plain = plain_f.df->route(plain_f.g, plain_f.nodes[0].nics[0],
                                          plain_f.nodes[1].nics[0], rng_a);
    const Route filt = filt_f.df->route(filt_f.g, filt_f.nodes[0].nics[0],
                                        filt_f.nodes[1].nics[0], rng_b, all);
    EXPECT_EQ(plain, filt);
  }
}

TEST(DragonflyTest, ClassifyDistances) {
  Fixture f(4, 1, Placement::kScatterGroups);
  f.attach(8);
  // nodes 0 and 4 are both in group 0 (wrap) but on different switches...
  EXPECT_EQ(f.df->classify(f.nodes[0].nics[0], f.nodes[1].nics[0]),
            NetworkDistance::kDiffGroup);
  const NetworkDistance d04 = f.df->classify(f.nodes[0].nics[0], f.nodes[4].nics[0]);
  EXPECT_NE(d04, NetworkDistance::kDiffGroup);
}

TEST(DragonflyTest, ThrowsWhenFull) {
  Fixture f(2);
  // 2 groups x 32 switches x 16 ports / 4 NICs = 256 nodes max.
  EXPECT_NO_THROW(f.attach(256));
  NodeDevices extra = build_node(f.g, NodeArch::kAlps, 999);
  EXPECT_THROW(f.df->attach_node(f.g, extra), std::runtime_error);
}

TEST(DragonflyTest, RejectsSingleGroup) {
  Graph g;
  DragonflyParams p;
  p.groups = 1;
  EXPECT_THROW(Dragonfly(g, p), std::invalid_argument);
}

}  // namespace
}  // namespace gpucomm
