#include "gpucomm/topology/dragonfly_plus.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "gpucomm/topology/routing.hpp"

namespace gpucomm {

DragonflyPlus::DragonflyPlus(Graph& g, DragonflyPlusParams params) : params_(params) {
  const int G = params_.groups;
  const int L = params_.leaves_per_group;
  const int P = params_.spines_per_group;
  if (G < 2) throw std::invalid_argument("dragonfly+ needs >= 2 groups");
  if (params_.spine.global_ports < G - 1)
    throw std::invalid_argument("spine global ports cannot reach every other group");

  for (int gr = 0; gr < G; ++gr) {
    for (int l = 0; l < L; ++l)
      leaves_.push_back(g.add_device({DeviceKind::kSwitch, -1, gr * L + l,
                                      "leaf" + std::to_string(l) + "@g" + std::to_string(gr)}));
    for (int p = 0; p < P; ++p)
      spines_.push_back(g.add_device({DeviceKind::kSwitch, -1, gr * P + p,
                                      "spine" + std::to_string(p) + "@g" + std::to_string(gr)}));
  }

  // Leaf-spine complete bipartite graph inside each group.
  up_.assign(static_cast<std::size_t>(G) * L * P, kInvalidLink);
  for (int gr = 0; gr < G; ++gr) {
    for (int l = 0; l < L; ++l) {
      for (int p = 0; p < P; ++p) {
        const LinkId fwd =
            g.add_duplex_link(leaf_device(gr, l), spine_device(gr, p), params_.up.rate,
                              params_.up.latency, LinkType::kLeafSpine, 1,
                              params_.leaf.virtual_lanes);
        up_[(static_cast<std::size_t>(gr) * L + l) * P + p] = fwd;
      }
    }
  }

  // Global: spine s of group a <-> spine s of group b, one link per pair.
  global_.assign(static_cast<std::size_t>(G) * G * P, kInvalidLink);
  for (int a = 0; a < G; ++a) {
    for (int b = a + 1; b < G; ++b) {
      for (int p = 0; p < P; ++p) {
        const LinkId fwd =
            g.add_duplex_link(spine_device(a, p), spine_device(b, p), params_.global.rate,
                              params_.global.latency, LinkType::kGlobal, 1,
                              params_.spine.virtual_lanes);
        global_[(static_cast<std::size_t>(a) * G + b) * P + p] = fwd;
        global_[(static_cast<std::size_t>(b) * G + a) * P + p] = fwd + 1;
      }
    }
  }

  leaf_slots_.assign(static_cast<std::size_t>(G) * L, 0);
}

DeviceId DragonflyPlus::leaf_device(int group, int leaf) const {
  return leaves_[static_cast<std::size_t>(group) * params_.leaves_per_group + leaf];
}
DeviceId DragonflyPlus::spine_device(int group, int spine) const {
  return spines_[static_cast<std::size_t>(group) * params_.spines_per_group + spine];
}
LinkId DragonflyPlus::up_link(int group, int leaf, int spine) const {
  const int L = params_.leaves_per_group;
  const int P = params_.spines_per_group;
  return up_[(static_cast<std::size_t>(group) * L + leaf) * P + spine];
}
LinkId DragonflyPlus::global_link(int a, int b, int spine) const {
  return global_[(static_cast<std::size_t>(a) * params_.groups + b) * params_.spines_per_group +
                 spine];
}

std::size_t DragonflyPlus::max_nodes() const {
  return static_cast<std::size_t>(params_.groups) * params_.leaves_per_group *
         params_.nodes_per_leaf;
}

void DragonflyPlus::attach_node(Graph& g, const NodeDevices& node) {
  const int G = params_.groups;
  const int L = params_.leaves_per_group;
  const int total_leaves = G * L;

  int leaf_flat = -1;
  if (params_.placement == Placement::kScatterGroups) {
    const int group = static_cast<int>(attached_nodes_) % G;
    for (int l = 0; l < L && leaf_flat < 0; ++l) {
      if (leaf_slots_[group * L + l] < params_.nodes_per_leaf) leaf_flat = group * L + l;
    }
  } else if (params_.placement == Placement::kScatterSwitches) {
    const int leaf = static_cast<int>(attached_nodes_) % L;
    if (leaf_slots_[leaf] < params_.nodes_per_leaf) leaf_flat = leaf;
  }
  if (leaf_flat < 0) {
    for (int lf = 0; lf < total_leaves && leaf_flat < 0; ++lf) {
      if (leaf_slots_[lf] < params_.nodes_per_leaf) leaf_flat = lf;
    }
  }
  if (leaf_flat < 0) throw std::runtime_error("dragonfly+ fabric is full");
  ++leaf_slots_[leaf_flat];

  for (const DeviceId nic : node.nics) {
    const LinkId wire = g.add_duplex_link(nic, leaves_[leaf_flat], params_.edge.rate,
                                          params_.edge.latency, LinkType::kNicWire, 1,
                                          params_.leaf.virtual_lanes);
    if (nics_.size() <= nic) nics_.resize(nic + 1);
    nics_[nic] = NicInfo{leaf_flat / L, leaf_flat % L, wire};
  }
  ++attached_nodes_;
}

const DragonflyPlus::NicInfo& DragonflyPlus::info(DeviceId nic) const {
  assert(nic < nics_.size() && nics_[nic].wire != kInvalidLink && "NIC not attached");
  return nics_[nic];
}

int DragonflyPlus::switch_of(DeviceId nic) const {
  const NicInfo& i = info(nic);
  return i.group * params_.leaves_per_group + i.leaf;
}

int DragonflyPlus::group_of(DeviceId nic) const { return info(nic).group; }

Route DragonflyPlus::route(const Graph& g, DeviceId src_nic, DeviceId dst_nic, Rng& rng,
                           const LinkFilter& link_ok) const {
  const NicInfo& a = info(src_nic);
  const NicInfo& b = info(dst_nic);
  // A dead NIC wire cannot be routed around inside the fabric.
  if (link_ok && (!link_ok(a.wire) || !link_ok(b.wire + 1))) return {};
  Route r;
  r.push_back(a.wire);

  const int P = params_.spines_per_group;
  // Adaptive spine selection: round-robin spreads bundles evenly (random
  // choice leaves hot spines); rng stays for API symmetry. Under faults the
  // first live spine at or after the cursor is taken and the cursor lands
  // one past it, so with all links up the sequence matches the unfiltered
  // round-robin exactly.
  (void)rng;
  bool structured_ok = true;
  const auto pick_spine = [&](const auto& usable) {
    for (int t = 0; t < P; ++t) {
      const int p = static_cast<int>((spine_cursor_ + t) % P);
      if (link_ok && !usable(p)) continue;
      spine_cursor_ += static_cast<std::size_t>(t) + 1;
      return p;
    }
    structured_ok = false;
    return 0;
  };
  if (a.group == b.group) {
    if (a.leaf != b.leaf) {
      const int p = pick_spine([&](int s) {
        return link_ok(up_link(a.group, a.leaf, s)) && link_ok(up_link(b.group, b.leaf, s) + 1);
      });
      r.push_back(up_link(a.group, a.leaf, p));
      r.push_back(up_link(b.group, b.leaf, p) + 1);  // spine -> leaf
    }
  } else {
    // leaf -> spine p -> (global) -> spine p in dst group -> leaf.
    const int p = pick_spine([&](int s) {
      return link_ok(up_link(a.group, a.leaf, s)) && link_ok(global_link(a.group, b.group, s)) &&
             link_ok(up_link(b.group, b.leaf, s) + 1);
    });
    r.push_back(up_link(a.group, a.leaf, p));
    r.push_back(global_link(a.group, b.group, p));
    r.push_back(up_link(b.group, b.leaf, p) + 1);
  }

  r.push_back(b.wire + 1);
  if (!link_ok || structured_ok) return r;
  // Every spine is blocked on the minimal path: reroute generically over the
  // surviving fabric (e.g. via another group's spines).
  return filtered_fabric_route(g, src_nic, dst_nic, link_ok);
}

}  // namespace gpucomm
