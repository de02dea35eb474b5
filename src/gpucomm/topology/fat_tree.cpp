#include "gpucomm/topology/fat_tree.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "gpucomm/topology/routing.hpp"

namespace gpucomm {

FatTree::FatTree(Graph& g, FatTreeParams params) : params_(params) {
  const int P = params_.pods;
  const int E = params_.edges_per_pod;
  const int A = params_.aggs_per_pod;
  const int C = params_.cores;
  if (P < 2) throw std::invalid_argument("fat tree needs >= 2 pods");
  if (C < A) throw std::invalid_argument("need at least one core per aggregation column");

  for (int p = 0; p < P; ++p) {
    for (int e = 0; e < E; ++e)
      edges_.push_back(g.add_device({DeviceKind::kSwitch, -1, p * E + e,
                                     "edge" + std::to_string(e) + "@p" + std::to_string(p)}));
    for (int a = 0; a < A; ++a)
      aggs_.push_back(g.add_device({DeviceKind::kSwitch, -1, p * A + a,
                                    "agg" + std::to_string(a) + "@p" + std::to_string(p)}));
  }
  for (int c = 0; c < C; ++c)
    cores_.push_back(g.add_device({DeviceKind::kSwitch, -1, c, "core" + std::to_string(c)}));

  // Edge <-> aggregation, complete bipartite per pod.
  up_.assign(static_cast<std::size_t>(P) * E * A, kInvalidLink);
  for (int p = 0; p < P; ++p) {
    for (int e = 0; e < E; ++e) {
      for (int a = 0; a < A; ++a) {
        up_[(static_cast<std::size_t>(p) * E + e) * A + a] =
            g.add_duplex_link(edge_device(p, e), agg_device(p, a), params_.up_link.rate,
                              params_.up_link.latency, LinkType::kLeafSpine);
      }
    }
  }

  // Aggregation <-> core: core c serves aggregation column c % A in every pod.
  agg_core_.assign(static_cast<std::size_t>(P) * A, {});
  for (int c = 0; c < C; ++c) {
    const int a = c % A;
    for (int p = 0; p < P; ++p) {
      const LinkId fwd =
          g.add_duplex_link(agg_device(p, a), cores_[c], params_.core_link.rate,
                            params_.core_link.latency, LinkType::kGlobal);
      agg_core_[static_cast<std::size_t>(p) * A + a].push_back(fwd);
    }
  }

  edge_slots_.assign(static_cast<std::size_t>(P) * E, 0);
}

DeviceId FatTree::edge_device(int pod, int e) const {
  return edges_[static_cast<std::size_t>(pod) * params_.edges_per_pod + e];
}
DeviceId FatTree::agg_device(int pod, int a) const {
  return aggs_[static_cast<std::size_t>(pod) * params_.aggs_per_pod + a];
}

std::size_t FatTree::max_nodes() const {
  return static_cast<std::size_t>(params_.pods) * params_.edges_per_pod *
         params_.nodes_per_edge;
}

void FatTree::attach_node(Graph& g, const NodeDevices& node) {
  const int P = params_.pods;
  const int E = params_.edges_per_pod;
  const int total_edges = P * E;

  int edge_flat = -1;
  if (params_.placement == Placement::kScatterGroups) {
    const int pod = static_cast<int>(attached_nodes_) % P;
    for (int e = 0; e < E && edge_flat < 0; ++e) {
      if (edge_slots_[pod * E + e] < params_.nodes_per_edge) edge_flat = pod * E + e;
    }
  } else if (params_.placement == Placement::kScatterSwitches) {
    const int e = static_cast<int>(attached_nodes_) % E;
    if (edge_slots_[e] < params_.nodes_per_edge) edge_flat = e;
  }
  if (edge_flat < 0) {
    for (int f = 0; f < total_edges && edge_flat < 0; ++f) {
      if (edge_slots_[f] < params_.nodes_per_edge) edge_flat = f;
    }
  }
  if (edge_flat < 0) throw std::runtime_error("fat tree is full");
  ++edge_slots_[edge_flat];

  for (const DeviceId nic : node.nics) {
    const LinkId wire =
        g.add_duplex_link(nic, edges_[edge_flat], params_.edge_link.rate,
                          params_.edge_link.latency, LinkType::kNicWire);
    if (nics_.size() <= nic) nics_.resize(nic + 1);
    nics_[nic] = NicInfo{edge_flat / E, edge_flat % E, wire};
  }
  ++attached_nodes_;
}

const FatTree::NicInfo& FatTree::info(DeviceId nic) const {
  assert(nic < nics_.size() && nics_[nic].wire != kInvalidLink && "NIC not attached");
  return nics_[nic];
}

int FatTree::switch_of(DeviceId nic) const {
  const NicInfo& i = info(nic);
  return i.pod * params_.edges_per_pod + i.edge;
}

int FatTree::group_of(DeviceId nic) const { return info(nic).pod; }

Route FatTree::route(const Graph& g, DeviceId src_nic, DeviceId dst_nic, Rng& rng,
                     const LinkFilter& link_ok) const {
  const NicInfo& a = info(src_nic);
  const NicInfo& b = info(dst_nic);
  // A dead NIC wire cannot be routed around inside the fabric.
  if (link_ok && (!link_ok(a.wire) || !link_ok(b.wire + 1))) return {};
  const int A = params_.aggs_per_pod;
  Route r;
  r.push_back(a.wire);

  (void)rng;  // round-robin ECMP spreads bundles more evenly than random
  const auto up_of = [&](const NicInfo& n, int agg) {
    return up_[(static_cast<std::size_t>(n.pod) * params_.edges_per_pod + n.edge) * A + agg];
  };
  // Under faults the ECMP scan takes the first live choice at or after the
  // cursor and leaves the cursor one past it, so with all links up the draw
  // sequence matches the unfiltered round-robin exactly.
  bool structured_ok = true;
  if (a.pod == b.pod && a.edge == b.edge) {
    // same edge switch: down immediately.
  } else if (a.pod == b.pod) {
    // edge -> agg -> edge inside the pod (ECMP over aggregations).
    int agg = -1;
    for (int t = 0; t < A; ++t) {
      const int cand = static_cast<int>((ecmp_cursor_ + t) % A);
      if (link_ok && (!link_ok(up_of(a, cand)) || !link_ok(up_of(b, cand) + 1))) continue;
      agg = cand;
      ecmp_cursor_ += static_cast<std::size_t>(t) + 1;
      break;
    }
    if (agg >= 0) {
      r.push_back(up_of(a, agg));
      r.push_back(up_of(b, agg) + 1);
    } else {
      structured_ok = false;
    }
  } else {
    // edge -> agg -> core -> agg -> edge: ECMP over the (agg, core) choices.
    // The same core serves the same aggregation column in the target pod, so
    // one pick indexes the matching link in both pods' core lists.
    bool found = false;
    const std::size_t base = ecmp_cursor_;
    for (int t = 0; t < A && !found; ++t) {
      const int agg = static_cast<int>((base + t) % A);
      if (link_ok && (!link_ok(up_of(a, agg)) || !link_ok(up_of(b, agg) + 1))) continue;
      const auto& cores_of = agg_core_[static_cast<std::size_t>(a.pod) * A + agg];
      const auto& dst_cores = agg_core_[static_cast<std::size_t>(b.pod) * A + agg];
      for (std::size_t u = 0; u < cores_of.size() && !found; ++u) {
        const std::size_t pick = (base + t + 1 + u) % cores_of.size();
        if (link_ok && (!link_ok(cores_of[pick]) || !link_ok(dst_cores[pick] + 1))) continue;
        r.push_back(up_of(a, agg));
        r.push_back(cores_of[pick]);
        r.push_back(dst_cores[pick] + 1);
        r.push_back(up_of(b, agg) + 1);
        ecmp_cursor_ = base + t + 1 + u + 1;
        found = true;
      }
    }
    structured_ok = found;
  }

  r.push_back(b.wire + 1);
  if (!link_ok || structured_ok) return r;
  return filtered_fabric_route(g, src_nic, dst_nic, link_ok);
}

}  // namespace gpucomm
