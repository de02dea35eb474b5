#include "gpucomm/topology/dragonfly.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "gpucomm/topology/routing.hpp"

namespace gpucomm {

Dragonfly::Dragonfly(Graph& g, DragonflyParams params) : params_(params) {
  const int G = params_.groups;
  const int S = params_.switches_per_group;
  if (G < 2) throw std::invalid_argument("dragonfly needs >= 2 groups");
  const int global_budget = S * params_.sw.global_ports;
  if (global_budget < G - 1)
    throw std::invalid_argument("not enough global ports for group count");

  switches_.reserve(static_cast<std::size_t>(G) * S);
  for (int gr = 0; gr < G; ++gr) {
    for (int s = 0; s < S; ++s) {
      switches_.push_back(g.add_device({DeviceKind::kSwitch, -1, flat(gr, s),
                                        "sw" + std::to_string(s) + "@g" + std::to_string(gr)}));
    }
  }

  // Intra-group all-to-all (31 local ports cover the other 31 switches).
  local_.assign(G, std::vector<LinkId>(static_cast<std::size_t>(S) * S, kInvalidLink));
  for (int gr = 0; gr < G; ++gr) {
    for (int a = 0; a < S; ++a) {
      for (int b = a + 1; b < S; ++b) {
        const LinkId fwd = g.add_duplex_link(switch_device(gr, a), switch_device(gr, b),
                                             params_.edge.rate, params_.edge.latency,
                                             LinkType::kIntraGroup, 1, params_.sw.virtual_lanes);
        local_[gr][static_cast<std::size_t>(a) * S + b] = fwd;
        local_[gr][static_cast<std::size_t>(b) * S + a] = fwd + 1;  // reverse direction
      }
    }
  }

  // Global links: spread each group's S*17 global ports evenly over the other
  // groups, choosing terminating switches round-robin inside each group.
  const int per_pair = global_budget / (G - 1);
  global_.assign(G, std::vector<std::vector<LinkId>>(G));
  global_ports_count_.assign(static_cast<std::size_t>(G) * S, 0);
  std::vector<int> cursor(G, 0);
  for (int a = 0; a < G; ++a) {
    for (int b = a + 1; b < G; ++b) {
      for (int k = 0; k < per_pair; ++k) {
        const int sa = cursor[a]++ % S;
        const int sb = cursor[b]++ % S;
        const LinkId fwd = g.add_duplex_link(switch_device(a, sa), switch_device(b, sb),
                                             params_.global.rate, params_.global.latency,
                                             LinkType::kGlobal, 1, params_.sw.virtual_lanes);
        global_[a][b].push_back(fwd);
        global_[b][a].push_back(fwd + 1);
        ++global_ports_count_[flat(a, sa)];
        ++global_ports_count_[flat(b, sb)];
      }
    }
  }

  endpoint_slots_.assign(static_cast<std::size_t>(G) * S, 0);
  global_cursor_.assign(static_cast<std::size_t>(G) * G, 0);
}

std::size_t Dragonfly::max_nodes() const {
  const int per_switch = params_.sw.endpoint_ports;
  const std::size_t total_ports =
      static_cast<std::size_t>(params_.groups) * params_.switches_per_group * per_switch;
  // NICs per node is only known at attach time; assume 4 (all three systems).
  return total_ports / 4;
}

void Dragonfly::attach_node(Graph& g, const NodeDevices& node) {
  const int S = params_.switches_per_group;
  const int total = params_.groups * S;
  const int span = params_.switch_span;
  const int nics = static_cast<int>(node.nics.size());
  assert(nics % span == 0);
  const int per_switch = nics / span;

  // Find `span` consecutive switches (same group) with room, starting from a
  // policy-dependent cursor.
  int start = next_attach_switch_;
  if (params_.placement == Placement::kScatterGroups) {
    const int group = static_cast<int>(attached_nodes_) % params_.groups;
    start = group * S;
  } else if (params_.placement == Placement::kScatterSwitches) {
    // Spread nodes over distinct switches of group 0, wrapping when the
    // group is exhausted.
    start = (static_cast<int>(attached_nodes_) * span) % S;
  }
  int base = start;
  bool found = false;
  for (int scanned = 0; scanned < total; ++scanned, base = (base + 1) % total) {
    if (base % S + span > S) continue;  // span must not straddle groups
    bool ok = true;
    for (int k = 0; k < span; ++k) {
      if (endpoint_slots_[base + k] + per_switch > params_.sw.endpoint_ports) ok = false;
    }
    if (ok) { found = true; break; }
  }
  if (!found) throw std::runtime_error("dragonfly fabric is full");
  if (params_.placement == Placement::kPacked)
    next_attach_switch_ = base;  // keep packing the same switches until full

  for (int i = 0; i < nics; ++i) {
    const int sw_flat = base + i / per_switch;
    ++endpoint_slots_[sw_flat];
    const DeviceId nic = node.nics[i];
    const LinkId wire = g.add_duplex_link(
        nic, switches_[sw_flat], params_.wire.rate, params_.wire.latency, LinkType::kNicWire,
        1, params_.sw.virtual_lanes);
    if (nics_.size() <= nic) nics_.resize(nic + 1);
    nics_[nic] = NicInfo{sw_flat / S, sw_flat % S, wire};
  }
  ++attached_nodes_;
}

const Dragonfly::NicInfo& Dragonfly::info(DeviceId nic) const {
  assert(nic < nics_.size() && nics_[nic].wire != kInvalidLink && "NIC not attached");
  return nics_[nic];
}

int Dragonfly::switch_of(DeviceId nic) const {
  const NicInfo& i = info(nic);
  return flat(i.group, i.sw);
}

int Dragonfly::group_of(DeviceId nic) const { return info(nic).group; }

const std::vector<LinkId>& Dragonfly::global_links(int a, int b) const { return global_[a][b]; }

Route Dragonfly::route(const Graph& g, DeviceId src_nic, DeviceId dst_nic, Rng& rng,
                       const LinkFilter& link_ok) const {
  const NicInfo& a = info(src_nic);
  const NicInfo& b = info(dst_nic);
  // A dead NIC wire cannot be routed around inside the fabric; the caller
  // must fail over to another NIC.
  if (link_ok && (!link_ok(a.wire) || !link_ok(b.wire + 1))) return {};
  Route r;
  r.push_back(a.wire);  // NIC -> first switch
  bool structured_ok = true;  // minimal path viable under link_ok

  const int S = params_.switches_per_group;
  if (a.group == b.group) {
    if (a.sw != b.sw) {
      // Adaptive intra-group routing: Slingshot spreads bundles over
      // non-minimal 2-hop paths via an intermediate switch, so a single
      // direct link never carries a whole inter-switch bundle.
      const int mid = static_cast<int>(rng.uniform_int(S));
      if (mid == a.sw || mid == b.sw) {
        r.push_back(local_[a.group][static_cast<std::size_t>(a.sw) * S + b.sw]);
      } else {
        r.push_back(local_[a.group][static_cast<std::size_t>(a.sw) * S + mid]);
        r.push_back(local_[a.group][static_cast<std::size_t>(mid) * S + b.sw]);
      }
    }
  } else {
    // Inter-group: minimal (local -> global -> local) with adaptive selection
    // among the parallel global links, or Valiant via a random intermediate
    // group when enabled.
    const auto hop_group = [&](int from_group, int from_sw, int to_group) {
      const auto& candidates = global_[from_group][to_group];
      assert(!candidates.empty());
      // Fine-grained adaptive spreading: cycle the parallel links so bundles
      // between a group pair load them evenly (random choice leaves a ~2x
      // hot spot on the unlucky link, which the real per-packet adaptive
      // routing does not). Under faults dead candidates are skipped; the
      // cursor advances to one past the chosen link either way, so with all
      // links up the sequence matches the unfiltered one exactly.
      std::size_t& cur = global_cursor_[static_cast<std::size_t>(from_group) * params_.groups +
                                        to_group];
      LinkId glink = kInvalidLink;
      for (std::size_t t = 0; t < candidates.size(); ++t) {
        const LinkId cand = candidates[(cur + t) % candidates.size()];
        if (link_ok && !link_ok(cand)) continue;
        glink = cand;
        cur += t + 1;
        break;
      }
      if (glink == kInvalidLink) {  // whole bundle down: reroute generically
        structured_ok = false;
        return from_sw;
      }
      (void)rng;
      const Link& gl = g.link(glink);
      const int sa = static_cast<int>(g.device(gl.src).index) % S;
      const int sb = static_cast<int>(g.device(gl.dst).index) % S;
      if (sa != from_sw)
        r.push_back(local_[from_group][static_cast<std::size_t>(from_sw) * S + sa]);
      r.push_back(glink);
      return sb;  // switch we arrive at in to_group
    };
    int cur_group = a.group;
    int cur_sw = a.sw;
    if (params_.valiant && params_.groups > 2) {
      int mid = static_cast<int>(rng.uniform_int(params_.groups));
      while (mid == a.group || mid == b.group) mid = static_cast<int>(rng.uniform_int(params_.groups));
      cur_sw = hop_group(cur_group, cur_sw, mid);
      cur_group = mid;
    }
    const int sb = hop_group(cur_group, cur_sw, b.group);
    if (sb != b.sw) r.push_back(local_[b.group][static_cast<std::size_t>(sb) * S + b.sw]);
  }

  r.push_back(b.wire + 1);  // last switch -> NIC (reverse direction of the duplex pair)
  if (!link_ok) return r;
  if (structured_ok) {
    bool valid = true;
    for (const LinkId l : r) {
      if (!link_ok(l)) {
        valid = false;  // a local hop of the minimal path is down
        break;
      }
    }
    if (valid) return r;
  }
  return filtered_fabric_route(g, src_nic, dst_nic, link_ok);
}

}  // namespace gpucomm
