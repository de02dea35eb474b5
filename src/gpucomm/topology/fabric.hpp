// Abstract inter-node fabric: wiring of node NICs into the switch graph and
// NIC-to-NIC routing.
#pragma once

#include <cstdint>
#include <memory>

#include "gpucomm/hw/node.hpp"
#include "gpucomm/sim/random.hpp"
#include "gpucomm/topology/graph.hpp"

namespace gpucomm {

/// Where a fabric attaches consecutive nodes.
enum class Placement : std::uint8_t {
  kPacked,           // fill switch after switch (same-switch neighbours)
  kScatterSwitches,  // round-robin switches inside one group (same-group pairs)
  kScatterGroups,    // round-robin groups (different-group pairs; production-like)
};

/// Relative network location of two endpoints (Fig. 8's x-axis).
enum class NetworkDistance : std::uint8_t { kSameNode, kSameSwitch, kSameGroup, kDiffGroup };

inline const char* to_string(NetworkDistance d) {
  switch (d) {
    case NetworkDistance::kSameNode: return "same-node";
    case NetworkDistance::kSameSwitch: return "same-switch";
    case NetworkDistance::kSameGroup: return "same-group";
    case NetworkDistance::kDiffGroup: return "diff-group";
  }
  return "?";
}

class Fabric {
 public:
  virtual ~Fabric() = default;

  /// Wire a node's NICs to their switches. Call once per node, in node order.
  virtual void attach_node(Graph& g, const NodeDevices& node) = 0;

  /// NIC-to-NIC route across the fabric (including both NIC wires).
  /// Adaptive choices (which global link / spine) consume `rng`. `link_ok`
  /// (when set) excludes failed links: adaptive selection skips dead
  /// candidates, and when the structured minimal path is fully blocked the
  /// router falls back to a generic shortest path over the surviving fabric.
  /// Returns an empty route when no usable path exists (a dead NIC wire or a
  /// partitioned fabric). With an empty `link_ok` the choice sequence is
  /// identical to a filter accepting every link.
  virtual Route route(const Graph& g, DeviceId src_nic, DeviceId dst_nic, Rng& rng,
                      const LinkFilter& link_ok = {}) const = 0;

  /// First-hop switch index (fabric-global) of an attached NIC.
  virtual int switch_of(DeviceId nic) const = 0;
  /// Dragonfly/Dragonfly+ group of an attached NIC.
  virtual int group_of(DeviceId nic) const = 0;

  /// Maximum number of nodes the fabric can host.
  virtual std::size_t max_nodes() const = 0;

  /// Deep copy of the fully-built fabric, including the adaptive-routing
  /// cursor state as of the copy. The clone shares nothing with the
  /// original, so a cluster built around it behaves bit-identically to one
  /// whose fabric was constructed from scratch (cluster/topo_snapshot.hpp
  /// relies on this to reuse constructed topologies across simulations).
  virtual std::unique_ptr<Fabric> clone() const = 0;

  NetworkDistance classify(DeviceId nic_a, DeviceId nic_b) const {
    if (group_of(nic_a) != group_of(nic_b)) return NetworkDistance::kDiffGroup;
    if (switch_of(nic_a) != switch_of(nic_b)) return NetworkDistance::kSameGroup;
    return NetworkDistance::kSameSwitch;
  }
};

}  // namespace gpucomm
