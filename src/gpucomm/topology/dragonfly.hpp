// HPE Slingshot Dragonfly fabric (Alps, LUMI — Sec. II-A, II-C).
//
// Groups of `switches_per_group` switches, fully connected inside a group
// (31 local ports); 17 global ports per switch spread evenly over the other
// groups; 16 endpoint ports per switch. Minimal routing is used for the
// deterministic hop structure, with adaptive selection among the parallel
// global links of a group pair.
#pragma once

#include <cstdint>
#include <vector>

#include "gpucomm/hw/link.hpp"
#include "gpucomm/hw/switch.hpp"
#include "gpucomm/topology/fabric.hpp"

namespace gpucomm {

struct DragonflyParams {
  int groups = 0;
  int switches_per_group = 32;
  SwitchParams sw = switches::rosetta();
  LinkPreset edge = links::slingshot_edge();      // intra-group switch links
  LinkPreset wire = links::slingshot_edge();      // NIC <-> switch
  LinkPreset global = links::slingshot_global();  // inter-group
  /// How many switches a node's NICs are spread across (Alps 1, LUMI 2).
  int switch_span = 1;
  /// Node placement: packed fills switch after switch (gives same-switch
  /// neighbours, like a drained system); scatter-switches round-robins the
  /// switches of group 0 (same-group pairs); scatter-groups round-robins
  /// groups (models allocation on a busy production machine).
  Placement placement = Placement::kPacked;
  /// Valiant (non-minimal) global routing: inter-group traffic detours via a
  /// random intermediate group. Doubles the global-hop load but spreads
  /// adversarial patterns; the ablation bench quantifies the trade.
  bool valiant = false;
};

class Dragonfly final : public Fabric {
 public:
  Dragonfly(Graph& g, DragonflyParams params);

  void attach_node(Graph& g, const NodeDevices& node) override;
  Route route(const Graph& g, DeviceId src_nic, DeviceId dst_nic, Rng& rng,
              const LinkFilter& link_ok = {}) const override;
  int switch_of(DeviceId nic) const override;
  int group_of(DeviceId nic) const override;
  std::size_t max_nodes() const override;
  std::unique_ptr<Fabric> clone() const override { return std::make_unique<Dragonfly>(*this); }

  const DragonflyParams& params() const { return params_; }
  DeviceId switch_device(int group, int sw) const { return switches_[flat(group, sw)]; }
  /// Parallel global links wiring group a to group b (directed a->b).
  const std::vector<LinkId>& global_links(int a, int b) const;
  /// Number of global links terminating at each switch (test hook: must not
  /// exceed the 17 global ports of Sec. II-A).
  const std::vector<int>& global_ports_used() const { return global_ports_count_; }

 private:
  struct NicInfo {
    int group = -1;
    int sw = -1;
    LinkId wire = kInvalidLink;  // NIC -> switch direction
  };

  int flat(int group, int sw) const { return group * params_.switches_per_group + sw; }
  const NicInfo& info(DeviceId nic) const;

  DragonflyParams params_;
  std::vector<DeviceId> switches_;                 // [group*S + sw]
  std::vector<std::vector<std::vector<LinkId>>> global_;  // [a][b] -> links
  std::vector<std::vector<LinkId>> local_;         // [group] S*S matrix, row-major
  std::vector<NicInfo> nics_;                      // indexed by DeviceId (sparse)
  std::vector<int> endpoint_slots_;                // used endpoint ports per switch
  std::vector<int> global_ports_count_;            // global links per switch
  /// Adaptive spreading: per group-pair round-robin cursor over the parallel
  /// global links (mutable: routing is logically const).
  mutable std::vector<std::size_t> global_cursor_;  // [a * groups + b]
  int next_attach_switch_ = 0;                     // round-robin cursor (flattened)
  std::size_t attached_nodes_ = 0;
};

}  // namespace gpucomm
