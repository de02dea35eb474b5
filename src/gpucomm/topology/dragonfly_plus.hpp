// Leonardo's InfiniBand HDR Dragonfly+ fabric (Sec. II-B).
//
// 23 groups, each a two-level fat tree of 18 leaf and 18 spine switches.
// Leaves expose 40x100 Gb/s endpoint ports (10 nodes x 4 ports) and 18x200
// up-links (one per spine); spines expose 18x200 down-links and 22x200
// global ports — exactly one link to each other group, paired by spine
// index. All four NIC ports of a node land on the same leaf (as deployed at
// the time of the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "gpucomm/hw/link.hpp"
#include "gpucomm/hw/switch.hpp"
#include "gpucomm/topology/fabric.hpp"

namespace gpucomm {

struct DragonflyPlusParams {
  int groups = 23;
  int leaves_per_group = 18;
  int spines_per_group = 18;
  int nodes_per_leaf = 10;
  SwitchParams leaf = switches::quantum_leaf();
  SwitchParams spine = switches::quantum_spine();
  LinkPreset edge = links::ib_hdr100_edge();
  LinkPreset up = links::ib_hdr200_leafspine();
  LinkPreset global = links::ib_hdr200_global();
  Placement placement = Placement::kPacked;
};

class DragonflyPlus final : public Fabric {
 public:
  DragonflyPlus(Graph& g, DragonflyPlusParams params);

  void attach_node(Graph& g, const NodeDevices& node) override;
  Route route(const Graph& g, DeviceId src_nic, DeviceId dst_nic, Rng& rng,
              const LinkFilter& link_ok = {}) const override;
  int switch_of(DeviceId nic) const override;
  int group_of(DeviceId nic) const override;
  std::size_t max_nodes() const override;
  std::unique_ptr<Fabric> clone() const override {
    return std::make_unique<DragonflyPlus>(*this);
  }

  const DragonflyPlusParams& params() const { return params_; }
  DeviceId leaf_device(int group, int leaf) const;
  DeviceId spine_device(int group, int spine) const;
  /// Up-link leaf -> spine (directed); reverse is +1.
  LinkId up_link(int group, int leaf, int spine) const;
  /// Global link spine s of group a -> spine s of group b (directed).
  LinkId global_link(int a, int b, int spine) const;

 private:
  struct NicInfo {
    int group = -1;
    int leaf = -1;
    LinkId wire = kInvalidLink;  // NIC -> leaf direction
  };
  const NicInfo& info(DeviceId nic) const;

  DragonflyPlusParams params_;
  std::vector<DeviceId> leaves_;   // [group*L + leaf]
  std::vector<DeviceId> spines_;   // [group*P + spine]
  std::vector<LinkId> up_;         // [group][leaf][spine] flattened
  std::vector<LinkId> global_;     // [a][b][spine] flattened (kInvalidLink when a==b)
  std::vector<NicInfo> nics_;      // indexed by DeviceId (sparse)
  std::vector<int> leaf_slots_;    // nodes attached per leaf
  /// Adaptive spine spreading (mutable: routing is logically const).
  mutable std::size_t spine_cursor_ = 0;
  std::size_t attached_nodes_ = 0;
};

}  // namespace gpucomm
