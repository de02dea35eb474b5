// Three-level fat tree (edge / aggregation / core), the topology family the
// paper's Sec. VIII discussion extrapolates to: none of the studied systems
// uses one, but the conclusions are expected to hold, with a slightly higher
// latency from the larger diameter (5 switch hops across pods vs 3 on a
// Dragonfly minimal route).
//
// Structure: `pods` pods, each with `edges_per_pod` edge and `aggs_per_pod`
// aggregation switches (complete bipartite inside the pod); `cores` core
// switches, core c linked to aggregation (c % aggs_per_pod) of every pod.
// Nodes attach to edge switches (`nodes_per_edge` each).
#pragma once

#include <cstdint>
#include <vector>

#include "gpucomm/hw/link.hpp"
#include "gpucomm/topology/fabric.hpp"

namespace gpucomm {

struct FatTreeParams {
  int pods = 8;
  int edges_per_pod = 8;
  int aggs_per_pod = 8;
  int cores = 64;
  int nodes_per_edge = 8;
  LinkPreset edge_link = links::ib_hdr100_edge();       // NIC wire
  LinkPreset up_link = links::ib_hdr200_leafspine();    // edge <-> agg
  LinkPreset core_link = links::ib_hdr200_leafspine();  // agg <-> core
  Placement placement = Placement::kPacked;
};

class FatTree final : public Fabric {
 public:
  FatTree(Graph& g, FatTreeParams params);

  void attach_node(Graph& g, const NodeDevices& node) override;
  Route route(const Graph& g, DeviceId src_nic, DeviceId dst_nic, Rng& rng,
              const LinkFilter& link_ok = {}) const override;
  int switch_of(DeviceId nic) const override;
  /// "Group" maps to the pod.
  int group_of(DeviceId nic) const override;
  std::size_t max_nodes() const override;
  std::unique_ptr<Fabric> clone() const override { return std::make_unique<FatTree>(*this); }

  const FatTreeParams& params() const { return params_; }
  DeviceId edge_device(int pod, int e) const;
  DeviceId agg_device(int pod, int a) const;
  DeviceId core_device(int c) const { return cores_[c]; }

 private:
  struct NicInfo {
    int pod = -1;
    int edge = -1;
    LinkId wire = kInvalidLink;
  };
  const NicInfo& info(DeviceId nic) const;

  FatTreeParams params_;
  std::vector<DeviceId> edges_;  // [pod * E + e]
  std::vector<DeviceId> aggs_;   // [pod * A + a]
  std::vector<DeviceId> cores_;
  std::vector<LinkId> up_;  // [pod][edge][agg] edge->agg; reverse +1
  std::vector<std::vector<LinkId>> agg_core_;  // [pod*A + a] -> links to its cores (asc.)
  std::vector<NicInfo> nics_;
  std::vector<int> edge_slots_;
  /// ECMP spreading cursor (mutable: routing is logically const).
  mutable std::size_t ecmp_cursor_ = 0;
  std::size_t attached_nodes_ = 0;
};

}  // namespace gpucomm
