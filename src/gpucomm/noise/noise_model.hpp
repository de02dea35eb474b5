// Production network-noise field (Sec. VI).
//
// On Leonardo all production traffic is mapped to service level 0, so jobs
// on SL0 share switch queues with the whole machine's traffic while a
// non-default SL behaves like a drained system (Sec. VI-A). The field draws
// a per-link background utilization (lognormal) for the shared fabric links
// and samples per-hop queueing delays with a heavy tail, calibrated against
// Fig. 8's latency/goodput spreads.
//
// resample() costs one coin per fabric link: it draws each link's hot/calm
// coin, skips the shared stream past the link's value draws and records
// where they sit. A link's utilization is drawn from that position the
// first time it is read in an epoch, so a job that never leaves its node
// pays for no lognormal, while the stream, every value and version() are
// exactly those of drawing every link eagerly.
#pragma once

#include <cstdint>
#include <vector>

#include "gpucomm/net/network.hpp"
#include "gpucomm/sim/random.hpp"
#include "gpucomm/systems/system_config.hpp"

namespace gpucomm {

class ProductionNoise final : public NoiseField {
 public:
  ProductionNoise(const Graph& graph, NoiseParams params, Rng rng);

  double background_utilization(LinkId link) const override;
  int noisy_vl() const override { return 0; }
  SimTime queueing_delay(LinkId link) override;
  void resample() override;
  /// Bumped on every resample so the incremental network core knows when
  /// link capacities moved (see NoiseField::version); starts at 1 because 0
  /// means "unversioned".
  std::uint64_t version() const override { return version_; }

  /// Mean utilization across noisy links (test hook).
  double mean_utilization() const;

 private:
  /// Which background a link carries; fixed by its type.
  enum class LinkClass : std::uint8_t { kQuiet, kLocal, kGlobal };

  /// The link's utilization this epoch, drawn and memoized on first read.
  /// Shard workers call it concurrently; that is race-free because
  /// components solved at the same time never share a link.
  double utilization(LinkId link) const;

  NoiseParams params_;
  Rng rng_;
  Rng epoch_start_;  // rng_ when the last resample() began
  std::vector<LinkClass> class_;
  // Per link: how many outputs past epoch_start_ its value draws begin.
  std::vector<std::uint32_t> offset_;
  // Per link: this epoch's utilization, or a negative marker (kHotPending /
  // kCalmPending in the .cpp) until its first read draws it.
  mutable std::vector<double> util_;
  std::uint64_t version_ = 1;
};

}  // namespace gpucomm
