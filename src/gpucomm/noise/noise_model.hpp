// Production network-noise field (Sec. VI).
//
// On Leonardo all production traffic is mapped to service level 0, so jobs
// on SL0 share switch queues with the whole machine's traffic while a
// non-default SL behaves like a drained system (Sec. VI-A). The field draws
// a per-link background utilization (lognormal) for the shared fabric links
// and samples per-hop queueing delays with a heavy tail, calibrated against
// Fig. 8's latency/goodput spreads.
//
// resample() is O(1): it bumps version() and counts one unsettled epoch.
// An epoch's coin pass draws each fabric link's hot/calm coin, skips the
// shared stream past the link's value draws and records where they sit; the
// first read of a noisy link runs the passes of every unsettled epoch in
// order (the settle point), and a link's utilization is then drawn from its
// recorded position the first time it is read in the epoch. A job that never
// leaves its node reads only quiet links, so it pays for no coin and no
// lognormal, while the stream, every value and version() are exactly those
// of drawing every link eagerly on every resample.
//
// Reads are single-threaded: each Cluster builds its own field, and only that
// cluster's simulation reads it.
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

  /// The link's utilization this epoch: 0 for a quiet link; otherwise the
  /// field is settled first, then the value is drawn and memoized on first
  /// read.
  double utilization(LinkId link) const;
  /// Runs the coin passes of the unsettled epochs, oldest first.
  void settle() const;
  /// One epoch's coin pass (see the file comment).
  void coin_pass() const;

  NoiseParams params_;
  std::vector<LinkClass> class_;
  std::uint64_t version_ = 1;
  // Epochs resample() opened whose coin pass has not run yet; settle()
  // zeroes it.
  mutable std::uint64_t unsettled_ = 0;
  mutable Rng rng_;
  mutable Rng epoch_start_;  // rng_ when the last coin pass began
  // Per link: how many outputs past epoch_start_ its value draws begin.
  mutable std::vector<std::uint32_t> offset_;
  // Per link: this epoch's utilization, or a negative marker (kHotPending /
  // kCalmPending in the .cpp) until its first read draws it.
  mutable std::vector<double> util_;
};

}  // namespace gpucomm
