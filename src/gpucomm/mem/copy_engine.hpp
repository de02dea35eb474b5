// Host<->device and host<->host copy cost model.
//
// Staging copies (cudaMemcpy-style) do not traverse the flow network: they
// are local DMA transfers bounded by the host link / memory bandwidth, so an
// analytic duration is accurate. Device-to-device copies *do* traverse the
// GPU fabric and are modelled as network flows by the comm layer instead.
#pragma once

#include <functional>

#include "gpucomm/hw/gpu.hpp"
#include "gpucomm/sim/engine.hpp"
#include "gpucomm/sim/units.hpp"

namespace gpucomm {

struct HostMemParams {
  /// Process-to-process host memcpy bandwidth (shared-memory staging hop).
  Bandwidth h2h_bw = 0;
  /// Per-copy software overhead (memcpy call, cache effects floor).
  SimTime h2h_overhead;
  /// CPU reduction throughput (bits/s of input consumed) for host-side
  /// allreduce paths (the staging baseline and Open MPI's CUDA coll [34]).
  Bandwidth reduce_bw = 0;
};

class CopyEngine {
 public:
  CopyEngine(Engine& engine, GpuParams gpu, HostMemParams host)
      : engine_(engine), gpu_(gpu), host_(host) {}

  SimTime d2h_time(Bytes bytes) const { return gpu_.copy_issue + transfer_time(bytes, gpu_.d2h_bw); }
  SimTime h2d_time(Bytes bytes) const { return gpu_.copy_issue + transfer_time(bytes, gpu_.h2d_bw); }
  SimTime h2h_time(Bytes bytes) const { return host_.h2h_overhead + transfer_time(bytes, host_.h2h_bw); }
  /// On-die copy (same GPU), bounded by HBM read+write.
  SimTime local_d2d_time(Bytes bytes) const {
    return gpu_.copy_issue + transfer_time(bytes, gpu_.hbm_bw / 2);
  }
  /// On-GPU reduction of `bytes` of input against an accumulator.
  SimTime reduce_time(Bytes bytes) const { return transfer_time(bytes, gpu_.reduce_bw); }

  /// Trivial-staging store-and-forward estimate for a point-to-point transfer
  /// (the paper's dashed "staging expected" line in Fig. 3): D2H + H2H; the
  /// matching H2D on the receiver overlaps the next iteration in the
  /// ping-pong, so peak goodput ~ bytes / (t_d2h + t_h2h).
  Bandwidth staging_expected_goodput(Bytes bytes) const {
    const SimTime t = d2h_time(bytes) + h2h_time(bytes);
    return static_cast<double>(bytes) * 8.0 / t.seconds();
  }

  void async_d2h(Bytes bytes, EventFn done) { engine_.after(d2h_time(bytes), std::move(done)); }
  void async_h2d(Bytes bytes, EventFn done) { engine_.after(h2d_time(bytes), std::move(done)); }

  const GpuParams& gpu() const { return gpu_; }
  const HostMemParams& host() const { return host_; }

 private:
  Engine& engine_;
  GpuParams gpu_;
  HostMemParams host_;
};

}  // namespace gpucomm
