// Per-system configuration: Table I encoded, plus the software-stack model
// parameters calibrated against the paper's reported measurements. Each
// constant that encodes a paper observation carries a comment citing it.
#pragma once

#include <cstdint>
#include <string>

#include "gpucomm/hw/gpu.hpp"
#include "gpucomm/hw/nic.hpp"
#include "gpucomm/hw/node.hpp"
#include "gpucomm/mem/copy_engine.hpp"
#include "gpucomm/topology/dragonfly.hpp"
#include "gpucomm/topology/dragonfly_plus.hpp"
#include "gpucomm/topology/fat_tree.hpp"

namespace gpucomm {

enum class MpiFlavor : std::uint8_t { kCrayMpich, kOpenMpiUcx };
enum class FabricKind : std::uint8_t { kDragonfly, kDragonflyPlus, kFatTree };

/// GPU-aware MPI implementation model.
struct MpiParams {
  MpiFlavor flavor = MpiFlavor::kCrayMpich;
  /// Per-message host software overhead (send / recv side).
  SimTime o_send;
  SimTime o_recv;
  /// Extra per-message cost when the buffer lives in GPU memory (memory-type
  /// detection, registration cache, GDR descriptor).
  SimTime gpu_extra;
  /// Messages above this use rendezvous (adds one RTT handshake).
  Bytes eager_threshold = 8_KiB;
  SimTime rndv_handshake;
  /// Intra-node GPU path selection (Cray MPICH): below the IPC threshold the
  /// transfer is staged through host memory; at/above it a device-device IPC
  /// copy is used. Alps default leaves small messages on the slow staged path
  /// until MPICH_GPU_IPC_THRESHOLD=1 is set (2x gain < 4 KiB, Sec. III-B).
  Bytes ipc_threshold_default = 1_KiB;
  SimTime ipc_setup;
  /// Rate of the eager IPC path for messages up to eager_threshold (small
  /// copies bypass the pipelined rendezvous machinery).
  Bandwidth ipc_eager_bw = gbps(150);
  /// GDRCopy small-message path (Open MPI + UCX on NVIDIA): the CPU writes
  /// into a BAR-mapped device window. On Leonardo this was silently disabled
  /// by a bad install path; fixing it improved small messages 6x (Sec. III-B).
  bool gdrcopy_in_default_env = false;
  Bytes gdrcopy_threshold = 32_KiB;
  SimTime gdrcopy_latency;
  Bandwidth gdrcopy_bw = 0;
  /// Cray MPICH on LUMI moves small intra-node GPU buffers with a CPU
  /// memcpy issuing load/stores straight to HBM (Sec. III-C).
  Bandwidth cpu_hbm_bw = 0;
  SimTime cpu_hbm_latency;
  Bytes cpu_hbm_threshold = 0;  // 0 = path unavailable
  /// Sustained fraction of the GPU-fabric path bandwidth a single MPI IPC
  /// p2p transfer achieves.
  double intra_p2p_efficiency = 0.75;
  /// IPC pipeline ramp: effective rate scales by bytes / (bytes + rampup).
  Bytes p2p_rampup = 512_KiB;
  /// Fraction of the GPU-fabric bandwidth MPI collectives achieve intra-node
  /// (no topology-aware chunk tuning, Sec. IV-B).
  double intra_coll_efficiency = 0.55;
  /// Inter-node efficiency of MPI point-to-point vs. NIC rate.
  double net_p2p_efficiency = 0.95;
  double net_coll_efficiency = 0.75;
  /// Open MPI 4.1 GPU allreduce copies the buffer to host and reduces there
  /// ([34], Sec. IV-D) — dominated by staging bandwidth.
  bool host_staged_allreduce = false;
  /// Cray MPICH GPU-staged allreduce block size (MPICH_GPU_ALLREDUCE_BLK_SIZE):
  /// larger blocks amortize per-block kernel+staging gaps. The effective
  /// bandwidth factor is blk / (blk + halfpoint); the paper's 32 -> 128 MiB
  /// tuning gave +50% on single-node allreduce (Sec. III-B), matching a
  /// halfpoint of ~32 MiB (0.5 -> 0.8).
  Bytes allreduce_blk_default = 32_MiB;
  Bytes allreduce_blk_halfpoint = 32_MiB;
  /// LUMI: with SDMA enabled transfers use a single IF link; disabling it
  /// (HSA_ENABLE_SDMA=0) lets copies stripe across links, up to 3x (Sec. III-B).
  bool sdma_limits_links = false;
};

/// NCCL / RCCL implementation model.
struct CclParams {
  /// Kernel launch + group begin/end per collective operation.
  SimTime group_launch;
  /// End-to-end software latency of an intra-node p2p (send/recv kernel pair
  /// through the FIFO). Comparable to MPI on Alps, much higher on Leonardo
  /// (no GDRCopy analogue) and LUMI (HIP launch cost) — Sec. III-C.
  SimTime p2p_launch;
  /// Extra per-message cost when the transfer leaves the node (proxy thread
  /// wakeup + net FIFO); why MPI beats *CCL by up to 10x on small inter-node
  /// transfers (Obs. 5).
  SimTime net_overhead;
  /// Per-pipeline-chunk processing cost (copy-kernel wakeups, flag polling).
  SimTime per_chunk_overhead;
  /// Per-peer proxy/FIFO slot cost in a large grouped alltoall, amortized
  /// over NICs and channels; dominates tiny collectives at scale (the top
  /// rows of Fig. 11 on LUMI) while staying hidden behind the wire for the
  /// 2 MiB Fig. 9 sweep on the NVIDIA systems.
  SimTime net_slot;
  Bytes chunk_size = 512_KiB;
  /// Channels used for a single p2p connection; per-channel rate ceiling.
  /// LUMI defaults to few channels per peer — NCCL_NCHANNELS_PER_PEER=32
  /// brought a 3.5x intra-node p2p gain (Sec. III-B).
  int default_nchannels_p2p = 24;
  int max_nchannels = 32;
  Bandwidth per_channel_bw = 0;
  /// Sustained fraction of the path bandwidth large p2p reaches.
  double intra_p2p_efficiency = 0.72;
  /// Pipeline ramp for the Simple protocol (effective rate scales by
  /// bytes / (bytes + rampup)); responsible for *CCL trailing MPI at medium
  /// sizes on Leonardo (Fig. 3).
  Bytes p2p_rampup = 4_MiB;
  /// LL (low-latency) protocol below this size: flat latency, modest rate.
  Bytes ll_threshold = 64_KiB;
  Bandwidth ll_bw = 0;
  /// Collective efficiency vs. the Sec. IV expected peaks (topology-aware
  /// rings/trees, but still below the analytic bound).
  double intra_coll_efficiency = 0.75;
  /// Inter-node efficiencies vs. NIC rate.
  double net_p2p_efficiency = 0.45;
  double net_coll_efficiency = 0.80;
  /// RCCL estimates peer bandwidth from hop count rather than path count,
  /// under-driving multi-hop GCD pairs (Obs. 3).
  bool hop_count_bw_bug = false;
  /// The paper's alltoall benchmark (and nccl-/rccl-tests) stalls at or above
  /// this many ranks (Alps: 512, LUMI: 1024; Sec. V-C). 0 = no stall.
  int alltoall_stall_ranks = 0;
  /// NCCL_NET_GDR_LEVEL semantics: direct RDMA GPU<->NIC allowed only up to
  /// this topological distance. Default level is below what the node layout
  /// needs, forcing a host bounce until raised to 3 (2-3x, Sec. III-B).
  int gdr_level_default = 1;
  int gdr_level_required = 3;
  double gdr_disabled_bw_factor = 0.45;
  SimTime gdr_disabled_latency;
  /// With Slurm-provided CPU affinity *CCL pins its proxy threads badly;
  /// NCCL_IGNORE_CPU_AFFINITY=1 recovers up to 1.6x (alltoall) / 6x
  /// (allreduce) from two nodes up (Sec. III-B).
  double bad_affinity_alltoall_factor = 1.0;
  double bad_affinity_allreduce_factor = 1.0;
  /// Sharp *CCL allreduce goodput drop from 256 to 512 GPUs observed on Alps
  /// and LUMI with no algorithm change (Sec. V-D); reproduced as a
  /// calibrated efficiency knee in the scale model.
  int allreduce_knee_gpus = 0;  // 0 = no knee
  double allreduce_knee_factor = 1.0;
};

/// Tunable environment (the paper's Sec. III-B knobs). Defaults are the
/// *untuned* system defaults; `tuned_env()` in SystemConfig returns the
/// configuration the paper measured with.
struct SoftwareEnv {
  // *CCL
  bool ccl_ignore_cpu_affinity = false;  // NCCL_IGNORE_CPU_AFFINITY
  int ccl_net_gdr_level = -1;            // NCCL_NET_GDR_LEVEL (-1 = default)
  int ccl_nchannels_per_peer = -1;       // NCCL_NCHANNELS_PER_PEER (-1 = default)
  int ccl_ib_sl = 0;                     // NCCL_IB_SL
  // MPI
  Bytes mpich_gpu_ipc_threshold = 0;     // 0 = implementation default
  Bytes mpich_gpu_allreduce_blk = 0;     // 0 = implementation default
  bool hsa_enable_sdma = true;           // HSA_ENABLE_SDMA
  bool gdrcopy_loaded = false;           // LD_LIBRARY_PATH fix on Leonardo
  int ucx_ib_sl = 0;                     // UCX_IB_SL
};

/// Production network-noise model (Leonardo; Slingshot systems are largely
/// unaffected, Sec. VI).
struct NoiseParams {
  bool production_noise = false;
  /// Mean background utilization of inter-group (global) links (calm state).
  double mean_global_util = 0.0;
  /// Mean background utilization of intra-group (leaf-spine) links.
  double mean_local_util = 0.0;
  /// Lognormal sigma of the per-link utilization draw.
  double util_sigma = 0.8;
  /// Hotspot process: with this probability a link is "hot" for an
  /// iteration (a bursty production job rides it), with utilization drawn
  /// uniformly in [hot_util_min, hot_util_max]. Hot global links are what
  /// cuts Leonardo's cross-group goodput (395 -> 328 Gb/s mean, 216 Gb/s
  /// min; Fig. 8).
  double hot_prob_global = 0.0;
  double hot_prob_local = 0.0;
  double hot_util_min = 0.5;
  double hot_util_max = 0.75;
  /// Per-hop queueing delay on congested links: lognormal body...
  double delay_median_us = 0.0;
  double delay_sigma = 1.0;
  /// ...plus a bounded-Pareto tail (rare deep-queue events; Leonardo's
  /// observed max one-byte latency was 132 us, Sec. V-B).
  double tail_probability = 0.0;
  double tail_max_us = 0.0;
};

struct FabricSpec {
  FabricKind kind = FabricKind::kDragonfly;
  DragonflyParams dragonfly;
  DragonflyPlusParams dragonfly_plus;
  /// Sec. VIII what-if: none of the studied systems is a fat tree, but the
  /// discussion extrapolates to them; kFatTree swaps the interconnect.
  FatTreeParams fat_tree;
};

/// Shared-buffer congestion coupling (Fig. 12): when at least
/// `flow_threshold` flows saturate one link (an incast), switch buffers fill
/// and every flow of the same service level crossing that switch loses rate
/// (head-of-line blocking). `rate_factor` is the surviving fraction.
struct CongestionParams {
  int flow_threshold = 4;
  double rate_factor = 1.0;  // 1.0 = ideal congestion isolation
};

/// Failure detection and recovery costs (fault-injection subsystem, fault/).
/// When a fault kills an in-flight transfer, the owning mechanism retries it;
/// the delay before attempt k (1-based) is
///   detect + min(backoff_base * 2^(k-1), backoff_max) + path cost,
/// where the path cost is a host-mediated repost for host-buffer wires
/// (staging, MPI host buffers) and device copies, a communicator abort +
/// re-initialization for *CCL, and message-level retransmission for MPI's
/// GPU-buffer messages.
struct RecoveryParams {
  /// Link death -> the transport declares the in-flight transfer lost
  /// (retransmission / completion timeout).
  SimTime detect = microseconds(500.0);
  /// Exponential backoff between attempts.
  SimTime backoff_base = microseconds(100.0);
  SimTime backoff_max = milliseconds(10.0);
  /// Retries after the original post before the operation is abandoned
  /// (the op completes with Communicator::last_op_failed() set).
  int max_retries = 8;
  /// *CCL communicator abort + re-init: bootstrap all ranks, re-detect
  /// topology, rebuild channels. Dominates *CCL recovery.
  SimTime ccl_reinit = milliseconds(30.0);
  /// MPI GPU-buffer messages are retransmitted at the message level
  /// (transport-level bookkeeping only).
  SimTime mpi_retransmit = microseconds(50.0);
  /// Host-buffer wires and device copies: the host notices the failed
  /// transfer and reposts.
  SimTime host_retry = microseconds(200.0);
};

struct SystemConfig {
  std::string name;
  NodeArch arch = NodeArch::kAlps;
  int gpus_per_node = 4;
  int nics_per_node = 4;
  /// Inter-node bandwidth available to one GPU's traffic (the asymptotic
  /// alltoall expectation of Sec. V-C).
  Bandwidth nic_bw_per_gpu = 0;

  GpuParams gpu;
  NicParams nic;
  HostMemParams host;
  /// MPI_Wtime resolution measured by the paper (25 ns on LUMI/Leonardo,
  /// 30 ns on Alps; Sec. III-A). Iteration timings are quantized to this.
  SimTime timer_resolution;

  FabricSpec fabric;
  CongestionParams congestion;
  RecoveryParams recovery;
  MpiParams mpi;
  CclParams ccl;
  NoiseParams noise;

  /// Default (untuned) environment.
  SoftwareEnv default_env;
  /// The tuned environment used for the paper's measurements (Sec. III-B).
  SoftwareEnv tuned_env() const;
};

SystemConfig alps_config();
SystemConfig leonardo_config();
SystemConfig lumi_config();

}  // namespace gpucomm
