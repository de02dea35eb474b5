// Base interface for the four data-movement mechanisms benchmarked by the
// paper (Sec. III-A): trivial staging, explicit device-device copies, *CCL
// (NCCL/RCCL), and GPU-aware MPI.
//
// Operations are asynchronous against the simulation engine; `time_*`
// helpers run the engine until the operation completes and return its
// simulated duration (the max across ranks, per the paper's methodology).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/mem/buffer.hpp"
#include "gpucomm/mem/copy_engine.hpp"
#include "gpucomm/runtime/ops.hpp"
#include "gpucomm/runtime/rank.hpp"
#include "gpucomm/sched/executor.hpp"

namespace gpucomm {

enum class Mechanism : std::uint8_t { kStaging, kDeviceCopy, kCcl, kMpi };
const char* to_string(Mechanism m);
/// Inverse of to_string(Mechanism); nullopt for an unknown name.
std::optional<Mechanism> mechanism_named(std::string_view name);

enum class CollectiveOp : std::uint8_t {
  kSend,
  kPingPong,
  kAlltoall,
  kAllreduce,
  kBroadcast,
  kAllgather,
  kReduceScatter,
};

/// The benchmarked operation a CLI flag or scenario query names: pingpong,
/// alltoall, allreduce, broadcast, allgather or reducescatter (kSend has no
/// name); nullopt for anything else.
std::optional<CollectiveOp> op_named(std::string_view name);

/// Schedule identity attached to every message a collective issues, so
/// mechanisms can tag flows with the algorithm and round they belong to.
/// Defaults mean "not driven by a schedule" (plain send).
struct CollContext {
  const char* algorithm = nullptr;
  int round = -1;
};

/// CollContext for a step the schedule executor is issuing.
inline CollContext coll_ctx(const sched::StepCtx& ctx) {
  return {sched::to_string(ctx.schedule->algorithm), ctx.round};
}

struct CommOptions {
  /// Tuning environment; defaults to the paper's tuned configuration.
  SoftwareEnv env;
  /// Where the communication buffers live.
  MemSpace space = MemSpace::kDevice;
  /// Service level (virtual lane) the traffic is mapped to. Production
  /// noise rides SL 0 (Sec. VI-A).
  int service_level = 0;
};

class Communicator {
 public:
  Communicator(Cluster& cluster, std::vector<int> gpus, CommOptions options);
  virtual ~Communicator() = default;

  int size() const { return static_cast<int>(ranks_.size()); }
  const std::vector<Rank>& ranks() const { return ranks_; }
  const CommOptions& options() const { return opts_; }

  virtual Mechanism mechanism() const = 0;

  /// Whether this mechanism can run the operation on this rank set (e.g.
  /// device copies need peer access and a single node; *CCL alltoall stalls
  /// at large scale, Sec. V-C).
  virtual bool available(CollectiveOp op) const;

  /// One-way transfer rank src -> dst; `done` fires when the receiver has
  /// the full payload (GPU-synchronized, per the benchmark methodology).
  virtual void send(int src, int dst, Bytes bytes, EventFn done) = 0;

  /// Alltoall with `buffer` total bytes per rank (per-pair chunk =
  /// buffer / size()).
  virtual void alltoall(Bytes buffer, EventFn done) = 0;

  /// Allreduce of a `buffer`-byte vector.
  virtual void allreduce(Bytes buffer, EventFn done) = 0;

  // --- further collectives (generic algorithms over the mechanism's
  // --- message primitive; *CCL/MPI specializations come from coll_message
  // --- and coll_launch) -----------------------------------------------------

  /// Broadcast `buffer` bytes from rank `root`: binomial tree for small
  /// vectors, scatter + ring allgather for large ones.
  virtual void broadcast(int root, Bytes buffer, EventFn done);
  /// Ring allgather: every rank contributes `per_rank` bytes and ends with
  /// all of them (n * per_rank total).
  virtual void allgather(Bytes per_rank, EventFn done);
  /// Ring reduce-scatter of a `buffer`-byte vector (each rank ends owning a
  /// reduced buffer/n segment).
  virtual void reduce_scatter(Bytes buffer, EventFn done);

  /// The schedule(s) this mechanism would run for `op` at this size — the
  /// single source of algorithm selection, used by the op implementations
  /// and by `gpucomm_cli --dump-schedule`. Multiple schedules run
  /// concurrently (*CCL counter-rotating intra-node rings). For kAllgather,
  /// `bytes` is the per-rank contribution; `root` only applies to
  /// kBroadcast. Empty for ops without a schedule (kSend, kPingPong).
  virtual std::vector<sched::Schedule> plan(CollectiveOp op, Bytes bytes, int root = 0) const;

  /// True when the most recent time_* operation was abandoned by the
  /// recovery model (a fault outlived every retry). The operation still
  /// completes — its elapsed time covers the attempts made — so harness
  /// loops keep running; they record the iteration as failed instead.
  bool last_op_failed() const { return op_failed_; }

  // --- blocking helpers (run the engine until the op completes) ------------
  SimTime time_send(int src, int dst, Bytes bytes);
  /// Full round trip src -> dst -> src (divide by 2 for the paper's numbers).
  SimTime time_pingpong(int a, int b, Bytes bytes);
  SimTime time_alltoall(Bytes buffer);
  SimTime time_allreduce(Bytes buffer);
  SimTime time_broadcast(int root, Bytes buffer);
  SimTime time_allgather(Bytes per_rank);
  SimTime time_reduce_scatter(Bytes buffer);

 protected:
  /// One message inside a collective, in this mechanism's preferred way
  /// (*CCL channel transfer, MPI collective-context transfer, host path,
  /// device copy). `op_bytes` is the whole operation's size (pipeline-ramp
  /// reference); `ctx` identifies the issuing schedule for telemetry. The
  /// base-class collective algorithms are built on this.
  virtual void coll_message(int src, int dst, Bytes bytes, Bytes op_bytes,
                            const CollContext& ctx, EventFn done);

  /// Fixed per-operation launch cost (e.g. *CCL group launch).
  virtual SimTime coll_launch() const { return SimTime::zero(); }

  /// Drive `s` through coll_message via the shared executor: per-round
  /// message barrier, then a GPU reduction of the round's reduce_bytes.
  /// `launch` engaged posts a launch stage first (base collectives always
  /// engage it, matching the legacy stage even when the cost is zero).
  void run_coll_schedule(sched::Schedule s, Bytes op_bytes, std::optional<SimTime> launch,
                         EventFn done);

  /// Re-resolves a transfer's route for a retry attempt (fault recovery).
  /// An empty result means the destination is currently unreachable and the
  /// retry waits out another backoff period before asking again.
  using RouteFn = std::function<Route()>;

  /// Post a flow after `pre_delay`, inflating bytes by 1/efficiency to model
  /// protocol overhead, with an optional per-flow rate cap. `tag` attributes
  /// the flow for telemetry (the mechanism field is filled in automatically);
  /// the token is issued at post time, so queueing behind `pre_delay` shows
  /// up as issue-to-start gap in traces.
  ///
  /// With a fault provider attached to the cluster, an interrupted flow is
  /// retried with exponential backoff plus `recovery`, the cost of the
  /// path's recovery action; `reroute` (when given) re-resolves the route
  /// before each attempt so the retry avoids the links that killed the
  /// original. Retries exhausted marks the operation failed (last_op_failed)
  /// but still fires `done`.
  void post_flow(const Route& route, Bytes bytes, double efficiency, Bandwidth rate_cap,
                 SimTime pre_delay, EventFn done, telemetry::FlowTag tag, RouteFn reroute,
                 SimTime recovery);

  /// Extra cost of one recovery action on this mechanism's own transfers,
  /// on top of fault detection and backoff (RecoveryParams): device copies
  /// repost from the host; *CCL aborts and re-initializes the communicator;
  /// MPI retransmits the message inside the transport. Host-buffer wires
  /// always charge recovery.host_retry (nic_send).
  virtual SimTime recovery_cost() const { return sys().recovery.host_retry; }

  /// One host-buffer message (staging, MPI host buffers): a shared-memory
  /// copy between ranks of one node, else nic_send. `efficiency` inflates
  /// the wire bytes (collective protocol overhead); 1.0 for plain p2p.
  void host_send(int src, int dst, Bytes bytes, double efficiency, EventFn done);

  /// One MPI message between ranks on different nodes through their NICs.
  /// Host buffers leave from the rank's NUMA domain; device buffers leave
  /// from its GPU by GPUDirect RDMA and pay mpi.gpu_extra. Sender software
  /// and NIC overhead (plus the rendezvous handshake above the eager
  /// threshold), then a flow at `efficiency` times the NIC's protocol
  /// efficiency, then the receiver's overhead; telemetry counts the message
  /// at both NICs, and `ctx` attributes it to its schedule round. A
  /// fault-killed flow is retried on a re-resolved route: the host reposts
  /// a host-buffer wire (recovery.host_retry), the transport retransmits a
  /// device-buffer message (recovery_cost()).
  void nic_send(int src, int dst, MemSpace space, Bytes bytes, double efficiency,
                const CollContext& ctx, EventFn done);

  /// Record an inter-node message at `s`'s NIC now, and return `done`
  /// wrapped to record it at `d`'s NIC on delivery. With no sink attached,
  /// `done` comes back as it is.
  EventFn count_nic_message(const Rank& s, const Rank& d, Bytes bytes, EventFn done);

  /// Launch delay inflated by the worst straggler factor among this
  /// communicator's GPUs (fault injection; identity without a provider).
  SimTime straggle(SimTime launch) const;

  /// The cluster's telemetry sink, or nullptr when instrumentation is off.
  telemetry::Sink* telemetry() const { return cluster_.telemetry(); }

  /// Record a purely local stage (D2H/H2D staging copy, reduction kernel)
  /// spanning [now, now + duration]. No-op without a sink.
  void record_local(const char* stage, int src, int dst, Bytes bytes, SimTime duration);

  /// Byte-inflated helper applying the communicator's service level.
  FlowSpec make_flow(const Route& route, Bytes bytes, double efficiency,
                     Bandwidth rate_cap) const;

  /// ExecHooks with engine, telemetry sink, and mechanism name pre-filled,
  /// so every executor invocation emits sched_span telemetry consistently.
  /// Callers fill in message/reduce_time/launch.
  sched::ExecHooks exec_hooks();

  Engine& engine() { return cluster_.engine(); }
  Network& network() { return cluster_.network(); }
  const SystemConfig& sys() const { return cluster_.config(); }
  bool same_node(int a, int b) const {
    return ranks_[a].node == ranks_[b].node;
  }

  Cluster& cluster_;
  std::vector<Rank> ranks_;
  CommOptions opts_;
  CopyEngine copy_;

 private:
  struct RetryCtx;
  /// Post one attempt of a fault-aware flow (ctx->attempt retries so far).
  void post_attempt(const std::shared_ptr<RetryCtx>& ctx);
  /// Arm the next retry of an interrupted flow, or give up and fail the op.
  void schedule_retry(const std::shared_ptr<RetryCtx>& ctx);

  /// Shared body of the time_* helpers; emits a telemetry op_span.
  SimTime run_op(const char* op, Bytes bytes, const std::function<void(EventFn)>& fn);

  bool op_failed_ = false;
};

/// Construct mechanism `m`'s communicator over `gpus`.
std::unique_ptr<Communicator> make_comm(Mechanism m, Cluster& cluster, std::vector<int> gpus,
                                        CommOptions opt);

/// Size ramp-up factor: pipelines reach peak rate only for large transfers;
/// effective rate scales by bytes / (bytes + rampup).
double ramp_factor(Bytes bytes, Bytes rampup);

// Collective round/partner math lives in gpucomm/sched/builders.hpp; every
// algorithm's round structure is defined exactly once there.

}  // namespace gpucomm
