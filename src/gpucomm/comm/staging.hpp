// Trivial staging baseline (Sec. III-A): device buffers bounce through host
// memory and move between processes with plain host MPI. Store-and-forward,
// pinned buffers, no pipelining — the paper's lower-bound reference.
#pragma once

#include "gpucomm/comm/communicator.hpp"

namespace gpucomm {

class StagingComm final : public Communicator {
 public:
  using Communicator::Communicator;

  Mechanism mechanism() const override { return Mechanism::kStaging; }
  void send(int src, int dst, Bytes bytes, EventFn done) override;
  void alltoall(Bytes buffer, EventFn done) override;
  void allreduce(Bytes buffer, EventFn done) override;

  /// The paper's dashed expected-goodput line for staging p2p (Fig. 3).
  Bandwidth expected_goodput(Bytes bytes) const { return copy_.staging_expected_goodput(bytes); }

 private:
  /// D2H on every rank (or H2D), all concurrent; join on completion.
  void stage_all(bool to_host, Bytes bytes_per_rank, EventFn done);

  /// Stage to host (device buffers only), run the schedule's rounds over the
  /// host path with full round barriers, stage back. With `per_step_reduce`,
  /// the CPU reduces each arriving segment before it counts as delivered.
  void run_host_schedule(sched::Schedule s, bool per_step_reduce, Bytes buffer, EventFn done);
};

}  // namespace gpucomm
