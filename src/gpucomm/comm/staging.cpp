#include "gpucomm/comm/staging.hpp"

#include <utility>

namespace gpucomm {

void StagingComm::send(int src, int dst, Bytes bytes, EventFn done) {
  if (opts_.space == MemSpace::kHost) {
    host_send(src, dst, bytes, sys().mpi.net_p2p_efficiency, std::move(done));
    return;
  }
  // Store-and-forward: D2H, host transfer, H2D — strictly sequential.
  run_stages(
      {
          [this, src, bytes](EventFn next) {
            record_local("d2h", src, src, bytes, copy_.d2h_time(bytes));
            copy_.async_d2h(bytes, std::move(next));
          },
          [this, src, dst, bytes](EventFn next) {
            host_send(src, dst, bytes, sys().mpi.net_p2p_efficiency, std::move(next));
          },
          [this, dst, bytes](EventFn next) {
            record_local("h2d", dst, dst, bytes, copy_.h2d_time(bytes));
            copy_.async_h2d(bytes, std::move(next));
          },
      },
      std::move(done));
}

void StagingComm::stage_all(bool to_host, Bytes bytes_per_rank, EventFn done) {
  auto join = JoinCounter::create(size(), std::move(done));
  for (int r = 0; r < size(); ++r) {
    auto arrive = [join] { join->arrive(); };
    if (to_host) {
      record_local("d2h", r, r, bytes_per_rank, copy_.d2h_time(bytes_per_rank));
      copy_.async_d2h(bytes_per_rank, std::move(arrive));
    } else {
      record_local("h2d", r, r, bytes_per_rank, copy_.h2d_time(bytes_per_rank));
      copy_.async_h2d(bytes_per_rank, std::move(arrive));
    }
  }
}

void StagingComm::run_host_schedule(sched::Schedule s, bool per_step_reduce, Bytes buffer,
                                    EventFn done) {
  // D2H all -> host rounds over the shared schedule -> H2D all.
  std::vector<Stage> stages;
  if (opts_.space == MemSpace::kDevice) {
    stages.push_back([this, buffer](EventFn next) { stage_all(true, buffer, std::move(next)); });
  }
  stages.push_back([this, s = std::move(s), per_step_reduce](EventFn next) {
    sched::ExecHooks hooks = exec_hooks();
    hooks.message = [this, per_step_reduce](const sched::Step& step, const sched::StepCtx& ctx,
                                            EventFn msg_done) {
      (void)ctx;
      // The CPU reduces each arriving segment before the round can finish
      // (store-and-forward: no overlap with the next round's sends).
      const SimTime reduce = per_step_reduce && step.reduce
                                 ? transfer_time(step.bytes, sys().host.reduce_bw)
                                 : SimTime::zero();
      const int dst = step.dst;
      const Bytes bytes = step.bytes;
      host_send(step.src, dst, bytes, sys().mpi.net_coll_efficiency,
                [this, dst, bytes, reduce, msg_done = std::move(msg_done)]() mutable {
                  if (reduce > SimTime::zero()) {
                    record_local("reduce", dst, dst, bytes, reduce);
                    engine().after(reduce, std::move(msg_done));
                  } else {
                    msg_done();
                  }
                });
    };
    sched::execute(s, hooks, std::move(next));
  });
  if (opts_.space == MemSpace::kDevice) {
    stages.push_back([this, buffer](EventFn next) { stage_all(false, buffer, std::move(next)); });
  }
  run_stages(std::move(stages), std::move(done));
}

void StagingComm::alltoall(Bytes buffer, EventFn done) {
  // Blocking pairwise exchange on the host: every round is a full barrier.
  run_host_schedule(plan(CollectiveOp::kAlltoall, buffer).front(),
                    /*per_step_reduce=*/false, buffer, std::move(done));
}

void StagingComm::allreduce(Bytes buffer, EventFn done) {
  run_host_schedule(plan(CollectiveOp::kAllreduce, buffer).front(),
                    /*per_step_reduce=*/true, buffer, std::move(done));
}

}  // namespace gpucomm
