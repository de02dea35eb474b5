// Fig. 10: 1 GiB allreduce scalability up to 4,096 GPUs, *CCL vs GPU-aware
// MPI.
//
// Up to 32 GPUs the exact flow simulation runs; beyond that the analytic
// scale model takes over (marked in the source column), within the same
// per-system caps as Fig. 9. The sweep and `--exact-point` are shared with
// Fig. 9 (scalability.hpp).
//
// Expected shape (paper): *CCL above MPI everywhere; Leonardo's MPI
// (host-staged allreduce) is dramatically low and flat; *CCL shows a sharp
// drop from 256 to 512 GPUs on Alps and LUMI (Sec. V-D).
#include "scalability.hpp"

int main(int argc, char** argv) {
  using namespace gpucomm;
  return bench::run_scalability(
      argc, argv,
      {.figure = "Fig. 10",
       .description = "1 GiB allreduce scalability (per-GPU goodput, Gb/s)",
       .stem = "fig10",
       .op = CollKind::kAllreduce,
       .buffer = 1_GiB,
       // the pinned switch point; ROADMAP item 4 re-picks it
       .exact_limit_gpus = 32});
}
