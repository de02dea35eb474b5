// Fig. 9: 2 MiB alltoall scalability up to 4,096 GPUs, *CCL vs GPU-aware
// MPI, against the asymptotic expected goodput (the per-GPU inter-node
// bandwidth, Sec. V-C).
//
// Up to 64 GPUs the exact flow simulation runs; beyond that the analytic
// scale model takes over (marked in the source column). The paper's endpoint
// caps are honored: Leonardo stops at 1,024 GPUs (256-node job limit), Alps
// MPI at 2,048 (512 accessible nodes), NCCL/RCCL alltoall stalls at
// 512/1,024 GPUs (reported as "stall"). The sweep and `--exact-point` are
// shared with Fig. 10 (scalability.hpp).
//
// Expected shape (paper): *CCL above MPI everywhere, gap narrowing with
// scale; ~75% efficiency at 1,024 GPUs on Alps/Leonardo, slightly lower on
// LUMI.
#include "scalability.hpp"

int main(int argc, char** argv) {
  using namespace gpucomm;
  return bench::run_scalability(
      argc, argv,
      {.figure = "Fig. 9",
       .description = "2 MiB alltoall scalability (per-GPU goodput, Gb/s)",
       .stem = "fig09",
       .op = CollKind::kAlltoall,
       .buffer = 2_MiB,
       .exact_limit_gpus = 64});
}
