#!/usr/bin/env python3
"""Regenerate perfbench/pinned_digests.txt from the current code.

    python3 perfbench/pin.py

Runs every workload once per seed in SEEDS with `perfbench --hashes` and
writes, per workload, one line per distinct list of per-result digests,
with the seeds that produce it. It refuses to pin when any seed-42 row
differs from data/. Re-pin only in a change that deliberately changes the
simulated results.
"""
import concurrent.futures
import os
import subprocess
import sys

import run

OUT = os.path.join(run.ROOT, "perfbench", "pinned_digests.txt")
WORKLOADS = ["intranode_pingpong", "alltoall_exact", "allreduce_exact"]
SEEDS = list(range(32)) + [42]
JOBS = min(3, os.cpu_count() or 1)


def hashes(workload, seed):
    proc = subprocess.run(
        [run.EXE, "--workload", workload, "--seed", str(seed), "--hashes", "--pinned", "",
         "--data", os.path.join(run.ROOT, "data")],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"pin: {workload} seed {seed} failed its data/ check; not pinning")
    return tuple(proc.stdout.splitlines()[0].split()[1:])


def main():
    if not run.build():
        return 2
    tasks = [(w, s) for w in WORKLOADS for s in SEEDS]
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        results = dict(zip(tasks, pool.map(lambda t: hashes(*t), tasks)))
    lines = ["# Per-result digests of the simulated outputs, pinned by perfbench/pin.py.",
             "# <workload> <seeds> <digest of result 0> <digest of result 1> ..."]
    for w in WORKLOADS:
        groups = {}
        for s in SEEDS:
            groups.setdefault(results[(w, s)], []).append(s)
        for hs, group in groups.items():
            lines.append(f"{w} {','.join(map(str, group))} {' '.join(hs)}")
        print(f"{w}: {len(groups)} distinct result lists over {len(SEEDS)} seeds")
    with open(OUT, "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
