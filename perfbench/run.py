#!/usr/bin/env python3
"""Benchmark entry point: build the benchmark, run one workload, print metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
`perfbench` binary (and the library it links, from ../src) under
.bench_build/perfbench; later runs only check the build is current.

Every repetition is a fresh process, so every repetition starts cold.
With --trace 0 the workload is repeated for about --seconds (at least
MIN_REPS times). wall_s and cpu_s are the minimum over repetitions, the
other end-to-end metrics the median (see FASTEST).
With --trace 1 untraced and traced repetitions alternate, and the per-layer
metrics come from the traced ones. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

A run is correct when every repetition's results match their references
(the binary checks them, see perfbench/README.md), every repetition of the
run produced the same result digest, and traced and untraced repetitions
agree. The exit status is 0 only for a correct run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "perfbench")
MIN_REPS = 2
# Every repetition must end this long after measuring starts; one that would
# not fit is not started.
DEADLINE_S = 165

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Reported as the fastest repetition rather than the median: on a shared host,
# bursts of interference slow single repetitions by up to half and never speed
# one up, so the minimum tracks the program and the median tracks the host.
FASTEST = {"wall_s", "cpu_s"}

# Per-layer metrics the binary reports, with their units; trace.overhead_pct
# is added here from the untraced and traced repetitions.
PER_LAYER = {
    "cluster.build_ms": "ms",
    "comm.init_ms": "ms",
    "cluster.intra_route_us": "us",
    "cluster.inter_route_us": "us",
    "topology.allreduce_peak_us": "us",
    "topology.alltoall_peak_us": "us",
    "noise.resamples": "count",
    "noise.resample_us": "us",
    "harness.iterations": "count",
    "harness.self_ms": "ms",
    "comm.op_samples": "count",
    "comm.op_ms_p50": "ms",
    "comm.op_ms_p90": "ms",
    "comm.flows": "count",
    "comm.us_per_flow": "us",
    "sched.plan_us": "us",
    "sched.rounds": "count",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "net.reallocations": "count",
    "net.full_solves": "count",
    "net.threshold_fallbacks": "count",
    "net.incremental_events": "count",
    "net.no_work_events": "count",
    "net.component_solves": "count",
    "net.cache_lookups": "count",
    "net.cache_hit_ratio": "ratio",
    "net.warm_outcomes": "count",
    "net.warm_hit_ratio": "ratio",
    "net.us_per_reallocation": "us",
    "net.fill_flows": "count",
    "net.fill_ms": "ms",
    "scale.points": "count",
    "scale.point_us": "us",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure, then bring the binary up to date. False on failure."""
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench"]]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def run_once(args, trace, deadline):
    """One cold process; returns its parsed report, or None."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--data", os.path.join(ROOT, "data"),
           "--pinned", os.path.join(ROOT, "perfbench", "pinned_digests.txt")]
    if trace:
        cmd += ["--trace", "--spans", os.path.join(BUILD, f"spans-{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench timed out")
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench failed with status {proc.returncode}")
        return None
    report = json.loads(lines[-1])
    report["status"] = proc.returncode
    return report


def measure(args, start):
    """Repeat the workload; returns (untraced reports, traced reports) or None."""
    deadline = start + DEADLINE_S
    untraced, traced = [], []
    rep_s = []
    while True:
        t0 = time.monotonic()
        for trace in ([False, True] if args.trace else [False]):
            report = run_once(args, trace, deadline)
            if report is None:
                return None
            (traced if trace else untraced).append(report)
        rep_s.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        enough = len(rep_s) >= (1 if args.trace else MIN_REPS)
        next_end = elapsed + statistics.median(rep_s)
        if (enough and next_end > args.seconds) or next_end > DEADLINE_S:
            break
    return untraced, traced


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")

    if not build():
        return 2
    reps = measure(args, time.monotonic())
    if reps is None:
        return 2
    untraced, traced = reps
    everything = untraced + traced

    digests = {r["digest"] for r in everything}
    failed = sum(r["ops_failed"] for r in everything)
    correct = (failed == 0 and len(digests) == 1 and
               all(r["status"] == 0 and r["probes_ok"] for r in everything))
    if len(digests) > 1:
        log(f"repetitions disagree on the result digest: {sorted(digests)}")
    pinned = "pinned" if untraced[0]["pinned"] else "not pinned (checked for repeatability)"
    log(f"{args.workload} seed {args.seed}: {len(untraced)} untraced / {len(traced)} traced "
        f"repetitions, digest {untraced[0]['digest']}, seed {pinned}")

    def median(key, reports):
        return statistics.median(r[key] for r in reports)

    metrics = {}
    if args.trace:
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": statistics.median(r["layers"][name] for r in traced),
                             "unit": unit}
        base = median("wall_s", untraced)
        metrics["trace.overhead_pct"] = {
            "value": (median("wall_s", traced) - base) / base * 100.0, "unit": "%"}
    else:
        for name, unit in END_TO_END.items():
            value = (min(r[name] for r in untraced) if name in FASTEST
                     else median(name, untraced))
            metrics[name] = {"value": value, "unit": unit}
        metrics["ops"] = {"value": untraced[0]["ops"], "unit": "count"}

    print(json.dumps({"correct": correct, "attempted": sum(r["ops"] for r in everything),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
