#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then runs every workload at reduced size
(a prefix of its results, --limit) traced and untraced, and checks that the
results match their references, that tracing and probing leave the results
untouched, and that each workload still exercises the layer it exists for.
"""
import json
import os
import re
import shutil
import subprocess
import tempfile
import unittest

import run

# Reduced size per workload: the first N results, chosen so each prefix
# still reaches the regime its layer assertion needs (Leonardo, the only
# system with production noise, is the second system in every sweep).
LIMITS = {
    "intranode_pingpong": 52,  # Alps, then the first Leonardo cells
    "alltoall_exact": 10,      # Alps exact cells up to 64 GPUs
    "allreduce_exact": 10,     # Alps exact cells up to 32 GPUs
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def drive(workload, *extra, data=None):
    cmd = [run.EXE, "--workload", workload, "--limit", str(LIMITS[workload]),
           "--data", data or os.path.join(run.ROOT, "data"),
           "--pinned", os.path.join(run.ROOT, "perfbench", "pinned_digests.txt"), *extra]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench failed to build")
        cls.untraced, cls.traced = {}, {}
        for w in LIMITS:
            cls.untraced[w] = drive(w)
            cls.traced[w] = drive(w, "--trace")

    def test_metric_names_follow_the_grammar(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual({m["name"] for m in bench["end_to_end"]},
                         set(run.END_TO_END) | {"ops"})
        self.assertEqual({m["name"] for m in bench["per_layer"]},
                         set(run.PER_LAYER) | {"trace.overhead_pct"})
        self.assertEqual([w["name"] for w in bench["workloads"]], list(LIMITS))

    def test_every_workload_matches_its_references(self):
        for w in LIMITS:
            for status, report in (self.untraced[w], self.traced[w]):
                self.assertEqual(status, 0, w)
                self.assertEqual(report["ops_failed"], 0, w)
                self.assertGreater(report["ops"], 0, w)
                self.assertTrue(report["pinned"], w)
                self.assertEqual(report["csv_rows"], LIMITS[w], w)

    def test_tracing_and_probes_leave_results_untouched(self):
        for w in LIMITS:
            self.assertEqual(self.untraced[w][1]["digest"], self.traced[w][1]["digest"], w)
            self.assertTrue(self.traced[w][1]["probes_ok"], w)

    def test_traced_run_reports_every_layer(self):
        for w in LIMITS:
            layers = self.traced[w][1]["layers"]
            self.assertEqual(set(layers), set(run.PER_LAYER), w)

    def test_each_workload_exercises_its_layer(self):
        layers = {w: self.traced[w][1]["layers"] for w in LIMITS}
        self.assertGreater(layers["intranode_pingpong"]["noise.resamples"], 0)
        self.assertEqual(layers["alltoall_exact"]["noise.resamples"], 0)
        a2a = layers["alltoall_exact"]
        self.assertGreaterEqual(a2a["net.threshold_fallbacks"] / a2a["net.reallocations"], 0.9)
        self.assertGreaterEqual(layers["allreduce_exact"]["net.cache_hit_ratio"], 0.5)

    def test_a_changed_reference_row_is_caught(self):
        with tempfile.TemporaryDirectory() as tmp:
            data = os.path.join(tmp, "data")
            shutil.copytree(os.path.join(run.ROOT, "data"), data)
            path = os.path.join(data, "fig10_alps.csv")
            with open(path) as f:
                lines = f.read().splitlines()
            lines[1] = lines[1].replace(",exact-sim", "0,exact-sim")  # 4,ccl,X -> X0
            with open(path, "w") as f:
                f.write("\n".join(lines) + "\n")
            status, report = drive("allreduce_exact", data=data)
            self.assertEqual(status, 1)
            self.assertEqual(report["ops_failed"], 1)

    def test_a_changed_pinned_digest_is_caught(self):
        with open(os.path.join(run.ROOT, "perfbench", "pinned_digests.txt")) as f:
            lines = f.read().splitlines()
        with tempfile.NamedTemporaryFile("w", suffix=".txt") as pinned:
            for line in lines:
                fields = line.split()
                if fields and fields[0] == "alltoall_exact" and "7" in fields[1].split(","):
                    fields[2] = "0" * 16
                    line = " ".join(fields)
                pinned.write(line + "\n")
            pinned.flush()
            status, report = drive("alltoall_exact", "--seed", "7", "--pinned", pinned.name)
            self.assertEqual(status, 1)
            self.assertEqual(report["ops_failed"], 1)


if __name__ == "__main__":
    unittest.main()
