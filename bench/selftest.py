"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that each workload prints every metric named in BENCHMARK.json with
its unit, and that a corrupted output, a raising call, and a workers=2 output
that differs from the workers=1 output each count as a failed operation.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run
import workloads


def _bench_spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class PrintedMetrics(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        spec = _bench_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.NAMES))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for name in workloads.NAMES:
                with self.subTest(workload=name, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, run.__file__, "--workload", name, "--tiny",
                         "--seconds", "0", "--trace", str(trace)],
                        capture_output=True, text=True, timeout=170, cwd=run.ROOT)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    res = json.loads(lines[-1])
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"], proc.stdout)
                    self.assertEqual(res["failed"], 0)
                    # workers=2 runs only where the workload defines it
                    w2 = name in ("verify_suite", "crossing_rademacher")
                    self.assertEqual(res["attempted"],
                                     3 if trace else 2 + w2)
                    printed = {line.split(" = ")[0] for line in lines if " = " in line}
                    self.assertEqual("wall_w2_s" in printed, w2 and not trace)
                    if not trace:
                        self.assertLessEqual({"setup_raw_s", "wall_s", "cells_per_s"}, printed)
                    self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, want)
                    for k, v in res["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)
                        self.assertIn(f"{k} = {v['value']!r} {v['unit']}", lines)
                    self.assertTrue(any(line.startswith("failed_frac = ") for line in lines))


class FailedOperations(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.OUT, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="selftest_", dir=run.OUT)

    def tearDown(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def ops_with(self, name, alter):
        """Ops over a tiny workload whose workers=2 output passes through `alter`."""
        wl = workloads.build(name, run.DEFAULT_SEED, True, self.scratch)
        plain = wl.run

        def altered(workers):
            out = plain(workers)
            return alter(out) if workers == 2 else out
        wl.run = altered
        return run.Ops(wl)

    def test_corrupted_output_fails_its_check(self):
        def corrupt(reports):
            reports[-1]["estimate"] = 0.9
            return reports
        ops = self.ops_with("crossing_rademacher", corrupt)
        self.assertIsNotNone(ops.run(1)[0])
        self.assertIsNone(ops.run(2)[0])
        self.assertEqual((ops.attempted, ops.failed), (2, 1))
        self.assertIn("exceeds", ops.problems[0])

    def test_w1_and_w2_digests_are_compared(self):
        def touch(out_dir):
            with open(os.path.join(out_dir, "report.json"), "a") as fh:
                fh.write("\n")
            return out_dir
        ops = self.ops_with("verify_suite", touch)
        self.assertIsNotNone(ops.run(1)[0])
        self.assertIsNone(ops.run(2)[0])
        self.assertEqual((ops.attempted, ops.failed), (2, 1))
        self.assertIn("digest", ops.problems[0])

    def test_identical_w1_and_w2_outputs_pass(self):
        ops = self.ops_with("lil_rademacher", lambda out: out)
        self.assertIsNotNone(ops.run(1)[0])
        self.assertIsNotNone(ops.run(2)[0])
        self.assertEqual((ops.attempted, ops.failed), (2, 0))

    def test_raising_call_fails(self):
        def boom(out):
            raise RuntimeError("injected")
        ops = self.ops_with("crossing_lognormal", boom)
        self.assertIsNone(ops.run(2)[0])
        self.assertEqual((ops.attempted, ops.failed), (1, 1))
        self.assertIn("injected", ops.problems[0])


if __name__ == "__main__":
    unittest.main()
