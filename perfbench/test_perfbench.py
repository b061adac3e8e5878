#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_perfbench.py

Builds the perfbench binary through run.py (same build directory), then checks the
order statistics, the declared metric names, that a tiny run of every
workload emits every declared metric, that broken outputs fail the run, and
compare.py's quartiles, verdicts, exit statuses and header refusal.
"""
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import compare  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(*args):
    """Run run.py from the repository root; returns (exit code, result, stdout)."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + list(args),
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            cls.exe = run.build()
        finally:
            os.chdir(cwd)
        assert cls.exe, "perfbench build failed"

    def test_percentile_math(self):
        proc = subprocess.run([self.exe, "--selftest"], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        for values in ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], [4.0, 1.0, 2.5, 3.0]):
            q1, med, q3 = compare.quartiles(values)
            self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
                         (2.75, 5.5, 8.25))
        self.assertAlmostEqual(compare.spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
                               5.5 / 5.5)

    def test_metric_names(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(NAME_RE.fullmatch(n), n)

    def test_tiny_run_emits_every_metric(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[kind]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    rc, result, out = bench("--workload", w["name"], "--seed", "7",
                                            "--seconds", "0.4", "--trace", str(trace))
                    self.assertEqual(rc, 0, out)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    if trace == 0:
                        for k, v in result["metrics"].items():
                            self.assertGreater(v["value"], 0, k)

    def test_corrupt_stream_fails(self):
        for w in ("pipez_compress", "pipez_decompress"):
            with self.subTest(workload=w):
                rc, result, out = bench("--workload", w, "--seed", "3", "--seconds", "0.3",
                                        "--trace", "0", "--inject", "corrupt_stream")
                self.assertNotEqual(rc, 0, out)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])

    def test_wrong_set_count_fails(self):
        for w in ("set_read_stm", "set_write_htm"):
            with self.subTest(workload=w):
                rc, result, out = bench("--workload", w, "--seed", "3", "--seconds", "0.2",
                                        "--trace", "0", "--inject", "wrong_count")
                self.assertNotEqual(rc, 0, out)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])

    def test_compare_verdicts_and_refusal(self):
        def record(path, sha, seed, config, value):
            env = {"workload": "w", "seed": seed, "sha": sha, "config": config}
            res = {"correct": True, "attempted": 1, "failed": 0,
                   "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}}
            with open(path, "a") as f:
                f.write(json.dumps({"env": env, "result": res}) + "\n")

        def compare_files(x, y):
            return subprocess.run([sys.executable, os.path.join(HERE, "compare.py"), x, y],
                                  capture_output=True, text=True)

        with tempfile.TemporaryDirectory() as d:
            a, b, c, e, f = (os.path.join(d, x) for x in "abcef")
            for seed, v in ((1, 100.0), (2, 101.0), (3, 99.0)):
                record(a, "s1", seed, "mode=x", v)
                record(b, "s2", seed + 10, "mode=x", v * 0.5)
                record(c, "s2", seed, "mode=y", v)
                record(f, "s2", seed + 10, "mode=x", v * 0.97)
            # A base spread of 1.0 is wider than the 0.25 bound.
            for seed, v in ((1, 50.0), (2, 100.0), (3, 150.0)):
                record(e, "s1", seed, "mode=x", v)
            proc = compare_files(a, f)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            self.assertIn("1 ok, 0 WORSE, 0 unresolved", proc.stdout)
            proc = compare_files(a, b)
            self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
            self.assertIn("WORSE", proc.stdout)
            proc = compare_files(e, f)
            self.assertEqual(proc.returncode, 3, proc.stdout + proc.stderr)
            self.assertIn("0 ok, 0 WORSE, 1 unresolved", proc.stdout)
            proc = compare_files(a, c)
            self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
            self.assertIn("refused", proc.stderr)


if __name__ == "__main__":
    unittest.main()
