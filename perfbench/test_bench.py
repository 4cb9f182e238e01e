#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Runs every workload at tiny scale and checks that each metric
BENCHMARK.json names is printed with its unit, traced and untraced;
that a dropped datagram and a truncated frame on the serve path fail
the correctness check with records_lost_frac above zero; and that the
command fails without a result where there is no source to build.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def bench(workload, trace=0, fault="none", cwd=ROOT):
    cmd = ["python3", os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny", "--fault", fault]
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    r = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    return r.returncode, lines


class Metrics(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        self.assertEqual({m["name"]: m["unit"] for m in BENCH["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in BENCH["per_layer"]}, run.LAYER_UNITS)
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(run.WORKLOADS))

    def check_run(self, workload, trace, expected):
        code, lines = bench(workload, trace)
        self.assertEqual(code, 0, f"{workload} trace {trace} exited {code}")
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {m["name"]: m["unit"] for m in expected}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], units[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
        info = json.loads(lines[-2])
        self.assertIn("cpu_model", info["host"])
        self.assertEqual(info["seed"], 7)

    def test_every_workload_prints_every_metric(self):
        for w in run.WORKLOADS:
            for trace, expected in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
                with self.subTest(workload=w, trace=trace):
                    self.check_run(w, trace, expected)


class Faults(unittest.TestCase):
    def test_lost_records_fail_the_run(self):
        for fault in ("drop-datagram", "truncate-frame"):
            with self.subTest(fault=fault):
                code, lines = bench("serve-hit10", fault=fault)
                self.assertEqual(code, 1)
                result = json.loads(lines[-1])
                info = json.loads(lines[-2])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(info["notes"]["records_lost_frac"], 0)
                self.assertLess(result["metrics"]["records_delivered_frac"]["value"], 1)


class Contract(unittest.TestCase):
    def test_fails_without_source(self):
        bare = os.path.join(TARGET, "perfbench-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            code, lines = bench("soak-miss99", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(any(l.startswith('{"correct"') for l in lines))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
