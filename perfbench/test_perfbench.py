#!/usr/bin/env python3
"""Tiny-scale test of the repo benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload of BENCHMARK.json at minimal scale twice, once with
tracing off and once with it on, and checks that each run passes its own
checks, reports every metric BENCHMARK.json names with its unit, and that
both runs end with the same output digest. Also checks that the benchmark
refuses to run, without printing a result, when the sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
    SPEC = json.load(spec_file)


def run_bench(workload, trace, cwd=ROOT, run_py=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.01", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class TinyBenchmarkTest(unittest.TestCase):
    def run_and_parse(self, workload, trace):
        done = run_bench(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        provenance, repetitions, result = (json.loads(line)
                                           for line in done.stdout.strip().splitlines()[-3:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        for key in ("git_sha", "build_type", "vstream_check_level", "compiler",
                    "hardware_concurrency", "workers", "seed"):
            self.assertIn(key, provenance["provenance"])
        self.assertEqual(provenance["provenance"]["vstream_check_level"], 0)
        self.assertGreaterEqual(repetitions["repetitions"]["count"], 2)

        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in wanted))
        for metric in wanted:
            self.assertEqual(got[metric["name"]]["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got[metric["name"]]["value"], (int, float))
        return repetitions["repetitions"]["digest"], got

    def check_workload(self, workload):
        untraced_digest, e2e = self.run_and_parse(workload, 0)
        traced_digest, layers = self.run_and_parse(workload, 1)
        self.assertEqual(untraced_digest, traced_digest)
        for name in ("setup_s", "wall_s", "sessions_per_s", "ingest_mb_per_s", "peak_rss_mb",
                     "success_ratio", "table1_agreement"):
            self.assertGreater(e2e[name]["value"], 0, name)
        self.assertEqual(e2e["success_ratio"]["value"], 1)
        self.assertGreaterEqual(layers["span_coverage"]["value"], 0.95)

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["table1_sweep", "pcap_labels"])

    def test_table1_sweep(self):
        self.check_workload("table1_sweep")

    def test_pcap_labels(self):
        self.check_workload("pcap_labels")

    def test_refuses_without_sources(self):
        scratch = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("table1_sweep", 0, cwd=bare,
                             run_py=os.path.join(bare, "perfbench", "run.py"))
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
