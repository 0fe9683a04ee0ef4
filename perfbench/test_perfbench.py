#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout. Builds vmbench the way run.py does,
then checks, on scaled-down (--smoke) inputs: each workload runs with
every op reproducing its hash; the traced run reproduces the untraced
output hash and covers at least 95% of its wall time with layer spans;
a non-default seed repeats its own hash; a wrong pinned hash fails the
ops; malformed arguments are rejected with an error naming the value;
and run.py fails without a result where the library sources are
missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the entry point's build step)

WORKLOADS = ["sweep_cold", "resume_replay", "daemon_soak"]
SMOKE_WORK_DIR = os.path.join(run.BUILD_ROOT, "test_work")


def vmbench(*args):
    """Run the driver on smoke inputs; returns (code, stdout, stderr)."""
    done = subprocess.run(
        [run.BINARY, "--workdir", SMOKE_WORK_DIR, "--smoke"] + list(args),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    return done.returncode, done.stdout, done.stderr


def result_of(stdout):
    """(host facts, result object) from a run's standard output."""
    lines = stdout.strip().split("\n")
    host = json.loads(lines[-2][len("host "):])
    return host, json.loads(lines[-1])


def smoke(workload, seed=1, trace=0, seconds=1, expect=None):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)]
    if expect:
        args += ["--expect", expect]
    code, out, err = vmbench(*args)
    if code != 0:
        raise AssertionError("vmbench failed (%d): %s" % (code, err))
    return result_of(out)


class WorkloadTests(unittest.TestCase):
    def test_each_workload_runs_and_checks_every_op(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                host, result = smoke(workload)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]),
                                 {"ops_per_s", "setup_s", "peak_rss_mb"})
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                self.assertEqual(host["nproc"], os.cpu_count())
                self.assertEqual(len(host["output_hash"]), 16)

    def test_traced_run_reproduces_hash_and_covers_wall(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                plain, _ = smoke(workload)
                host, result = smoke(workload, trace=1, seconds=2)
                # One output check spans the untraced and the traced
                # phase of a traced run, so correct means every traced
                # op matched the untraced ops' hash.
                self.assertTrue(result["correct"])
                self.assertEqual(host["output_hash"],
                                 plain["output_hash"])
                metrics = result["metrics"]
                self.assertGreaterEqual(
                    metrics["trace.coverage"]["value"], 0.95)
                self.assertGreater(metrics["trace.overhead"]["value"], 0)
                self.assertNotIn("ops_per_s", metrics)

    def test_exact_layer_counts_repeat(self):
        exact = ["sim.runs", "sim.epochs", "core.abnormal_runs",
                 "ledger.append_bytes", "ledger.replay_frames",
                 "core.report_bytes", "daemon.rounds_served",
                 "daemon.crashes", "supervisor.backoffs"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first = smoke(workload, trace=1, seconds=2)
                _, second = smoke(workload, trace=1, seconds=2)
                for name in exact:
                    self.assertEqual(first["metrics"][name],
                                     second["metrics"][name], name)

    def test_non_default_seed_repeats_its_own_hash(self):
        default, _ = smoke("daemon_soak", seed=1)
        host, result = smoke("daemon_soak", seed=7)
        self.assertTrue(result["correct"])
        self.assertNotEqual(host["output_hash"], default["output_hash"])
        again, _ = smoke("daemon_soak", seed=7)
        self.assertEqual(again["output_hash"], host["output_hash"])

    def test_wrong_pinned_hash_fails_every_op(self):
        _, result = smoke("daemon_soak", expect="0" * 16)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


class ArgumentTests(unittest.TestCase):
    def rejects(self, args, named):
        code, out, err = vmbench(*args)
        self.assertNotEqual(code, 0)
        self.assertIn(named, err)
        self.assertNotIn('"correct"', out)

    def test_unknown_workload(self):
        self.rejects(["--workload", "sweep_hot", "--seed", "1"],
                     "sweep_hot")

    def test_malformed_seed(self):
        self.rejects(["--workload", "sweep_cold", "--seed", "12x"], "12x")

    def test_negative_seed(self):
        self.rejects(["--workload", "sweep_cold", "--seed", "-3"], "-3")

    def test_overflowing_seed(self):
        self.rejects(["--workload", "sweep_cold", "--seed",
                      "99999999999999999999"], "99999999999999999999")

    def test_bad_trace_and_seconds(self):
        self.rejects(["--workload", "sweep_cold", "--trace", "2"], "2")
        self.rejects(["--workload", "sweep_cold", "--seconds", "0"], "0")

    def test_missing_sources_fail_without_result(self):
        bare = os.path.join(run.BUILD_ROOT, "test_bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "sweep_cold", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    run.build()
    unittest.main()
