"""The benchmark's own tests: every workload in a small configuration.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each workload runs three times from the repository root with one seed: two
untraced runs and one traced run. The tests assert that every metric
BENCHMARK.json names is printed with its unit, that no operation failed, that
simulated-time metrics and counts repeat exactly across the two untraced runs,
that the traced run dropped no span, and that the binary's parameters match
workloads.json. RepeatStats checks run.py's end-to-end figures on synthetic
step logs.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run as bench  # noqa: E402  (perfbench/run.py)
SECONDS = "0.2"
SEED = "7"


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", SEED, "--seconds", SECONDS, "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{out.returncode}:\n{out.stderr[-3000:]}")
    meta_line, result_line = lines[-2], lines[-1]
    assert meta_line.startswith("# meta "), meta_line
    return json.loads(meta_line[len("# meta "):]), json.loads(result_line)


def full_record(workload, trace):
    """The complete record run.py keeps: every metric with its kind."""
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    path = os.path.join(base, "results",
                        f"{workload}-seed{SEED}-trace{trace}.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)["all_metrics"]


class WorkloadTest:
    """Mixed into one TestCase per workload (WORKLOAD set by the subclass)."""

    WORKLOAD = ""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            cls.spec = json.load(f)
        cls.meta0, cls.res0 = run(cls.WORKLOAD, 0)
        cls.rec0 = full_record(cls.WORKLOAD, 0)
        cls.meta0b, cls.res0b = run(cls.WORKLOAD, 0)
        cls.rec0b = full_record(cls.WORKLOAD, 0)
        cls.meta1, cls.res1 = run(cls.WORKLOAD, 1)

    def check_result(self, res, declared):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_result(self.res0, self.spec["end_to_end"])
        for m in self.spec["end_to_end"]:
            self.assertGreater(self.res0["metrics"][m["name"]]["value"], 0,
                               m["name"])

    def test_per_layer_metrics_printed_with_units(self):
        self.check_result(self.res1, self.spec["per_layer"])
        self.assertEqual(
            self.res1["metrics"]["obs.spans_dropped"]["value"], 0)
        self.assertEqual(self.res1["metrics"]["error_rate"]["value"], 0)

    def test_error_rate_is_zero(self):
        self.assertEqual(self.rec0["error_rate"]["value"], 0)
        self.assertEqual(self.meta0["errors"], [])

    def test_sim_metrics_and_counts_repeat_exactly(self):
        exact = {k for k, v in self.rec0.items()
                 if v.get("kind") in ("sim", "count")}
        self.assertTrue(exact)
        for k in sorted(exact):
            self.assertEqual(self.rec0[k]["value"], self.rec0b[k]["value"], k)

    def test_metadata_recorded(self):
        host = self.meta0["host"]
        for key in ("nproc", "cpu_model", "compiler", "compiler_version",
                    "build_type", "jit_compiler", "seed", "git_commit"):
            self.assertIn(key, host)
        self.assertEqual(host["seed"], int(SEED))
        self.assertEqual(self.meta0["kinds"]["setup_s"], "host")

    def test_parameters_match_workloads_json(self):
        with open(os.path.join(BENCH_DIR, "workloads.json"),
                  encoding="utf-8") as f:
            params = json.load(f)["workloads"][self.WORKLOAD]["params"]
        self.assertEqual(self.meta0["params"], params)


class ReplicaStream(WorkloadTest, unittest.TestCase):
    WORKLOAD = "replica-stream"


class FleetBurst(WorkloadTest, unittest.TestCase):
    WORKLOAD = "fleet-burst"


class SfwControl(WorkloadTest, unittest.TestCase):
    WORKLOAD = "sfw-control"


class CompileEdit(WorkloadTest, unittest.TestCase):
    WORKLOAD = "compile-edit"


class RepeatStats(unittest.TestCase):
    """The end-to-end figures keep every step: a slowdown of part of the run
    shows in them, whichever part it is, while a host slowdown that the
    host-speed samples see is scaled out."""

    @staticmethod
    def log(n, slow=(), factor=1.0, host=(), host_factor=1.0):
        # (group, ops, ms, latency_ms, speed) per step, a host-speed sample
        # every 20 steps. Steps in `slow` cost `factor` times more (the
        # program); steps in `host` run on a host `host_factor` times slower,
        # and the samples next to them see it.
        steps = []
        for i in range(n):
            ms = factor if i in slow else 1.0
            speed = bench.REFERENCE_SPEED
            if i in host:
                ms *= host_factor
                speed /= host_factor
            steps.append((i % 10, 100.0, ms, ms,
                          speed if i % 20 == 19 else 0.0))
        return steps

    def test_slowdown_confined_to_part_of_the_run_shows(self):
        n = 1000
        base = bench.repeat_stats([self.log(n), self.log(n)])
        for part in (range(0, 200), range(400, 600), range(800, 1000)):
            slow = set(part)
            got = bench.repeat_stats([self.log(n, slow, 1.5),
                                      self.log(n, slow, 1.5)])
            self.assertAlmostEqual(got["ops_per_s"],
                                   base["ops_per_s"] / 1.1)
            self.assertAlmostEqual(got["step_ms_p90"], 1.5)

    def test_host_slowdown_seen_by_the_speed_samples_is_scaled_out(self):
        n = 1000
        base = bench.repeat_stats([self.log(n), self.log(n)])
        got = bench.repeat_stats([self.log(n, host=set(range(0, 300)),
                                           host_factor=1.6),
                                  self.log(n, host=set(range(600, 900)),
                                           host_factor=1.3)])
        for name, value in base.items():
            self.assertAlmostEqual(got[name], value, msg=name)

    def test_different_steps_are_refused(self):
        a = self.log(10)
        b = [(g, ops + 1, ms, lat, sp) for g, ops, ms, lat, sp in a]
        self.assertIsNone(bench.repeat_stats([a, b]))


class Refusals(unittest.TestCase):
    def test_unknown_workload_exits_without_a_result(self):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
             "no-such-workload", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
