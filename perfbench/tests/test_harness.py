"""Tests of the benchmark harness itself: daemon hygiene, the steadiness
arithmetic, the environment stamp and the metric list. They start no
workload and need no build.

  python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
from daemon import Daemon, DaemonError  # noqa: E402

FAKE = [sys.executable, str(HERE / "fake_sdafd.py")]


class DaemonHygiene(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.cwd = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def leftovers(self):
        run_dir = self.cwd / "run"
        return sorted(p.name for p in run_dir.iterdir()) if run_dir.exists() else []

    def test_each_run_gets_its_own_socket(self):
        a = Daemon(FAKE, "run", self.cwd)
        b = Daemon(FAKE, "run", self.cwd)
        self.assertNotEqual(a.socket, b.socket)
        with a, b:
            self.assertTrue((self.cwd / a.socket).exists())
            self.assertTrue((self.cwd / b.socket).exists())
        self.assertEqual(self.leftovers(), [])

    def test_clean_drain_is_detected_and_socket_removed(self):
        with Daemon(FAKE, "run", self.cwd) as d:
            self.assertGreater(d.spawn_ns, 0)
            self.assertGreater(d.ready_ns, d.spawn_ns)
            self.assertTrue(d.drain())
            self.assertEqual(d.proc.returncode, 0)
        self.assertEqual(self.leftovers(), [])

    def test_daemon_runs_on_its_cpus_and_ours_are_restored(self):
        ours = os.sched_getaffinity(0)
        cpu = {min(ours)}
        with Daemon(FAKE, "run", self.cwd, cpus=cpu) as d:
            self.assertEqual(os.sched_getaffinity(d.proc.pid), cpu)
            self.assertEqual(os.sched_getaffinity(0), ours)

    def test_failed_run_still_reaps_daemon_and_removes_socket(self):
        with self.assertRaises(RuntimeError):
            with Daemon(FAKE, "run", self.cwd) as d:
                proc = d.proc
                raise RuntimeError("run failed")
        self.assertIsNotNone(proc.poll())
        self.assertEqual(self.leftovers(), [])

    def test_daemon_ignoring_sigterm_is_killed(self):
        with Daemon(FAKE + ["--mode=stubborn"], "run", self.cwd) as d:
            proc = d.proc
            self.assertFalse(d.drain(timeout=0.3))
        self.assertIsNotNone(proc.poll())
        self.assertEqual(self.leftovers(), [])

    def test_daemon_dying_before_ready_raises_and_cleans_up(self):
        with self.assertRaises(DaemonError):
            with Daemon(FAKE + ["--mode=die"], "run", self.cwd):
                pass
        self.assertEqual(self.leftovers(), [])

    def test_existing_socket_path_is_refused(self):
        d = Daemon(FAKE, "run", self.cwd)
        (self.cwd / "run").mkdir()
        (self.cwd / d.socket).touch()
        with self.assertRaises(DaemonError):
            d.__enter__()
        self.assertIsNone(d.proc)


class Steadiness(unittest.TestCase):
    def test_spread_is_interquartile_range_over_median(self):
        s = run.spread([10, 10, 11, 9, 10, 12, 8, 10, 10, 10])
        self.assertEqual(s["median"], 10)
        self.assertAlmostEqual(s["spread"], (s["q3"] - s["q1"]) / 10)

    def test_spread_of_constant_values_is_zero(self):
        self.assertEqual(run.spread([5.0] * 10)["spread"], 0.0)


class Stamp(unittest.TestCase):
    def test_non_release_build_is_flagged(self):
        debug = run.environment_stamp(
            {"build_type": "Debug", "ndebug": False, "compiler": "x"}, 2, 0.5)
        self.assertFalse(debug["release"])
        rel = run.environment_stamp(
            {"build_type": "Release", "ndebug": True, "compiler": "x"}, 2, 0.5)
        self.assertTrue(rel["release"])
        for key in ("commit", "source_sha256", "compiler", "build_type",
                    "nproc", "loadavg_start", "pool_workers"):
            self.assertIn(key, rel)


class MetricList(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        path = run.ROOT / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json in this tree")
        spec = json.loads(path.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
