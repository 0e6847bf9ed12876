#!/usr/bin/env python3
"""Tests of the repository benchmark, on reduced inputs:

    python3 perfbench/test_run.py

They build the driver if needed (the first build takes a minute or
two), then finish in seconds.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def run_script(workload, trace, seed=5, extra_env=None):
    env = dict(os.environ, **(extra_env or {}))
    p = subprocess.run(
        [sys.executable, str(bench.ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--scale", "small"],
        env=env, capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        raise AssertionError(f"run.py failed: {p.stderr[-800:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def driver(*args, env=None):
    p = subprocess.run([str(bench.BINARY)] + list(args),
                       env=bench.scrubbed_env() if env is None else env,
                       capture_output=True, text=True, timeout=120)
    return p


def driver_json(*args):
    p = driver(*args)
    if p.returncode != 0:
        raise AssertionError(p.stderr)
    return json.loads(p.stdout.strip().splitlines()[-1])


def small_args(workload, seed=5):
    return (bench.shape_args(bench.SMALL[workload]) +
            ["--seed", str(seed)])


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()


class OracleTest(BenchTest):
    def test_radix_oracle_reproduces_the_documented_checksum(self):
        # DU, AU, VMMC and SVM all give this at 262,144 keys, seed 12345.
        r = driver_json("oracle", "--app", "radix-vmmc", "--size", "262144",
                        "--iters", "2", "--seed", "12345")
        self.assertEqual(r["checksum"], 274862469247)

    def test_barnes_oracle_reproduces_the_documented_checksum(self):
        r = driver_json("oracle", "--app", "barnes-nx", "--size", "2048",
                        "--iters", "2", "--seed", "2718")
        self.assertEqual(r["checksum"], 3054260909)

    def test_every_small_workload_matches_its_oracle(self):
        for workload in bench.SMALL:
            with self.subTest(workload=workload):
                args = small_args(workload)
                run = driver_json("run", *args)
                expected = driver_json("oracle", *args)["checksum"]
                self.assertEqual(run["checksum"], expected)
                self.assertEqual(bench.run_problems(run, expected, run), [])

    def test_wrong_checksum_counts_as_a_failure(self):
        args = small_args("vmmc256_radix")
        run = driver_json("run", *args)
        tally = bench.Tally()
        self.assertFalse(tally.check(run, None, run["checksum"] + 2, None))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertTrue(tally.check(run, None, run["checksum"], run))
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_deadlock_crash_and_divergence_count_as_failures(self):
        run = driver_json("run", *small_args("nx256_barnes"))
        expected = run["checksum"]
        self.assertTrue(bench.run_problems(dict(run, deadlocked=True),
                                           expected, None))
        self.assertTrue(bench.run_problems(
            dict(run, sim_time_ps=run["sim_time_ps"] + 1), expected, run))
        counters = dict(run["counters"])
        counters["mesh.packets"] += 1
        self.assertTrue(bench.run_problems(dict(run, counters=counters),
                                           expected, run))
        tally = bench.Tally()
        self.assertFalse(tally.check(None, "exit status -11", expected,
                                     None))
        self.assertEqual(tally.failed, 1)

    def test_repeated_and_traced_runs_are_identical(self):
        args = small_args("svm16_radix")
        first = driver_json("run", *args)
        again = driver_json("run", *args)
        traced = driver_json("run", *args, "--lifecycle", "--causal",
                             str(bench.OUT / "test-causal.jsonl"))
        self.assertEqual(bench.run_problems(again, first["checksum"], first),
                         [])
        self.assertEqual(bench.run_problems(traced, first["checksum"],
                                            first), [])
        self.assertGreater(traced["cp_roots"], 0)


class EnvScrubTest(BenchTest):
    def test_scrub_drops_only_shrimp_variables(self):
        env = {"SHRIMP_MESH": "2x2", "SHRIMP_THREADS": "4", "PATH": "/bin",
               "HOME": "/h"}
        self.assertEqual(bench.scrubbed_env(env),
                         {"PATH": "/bin", "HOME": "/h"})

    def test_driver_refuses_an_ambient_shrimp_variable(self):
        env = dict(bench.scrubbed_env(), SHRIMP_MESH="2x2")
        p = driver("setup", "--mesh", "4x4", "--reps", "1", env=env)
        self.assertEqual(p.returncode, 3)
        self.assertIn("SHRIMP_MESH", p.stderr)
        self.assertEqual(p.stdout, "")

    def test_ambient_variables_do_not_change_the_workload(self):
        clean = run_script("svm16_radix", 0)
        dirty = run_script("svm16_radix", 0, extra_env={
            "SHRIMP_MESH": "2x2", "SHRIMP_THREADS": "4",
            "SHRIMP_FAULT_DROP_RATE": "0.1", "SHRIMP_LIFECYCLE": "1"})
        self.assertTrue(dirty["correct"])
        self.assertEqual(dirty["metrics"]["sim_time_ms"],
                         clean["metrics"]["sim_time_ms"])


class DriverInputTest(BenchTest):
    def test_out_of_range_shapes_are_refused(self):
        base = ["--app", "radix-vmmc", "--mesh", "4x4", "--size", "16384",
                "--iters", "2", "--seed", "1"]
        for bad in (["--ranks", "17"], ["--ranks", "4294967297"],
                    ["--ranks", "0"], ["--ranks", "16", "--mesh", "4"]):
            with self.subTest(bad=bad):
                p = driver("run", *base, *bad)
                self.assertEqual(p.returncode, 2)
                self.assertEqual(p.stdout, "")
        p = driver("setup", "--mesh", "4x4", "--reps", "0")
        self.assertEqual(p.returncode, 2)


class MetricTest(BenchTest):
    def assert_matches_spec(self, result, section):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_end_to_end_output_matches_benchmark_json(self):
        for workload in bench.SMALL:
            with self.subTest(workload=workload):
                result = run_script(workload, 0)
                self.assert_matches_spec(result, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_output_matches_benchmark_json(self):
        result = run_script("svm16_radix", 1)
        self.assert_matches_spec(result, "per_layer")
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreater(m["svm.faults"], 0)
        self.assertGreater(m["trace.cp.pkt_ms"], 0)
        self.assertEqual(m["msg.nx_sends"], 0)

    def test_tables_match_benchmark_json(self):
        self.assertEqual(bench.END_TO_END,
                         {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
        self.assertEqual(bench.PER_LAYER,
                         {m["name"]: m["unit"] for m in SPEC["per_layer"]})
        self.assertEqual(set(bench.WORKLOADS),
                         {w["name"] for w in SPEC["workloads"]})
        self.assertEqual(set(bench.SMALL), set(bench.WORKLOADS))

    def test_per_layer_extraction(self):
        def run(wall, faults):
            return {
                "wall_s": wall, "user_s": wall * 0.9, "sys_s": 0.1,
                "speed": 0.5, "calib_s": wall / 10,
                "minor_faults": faults, "events": 1000000,
                "fiber_switches": 500000,
                "counters": {"mesh.packets": 2000.0, "nx.sends": 100.0,
                             "vmmc.messages": 300.0,
                             "cpu_busy_ps": 5e9},
                "time_ps": {"Computation": 3e9, "Communication": 0,
                            "Lock": 0, "Barrier": 1e9, "Overhead": 0},
            }
        runs = [run(2.0, 10), run(1.0, 30), run(3.0, 20)]
        probe = {"event_ns": 50.0, "fiber_switch_ns": 20.0,
                 "mesh_send_ns": 100.0, "vmmc_send_ns": 1000.0,
                 "nx_crecv_ns": 2000.0}
        traced = {"wall_s": 2.2,
                  "stage_mean_us": {s: 1.5 for s in bench.STAGES.values()}}
        causal = {"cp_ps": {"pkt": 4e9, "nx": 2e9, "other": 9e9}}
        m = bench.per_layer(runs, probe, traced, causal)
        self.assertEqual(set(m), set(bench.PER_LAYER))
        self.assertAlmostEqual(m["sim.host_s_est"], 0.06)
        self.assertAlmostEqual(m["mesh.host_s_est"], 2e-4)
        self.assertAlmostEqual(m["core.host_s_est"], 3e-4)
        self.assertAlmostEqual(m["msg.host_s_est"], 2e-4)
        # The per-layer figures use the median run's unscaled wall time
        # (2.0 s), as the probes are unscaled too.
        self.assertAlmostEqual(m["apps.host_residual_s"],
                               2.0 - 0.06 - 2e-4 - 3e-4 - 2e-4)
        self.assertAlmostEqual(m["sim.host_ns_per_event"], 2000.0)
        self.assertAlmostEqual(m["node.calib_ms"], 200.0)
        self.assertEqual(m["node.minor_faults"], 20)
        self.assertAlmostEqual(m["node.cpu_busy_ms"], 5.0)
        self.assertAlmostEqual(m["apps.compute_ms"], 3.0)
        self.assertAlmostEqual(m["trace.cp.pkt_ms"], 4.0)
        self.assertEqual(m["trace.cp.svm_ms"], 0.0)
        self.assertAlmostEqual(m["trace.overhead_pct"], 10.0)
        self.assertEqual(m["svm.faults"], 0.0)

    def test_end_to_end_scales_host_times_by_host_speed(self):
        # Scaled: 2.0, 2.0, 4.5, 1.0, 3.0; the middle half is 2.0,
        # 2.0, 3.0.
        runs = [{"wall_s": w, "speed": f, "peak_rss_mb": 10.0,
                 "sim_time_ps": 3e9}
                for w, f in ((2.0, 1.0), (4.0, 0.5), (9.0, 0.5), (1.0, 1.0),
                             (6.0, 0.5))]
        m = bench.end_to_end(runs, [0.01, 0.03, 0.02])
        self.assertAlmostEqual(m["wall_s"], 7.0 / 3)
        self.assertAlmostEqual(m["setup_s"], 0.02)
        self.assertAlmostEqual(m["sim_time_ms"], 3.0)

    def test_calib_job_reports_a_positive_time(self):
        self.assertGreater(driver_json("calib")["calib_s"], 0)


if __name__ == "__main__":
    unittest.main()
