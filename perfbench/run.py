#!/usr/bin/env python3
"""The repository benchmark: three workloads, each loading a different
layer of the simulator, with host and simulated metrics end to end and
per layer.

    python3 perfbench/run.py --workload nx256_barnes --seed 1 \
        --seconds 40 --trace 0

builds the measurement driver (perfbench.cc, against ../src) into
.bench_build/perfbench, runs the workload in a fresh process per run
for --seconds seconds, checks every run against an oracle and against
the first run, and prints one JSON line:

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(probes, a traced run, and the causal critical path). BENCHMARK.json
describes every workload and metric. The spans this script and the
driver timed are written to .bench_build/perfbench-out/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
BINARY = BUILD / "perfbench"

# Workload shapes. Every run uses ShrimpNic, one host thread and a
# lossless backplane (pinned in perfbench.cc). causal_size, when set,
# is the problem size of the run whose causal log gives trace.cp.*:
# the paper-size Radix-SVM run would record ~19M spans.
WORKLOADS = {
    "nx256_barnes": {"app": "barnes-nx", "mesh": "16x16", "ranks": 256,
                     "size": 1024, "iters": 1},
    "vmmc256_radix": {"app": "radix-vmmc", "mesh": "16x16", "ranks": 256,
                      "size": 262144, "iters": 2},
    "svm16_radix": {"app": "radix-svm", "mesh": "4x4", "ranks": 16,
                    "size": 2097152, "iters": 3, "causal_size": 262144},
}

# Reduced shapes (--scale small) that finish in about a second, for the
# benchmark's own tests.
SMALL = {
    "nx256_barnes": {"app": "barnes-nx", "mesh": "4x4", "ranks": 16,
                     "size": 256, "iters": 1},
    "vmmc256_radix": {"app": "radix-vmmc", "mesh": "4x4", "ranks": 16,
                      "size": 16384, "iters": 2},
    "svm16_radix": {"app": "radix-svm", "mesh": "4x4", "ranks": 4,
                    "size": 16384, "iters": 2, "causal_size": 8192},
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_time_ms": "ms",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.fiber_switches": "count",
    "sim.host_ns_per_event": "ns",
    "sim.event_ns": "ns",
    "sim.fiber_switch_ns": "ns",
    "sim.host_s_est": "s",
    "mesh.packets": "count",
    "mesh.bytes": "bytes",
    "mesh.link_stalls": "count",
    "mesh.route_arena_bytes": "bytes",
    "mesh.send_ns": "ns",
    "mesh.host_s_est": "s",
    "mesh.wire_us": "us",
    "node.minor_faults": "count",
    "node.user_s": "s",
    "node.sys_s": "s",
    "node.calib_ms": "ms",
    "node.bus_grants": "count",
    "node.cpu_busy_ms": "ms",
    "node.bus_busy_ms": "ms",
    "nic.du_transfers": "count",
    "nic.au_packets": "count",
    "nic.packets_in": "count",
    "nic.eisa_busy_ms": "ms",
    "nic.fifo_threshold_irqs": "count",
    "nic.send_overhead_us": "us",
    "nic.ni_wait_us": "us",
    "nic.rx_fifo_us": "us",
    "nic.delivery_us": "us",
    "core.vmmc_messages": "count",
    "core.vmmc_bytes": "bytes",
    "core.notifications": "count",
    "core.exports": "count",
    "core.vmmc_send_ns": "ns",
    "core.host_s_est": "s",
    "msg.nx_sends": "count",
    "msg.nx_send_bytes": "bytes",
    "msg.nx_crecv_ns": "ns",
    "msg.host_s_est": "s",
    "svm.faults": "count",
    "svm.invalidations": "count",
    "svm.ctl_msgs": "count",
    "svm.barriers": "count",
    "apps.compute_ms": "ms",
    "apps.communication_ms": "ms",
    "apps.lock_ms": "ms",
    "apps.barrier_ms": "ms",
    "apps.overhead_ms": "ms",
    "apps.host_residual_s": "s",
    "trace.cp.nx_ms": "ms",
    "trace.cp.coll_ms": "ms",
    "trace.cp.svm_ms": "ms",
    "trace.cp.vmmc_ms": "ms",
    "trace.cp.pkt_ms": "ms",
    "trace.overhead_pct": "%",
}

# Simulated counters, summed over nodes by the driver, that the
# per-layer report passes through; *_ps counters are reported in ms.
COUNTERS = {
    "mesh.packets": "mesh.packets",
    "mesh.bytes": "mesh.bytes",
    "mesh.link_stalls": "mesh.link_stalls",
    "mesh.route_arena_bytes": "mesh.route_arena_bytes",
    "node.bus_grants": "bus_grants",
    "node.cpu_busy_ms": "cpu_busy_ps",
    "node.bus_busy_ms": "bus_busy_ps",
    "nic.du_transfers": "nic.du_transfers",
    "nic.au_packets": "nic.au_packets",
    "nic.packets_in": "nic.packets_in",
    "nic.eisa_busy_ms": "nic.eisa_busy_ps",
    "nic.fifo_threshold_irqs": "nic.fifo_threshold_irqs",
    "core.vmmc_messages": "vmmc.messages",
    "core.vmmc_bytes": "vmmc.message_bytes",
    "core.notifications": "vmmc.notifications",
    "core.exports": "vmmc.exports",
    "msg.nx_sends": "nx.sends",
    "msg.nx_send_bytes": "nx.send_bytes",
    "svm.faults": "svm.faults",
    "svm.invalidations": "svm.invalidations",
    "svm.ctl_msgs": "svm.ctl_msgs",
    "svm.barriers": "svm.barriers",
}

STAGES = {
    "nic.send_overhead_us": "send_overhead",
    "nic.ni_wait_us": "ni_wait",
    "mesh.wire_us": "wire",
    "nic.rx_fifo_us": "rx_fifo",
    "nic.delivery_us": "delivery",
}

TIME_CATEGORIES = {
    "apps.compute_ms": "Computation",
    "apps.communication_ms": "Communication",
    "apps.lock_ms": "Lock",
    "apps.barrier_ms": "Barrier",
    "apps.overhead_ms": "Overhead",
}

CP_LAYERS = ("nx", "coll", "svm", "vmmc", "pkt")

SETUP_REPS = 21
# A typical calib_s of the driver's calib job on the host used to set
# the bounds (README.md). Host times are reported as if the host ran
# at that speed.
REFERENCE_CALIB_S = 0.078
DEADLINE_S = 170  # every run must end within 180 s after the build


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def scrubbed_env(environ=None):
    """The environment minus every SHRIMP_* variable: the Cluster
    constructor would layer those onto the pinned workload config."""
    environ = os.environ if environ is None else environ
    return {k: v for k, v in environ.items() if not k.startswith("SHRIMP_")}


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def shape_args(shape, size=None):
    return ["--app", shape["app"], "--mesh", shape["mesh"],
            "--ranks", str(shape["ranks"]),
            "--size", str(size or shape["size"]),
            "--iters", str(shape["iters"])]


class Driver:
    """Runs driver jobs, one process each, and keeps their spans."""

    def __init__(self, env, deadline):
        self.env = env
        self.deadline = deadline
        self.t0 = time.monotonic()
        self.spans = []

    def job(self, name, args):
        """Run one job. @return (result dict or None, problem or None)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None, "deadline reached before the run"
        start = time.monotonic()
        try:
            p = subprocess.run([str(BINARY)] + args, env=self.env,
                               capture_output=True, text=True,
                               timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"{name}: timed out after {timeout:.0f} s"
        end = time.monotonic()
        span = {"name": name, "start_s": start - self.t0,
                "end_s": end - self.t0, "children": []}
        self.spans.append(span)
        if p.returncode != 0:
            return None, (f"{name}: exit status {p.returncode}: "
                          f"{p.stderr.strip()[-300:]}")
        try:
            result = json.loads(p.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return None, f"{name}: no JSON result"
        span["children"] = result.pop("spans", [])
        span["result"] = {k: v for k, v in result.items()
                          if isinstance(v, (int, float))}
        # apps::warnIfDeadlocked reports stuck processes on stderr.
        if "deadlocked" in p.stderr:
            result["deadlocked"] = True
        return result, None

    def require(self, name, args):
        result, problem = self.job(name, args)
        if problem:
            raise BenchError(problem)
        return result

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def run_problems(run, expected_checksum, reference):
    """Why one workload run failed: a crash, a deadlock, a wrong answer,
    or a simulated result that differs from the reference run."""
    if run.get("deadlocked"):
        return ["deadlocked processes"]
    problems = []
    if run["checksum"] != expected_checksum:
        problems.append(f"checksum {run['checksum']} != oracle "
                        f"{expected_checksum}")
    if reference is not None:
        for key in ("digest", "sim_time_ps", "events", "fiber_switches"):
            if run[key] != reference[key]:
                problems.append(f"{key} {run[key]} differs from the "
                                f"first run's {reference[key]}")
        if run["counters"] != reference["counters"]:
            problems.append("simulated counters differ from the first run")
    return problems


class Tally:
    """Workload runs attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, run, problem, expected, reference):
        self.attempted += 1
        problems = [problem] if run is None else run_problems(
            run, expected, reference)
        if problems:
            self.failed += 1
            log("run failed: " + "; ".join(problems))
            return False
        return True


def median_wall(runs):
    return median(r["wall_s"] for r in runs)


def middle_mean(values):
    """The mean of the middle half of @p values. Over the 5 to 12 runs
    of one benchmark run it is steadier than the median, and as blind
    to the slowest and the fastest quarter."""
    v = sorted(values)
    k = len(v) // 4
    return sum(v[k:len(v) - k]) / (len(v) - 2 * k)


def end_to_end(runs, setup_times):
    """Host times are scaled by each run's speed factor, so that a shared
    host that slows down between runs does not read as a slower
    program."""
    return {
        "wall_s": middle_mean(r["wall_s"] * r["speed"] for r in runs),
        "setup_s": median(setup_times),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
        "sim_time_ms": runs[0]["sim_time_ps"] / 1e9,
    }


def per_layer(runs, probe, traced, causal):
    """Per-layer metrics from the untraced runs' counters and host
    accounting, the probes, the traced run's packet-stage means and the
    causal run's critical path."""
    ref = runs[0]
    wall = median_wall(runs)
    c = ref["counters"]
    m = {}
    for name, key in COUNTERS.items():
        v = c.get(key, 0.0)
        m[name] = v / 1e9 if key.endswith("_ps") else v
    m["sim.events"] = ref["events"]
    m["sim.fiber_switches"] = ref["fiber_switches"]
    m["sim.host_ns_per_event"] = wall * 1e9 / ref["events"]
    m["sim.event_ns"] = probe["event_ns"]
    m["sim.fiber_switch_ns"] = probe["fiber_switch_ns"]
    m["mesh.send_ns"] = probe["mesh_send_ns"]
    m["core.vmmc_send_ns"] = probe["vmmc_send_ns"]
    m["msg.nx_crecv_ns"] = probe["nx_crecv_ns"]
    m["sim.host_s_est"] = (ref["events"] * probe["event_ns"] +
                           ref["fiber_switches"] *
                           probe["fiber_switch_ns"]) / 1e9
    m["mesh.host_s_est"] = m["mesh.packets"] * probe["mesh_send_ns"] / 1e9
    m["core.host_s_est"] = (m["core.vmmc_messages"] *
                            probe["vmmc_send_ns"] / 1e9)
    m["msg.host_s_est"] = m["msg.nx_sends"] * probe["nx_crecv_ns"] / 1e9
    m["node.minor_faults"] = median(r["minor_faults"] for r in runs)
    m["node.user_s"] = median(r["user_s"] for r in runs)
    m["node.sys_s"] = median(r["sys_s"] for r in runs)
    m["node.calib_ms"] = median(r["calib_s"] for r in runs) * 1e3
    for name, cat in TIME_CATEGORIES.items():
        m[name] = ref["time_ps"][cat] / 1e9
    m["apps.host_residual_s"] = wall - sum(
        m[f"{layer}.host_s_est"] for layer in ("sim", "mesh", "core", "msg"))
    for name, stage in STAGES.items():
        m[name] = traced["stage_mean_us"][stage]
    for layer in CP_LAYERS:
        m[f"trace.cp.{layer}_ms"] = causal["cp_ps"].get(layer, 0.0) / 1e9
    m["trace.overhead_pct"] = (
        traced["wall_s"] / wall - 1) * 100
    return m


def measure(workload, shape, seed, seconds, trace, driver, tally):
    oracle_args = shape_args(shape) + ["--seed", str(seed)]
    expected = driver.require("oracle", ["oracle"] + oracle_args)["checksum"]

    # Untraced runs, a fresh process each, for --seconds seconds. A
    # set-up job precedes each run, so the set-up samples are spread
    # over the run and over several processes' allocator states. A
    # calib job before the first run and after each gauges the host's
    # speed; the set-up and run between two of them are scaled by
    # REFERENCE_CALIB_S over the mean of the two.
    setup_times = []
    runs = []
    reference = None
    attempts = 0
    start = time.monotonic()
    calib = driver.require("calib", ["calib"])["calib_s"]
    while True:
        attempts += 1
        setups = driver.require(
            "setup", ["setup", "--mesh", shape["mesh"],
                      "--reps", str(SETUP_REPS)])["setup_s"]
        run, problem = driver.job("run", ["run"] + oracle_args)
        before, calib = calib, driver.require("calib", ["calib"])["calib_s"]
        speed = REFERENCE_CALIB_S * 2 / (before + calib)
        setup_times += [s * speed for s in setups]
        if tally.check(run, problem, expected, reference):
            runs.append(dict(run, speed=speed, calib_s=(before + calib) / 2))
            reference = reference or run
        elif run is None:
            break  # a crash or a timeout: do not burn the deadline
        elapsed = time.monotonic() - start
        if elapsed + elapsed / attempts > seconds:
            break
    if not runs:
        raise BenchError(f"{workload}: no run succeeded")
    if not trace:
        return end_to_end(runs, setup_times)

    probe = driver.require("probe", ["probe", "--mesh", shape["mesh"],
                                     "--ranks", str(shape["ranks"])])
    OUT.mkdir(parents=True, exist_ok=True)
    causal_log = str(OUT / f"causal-{os.getpid()}.jsonl")
    causal_size = shape.get("causal_size")
    traced_args = ["run"] + oracle_args + ["--lifecycle"]
    if not causal_size:
        traced_args += ["--causal", causal_log]
    # A traced run that gives a wrong answer still counts as failed; one
    # that gives none leaves nothing to report.
    traced, problem = driver.job("run.traced", traced_args)
    tally.check(traced, problem, expected, reference)
    causal = traced
    if causal_size and traced:
        small_args = shape_args(shape, causal_size) + ["--seed", str(seed)]
        small_expected = driver.require("oracle.causal",
                                        ["oracle"] + small_args)["checksum"]
        small, problem = driver.job("run.causal_size", ["run"] + small_args)
        tally.check(small, problem, small_expected, None)
        causal, problem = driver.job(
            "run.causal", ["run"] + small_args + ["--causal", causal_log])
        tally.check(causal, problem, small_expected, small)
    if traced is None or causal is None:
        raise BenchError(f"{workload}: a traced run produced no result")
    return per_layer(runs, probe, traced, causal)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help="small: reduced shapes for the benchmark's tests")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    shape = (SMALL if args.scale == "small" else WORKLOADS)[args.workload]
    try:
        build()
        driver = Driver(scrubbed_env(), time.monotonic() + DEADLINE_S)
        tally = Tally()
        try:
            values = measure(args.workload, shape, args.seed, args.seconds,
                             args.trace, driver, tally)
        finally:
            driver.write_spans(OUT / (f"{args.workload}-seed{args.seed}-"
                                      f"trace{args.trace}.spans.jsonl"))
    except BenchError as e:
        log(str(e))
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
