#!/usr/bin/env python3
"""Benchmark of the MPAS shallow-water reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload model_l7 --seed 1 --seconds 30 --trace 0

It builds mpas_bench from ../src (optimized, into .bench_build/), runs
mpas_bench's self-tests, runs the workload in a fresh working directory with
an empty mesh cache and a scrubbed environment, checks the outputs, and
prints every metric by name with its unit. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, from a separate traced run.

The exit code is 0 only when every output check passed.
"""
import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
RUN_ROOT = os.path.join(ROOT, ".bench_run")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "mpas_bench")

WORKLOADS = ("model_l7", "sessions_l3l4", "ranks_l6")
# Set-ups per run; setup_s is their median. The first is the measured run's
# own, the rest are set-up-only processes, each in its own empty directory.
SETUPS = {"model_l7": 5, "ranks_l6": 5, "sessions_l3l4": 7}
# Wall-clock budget of one run after the build, in seconds.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 880.0


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure, then bring mpas_bench up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("model sources not found: %s/src" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compiler temporaries stay inside
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    deadline = time.monotonic() + BUILD_BUDGET_S
    with open(os.path.join(ROOT, ".bench_build", "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configure every time (quick once cached), so that a changed build
        # file is picked up even in an existing build directory.
        steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD_DIR, "--target", "mpas_bench", "-j", jobs]]
        with open(log_path, "a") as out:
            for cmd in steps:
                left = deadline - time.monotonic()
                try:
                    rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                        env=env, timeout=max(1.0, left)).returncode
                except subprocess.TimeoutExpired:
                    raise BenchError("build timed out; see %s" % log_path)
                if rc != 0:
                    with open(log_path) as f:
                        sys.stderr.write("".join(f.readlines()[-40:]))
                    raise BenchError("build failed: %s" % " ".join(cmd))


def clean_env(mesh_cache):
    """The environment minus every MPAS_* knob, plus a private mesh cache.

    glibc gives threads their own malloc arenas, up to 8 per core, so peak
    RSS would depend on thread timing and the core count; one arena makes
    it a property of the program's allocations.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MPAS_") and not k.startswith("MALLOC_")}
    env["MPAS_MESH_CACHE"] = mesh_cache
    env["MALLOC_ARENA_MAX"] = "1"
    return env


class Runner:
    """Launches mpas_bench processes, each in its own empty directory."""

    def __init__(self, run_dir, deadline):
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0

    def launch(self, mode, *flags):
        self.count += 1
        base = os.path.join(self.run_dir, "p%d" % self.count)
        work = os.path.join(base, "work")
        cache = os.path.join(base, "mesh_cache")
        os.makedirs(work)
        os.makedirs(cache)
        out_path = os.path.join(work, "outcome.json")
        cmd = [BINARY, mode, "--dir", work] + list(flags)
        if mode == "run":
            cmd += ["--out", out_path]
        left = self.deadline - time.monotonic()
        if left <= 1:
            raise BenchError("out of time before: %s" % " ".join(cmd))
        try:
            proc = subprocess.run(cmd, cwd=work, env=clean_env(cache),
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("timed out: %s" % " ".join(cmd))
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        if mode != "run":
            if proc.returncode != 0:
                raise BenchError("%s exited %d" % (mode, proc.returncode))
            return json.loads(proc.stdout.strip().splitlines()[-1]), work
        if proc.returncode != 0:
            raise BenchError("mpas_bench exited %d: %s" % (proc.returncode, " ".join(cmd)))
        with open(out_path) as f:
            return json.load(f), work


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fmt(value):
    return "%.6g" % value


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = os.path.join(RUN_ROOT, "%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        return measure(args, spec, Runner(run_dir, deadline))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, spec, runner):
    selftest, _ = runner.launch("selftest", "--seed", str(args.seed))
    host_probe_ms = selftest["host_probe_ms"]

    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        for _ in range(SETUPS[args.workload] - 1):
            extra, _ = runner.launch("run", *flags, "--setup-only", "1")
            setups.append(extra["setup_s"])
    out, work = runner.launch("run", *flags, "--setup-only", "0")
    setups.insert(0, out["setup_s"])

    checks = out["checks"]
    correct = selftest["selftest_failures"] == 0 and all(c["ok"] for c in checks)
    attempted = int(out["attempted"])
    failed = int(out["failed"])
    op = "session" if args.workload == "sessions_l3l4" else "step"

    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    for c in checks:
        print("check %-22s %s  %s" % (c["name"], "ok" if c["ok"] else "FAILED", c["detail"]))
    diag = out["diag"]
    print("diag host.probe_ms = %s ms (fixed FP loop before the workload)" % fmt(host_probe_ms))
    for name in ("health.replans", "drift.alarms", "gen.late_ms_p99"):
        value = fmt(diag[name]) if name in diag else "n/a (not on this workload's path)"
        print("diag %s = %s" % (name, value))

    # Keep the raw outcome (every latency sample) and the spans for later
    # inspection of slow runs; the run directory itself is deleted.
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s_seed%d_trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, "outcome_%s.json" % tag), "w") as f:
        json.dump(out, f)
    spans = os.path.join(work, "spans.json")
    if os.path.isfile(spans):
        shutil.copyfile(spans, os.path.join(OUT_DIR, "spans_%s.json" % tag))

    if args.trace:
        layer = dict(out["layer"], **{"host.probe_ms": host_probe_ms})
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] not in layer or layer[m["name"]] is None:
                raise BenchError("traced run did not produce %s" % m["name"])
            metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
            print("%s = %s %s" % (m["name"], fmt(layer[m["name"]]), m["unit"]))
    else:
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out["peak_rss_mb"],
            "latency_ms_p50": out["latency_ms_p50"],
            "latency_ms_p90": out["latency_ms_p90"],
            "success_frac": 1.0 - failed / attempted,
        }
        notes = {
            "setup_s": "median of %d set-ups: %s" % (
                len(setups), ", ".join(fmt(s) for s in setups)),
            "latency_ms_p50": "%s_ms_p50, n=%d" % (op, out["samples"]),
            "latency_ms_p90": "%s_ms_p90, n=%d, %d beyond; %s_ms_p99 = %s, %d beyond" % (
                op, out["samples"], out["beyond_p90"], op,
                fmt(out["latency_ms_p99"]), out["beyond_p99"]),
            "success_frac": "failed_frac = %s (%d of %d)" % (
                fmt(failed / attempted), failed, attempted),
            "peak_rss_mb": "at the end of the timed window",
        }
        metrics = {}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print("%s = %s %s  (%s)" % (m["name"], fmt(values[m["name"]]),
                                         m["unit"], notes[m["name"]]))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("perfbench: %s" % e)
        sys.exit(2)
