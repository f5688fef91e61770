#!/usr/bin/env python3
"""Benchmark runner for the SBFT reproduction.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

It builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library from src/) into $CARGO_TARGET_DIR or .bench_build, then runs the
workload binary as separate processes, one measured run of the workload each,
until --seconds have passed:

  --trace 0  untraced runs; prints every end_to_end metric of BENCHMARK.json.
             Simulated-plane metrics must be identical across the runs (same
             seed); host metrics are their medians. setup_s is the median over
             at least three set-ups (extra set-up-only processes if needed).
  --trace 1  pairs of an untraced and a traced run; the simulated plane must be
             bit-identical between the two, and the traced run's layer
             attribution gives every per_layer metric of BENCHMARK.json.

Every run must pass the correctness gate (verified replies, agreement, state
and reply-cache audits, the trace checker on traced runs). On any failure the
runner prints the reason on stderr and exits 1 without a result line. The last
line of stdout is the result object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEADLINE_S = 160  # whole invocation, build excluded
MIN_SETUPS = 3


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(target):
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no sources to build: {ROOT / 'src'} is missing")
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr)
    return out / target


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(binary, args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a run could start")
    try:
        proc = subprocess.run([str(binary), *args], capture_output=True, text=True,
                              timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"run {' '.join(args)} exceeded the deadline")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"run {' '.join(args)} printed nothing (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result.get("correct"):
        raise BenchError(f"correctness gate failed: {' '.join(args)}: "
                         f"{result.get('errors')} (exit {proc.returncode})")
    return result


def same_sim(a, b, what):
    if a["sim_digest"] != b["sim_digest"] or a["sim"] != b["sim"]:
        raise BenchError(f"simulated plane differs between {what}: "
                         f"{a['sim_digest']} {a['sim']} vs {b['sim_digest']} {b['sim']}")


def measure(binary, opts, deadline):
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]
    start = time.monotonic()
    untraced, traced = [], []
    while True:
        untraced.append(run_child(binary, [*common, "--trace", "0"], deadline))
        same_sim(untraced[0], untraced[-1], "two untraced runs of one seed")
        if opts.trace:
            traced.append(run_child(binary, [*common, "--trace", "1"], deadline))
            same_sim(untraced[-1], traced[-1], "the traced and untraced runs")
        elapsed = time.monotonic() - start
        per_round = elapsed / len(untraced)
        if elapsed + per_round > opts.seconds:
            break
    return untraced, traced


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()

    try:
        if opts.self_test:
            binary = build("perfbench_selftest")
            return subprocess.run([str(binary)], cwd=ROOT).returncode
        if not opts.workload:
            raise BenchError("--workload is required")
        spec = declared()
        binary = build("perfbench_workload")
        deadline = time.monotonic() + DEADLINE_S
        untraced, traced = measure(binary, opts, deadline)

        first = untraced[0]
        if opts.trace:
            values = dict(traced[0]["layer"])
            cpu_untraced = statistics.median(r["host"]["host_cpu_s"] for r in untraced)
            cpu_traced = statistics.median(r["host"]["host_cpu_s"] for r in traced)
            values["host.trace_overhead"] = cpu_traced / cpu_untraced - 1
            wanted = spec["per_layer"]
        else:
            setups = [r["host"]["setup_s"] for r in untraced]
            while len(setups) < MIN_SETUPS:
                setup = run_child(binary, ["--workload", opts.workload, "--seed",
                                           str(opts.seed), "--setup-only", "1"], deadline)
                setups.append(setup["host"]["setup_s"])
            values = dict(first["sim"])
            values["setup_s"] = statistics.median(setups)
            for name in ("host_cpu_s", "peak_rss_mb"):
                values[name] = statistics.median(r["host"][name] for r in untraced)
            wanted = spec["end_to_end"]

        metrics = {}
        for m in wanted:
            if m["name"] not in values:
                raise BenchError(f"run did not report {m['name']}")
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        log(f"{opts.workload} seed {opts.seed}: {len(untraced)} untraced and "
            f"{len(traced)} traced runs")
        print(json.dumps({"correct": True, "attempted": first["attempted"],
                          "failed": first["failed"], "metrics": metrics}))
        return 0
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError) as e:
        log(f"failed: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
