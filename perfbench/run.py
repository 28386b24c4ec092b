#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print its result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload epoch-sage --seed 1 --seconds 12 --trace 0

Builds perfbench/ (the library under src/ plus the benchmark program) into
$CARGO_TARGET_DIR, default .bench_build/, runs the checker self-test, then
runs the workload REPS times, each a fresh process that sets up once and
measures for seconds / REPS. Throughput, median latency and success
fraction are the mean over the repetitions (the repetitions measure equal
times, so this pools them); every other metric is their median, and
operation and check counts are summed. The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (the traced run also writes a Chrome
trace-event file per repetition under <build>/traces/). Per-layer metrics of a layer the
workload does not exercise read 0. Exits non-zero, without a result line,
when the build, the self-test or the run fails; exits 1 after the result
line when an output did not match the eager reference.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REPS = 3
# Pooled over the repetitions rather than taking their median: the tuner's
# pick differs between repetitions and moves these by up to 2x, and a
# median of three would jump between picks.
POOLED = {"ok_frac", "seeds_per_s", "loadgen.p50_ms"}
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(build_dir), "-j4", "--target", "perfbench",
           "perfbench_selftest"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_child(cmd):
    """Runs cmd to completion (or kills it at the timeout); returns (code, stdout)."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return None, ""
    return done.returncode, done.stdout


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(build_dir):
        log("build failed")
        return 1

    code, out = run_child([str(build_dir / "perfbench_selftest")])
    if code != 0:
        sys.stderr.write(out)
        log("checker self-test failed")
        return 1

    trace_dir = build_dir / "traces"
    trace_dir.mkdir(exist_ok=True)
    runs = []
    for rep in range(REPS):
        trace_file = trace_dir / f"{args.workload}-seed{args.seed}-rep{rep}.json"
        cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / REPS),
               "--trace", str(args.trace), "--trace-out", str(trace_file)]
        code, out = run_child(cmd)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            sys.stdout.write(out)
            log(f"workload {args.workload} failed (exit {code})")
            return 1
        for line in lines[:-1]:
            print(f"{line} [rep {rep}]")
        runs.append(json.loads(lines[-1]))

    metrics = {}
    for m in wanted:
        got = [r["metrics"].get(m["name"]) for r in runs]
        if None in got:
            if not args.trace:
                log(f"end-to-end metric {m['name']} missing")
                return 1
            got = [{"value": 0, "unit": m["unit"]}]  # layer not exercised here
        if any(g["unit"] != m["unit"] for g in got):
            log(f"metric {m['name']} measured in {got[0]['unit']}, declared {m['unit']}")
            return 1
        values = [g["value"] for g in got]
        pool = statistics.fmean if m["name"] in POOLED else statistics.median
        value = pool(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    total = {k: sum(r[k] for r in runs) for k in ("attempted", "failed", "checked", "mismatches")}
    print(f"# {args.workload}: checked={total['checked']} mismatches={total['mismatches']}")
    correct = total["checked"] > 0 and total["mismatches"] == 0
    print(json.dumps({"correct": correct, "attempted": total["attempted"],
                      "failed": total["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
