#!/usr/bin/env python3
"""Builds spindle_benchmark from this checkout and runs one workload.

Run from the repository root:

    python3 benchmark/run.py --workload bulk_10k --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/benchmark (default .bench_build/benchmark)
inside the checkout. The program's metric lines are echoed, and the last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"},
where metrics are BENCHMARK.json's end_to_end metrics (--trace 0) or its
per_layer metrics (--trace 1). Exits non-zero, printing no result, when the
program cannot be built or run.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(build_dir):
    """Configure once, then bring the binary up to date. A lock keeps
    concurrent invocations from building over each other."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target",
                      "spindle_benchmark", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in (0, 3600]")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "benchmark")
    build(build_dir)

    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(build_dir, "spindle_benchmark"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", out]
    if args.trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    if not os.path.exists(out):
        fail(f"{args.workload} exited with {proc.returncode} and wrote no result")
    with open(out) as f:
        result = json.load(f)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        key = "metrics." + m["name"]
        if key not in result:
            fail(f"{args.workload} did not report {m['name']}")
        if result.get("units." + m["name"]) != m["unit"]:
            fail(f"{m['name']}: unit {result.get('units.' + m['name'])} "
                 f"does not match BENCHMARK.json's {m['unit']}")
        metrics[m["name"]] = {"value": result[key], "unit": m["unit"]}
    print(json.dumps({
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
