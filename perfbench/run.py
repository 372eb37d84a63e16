#!/usr/bin/env python3
"""Build and run the multiscatter packet benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload ident_mix --seed 1 --seconds 8 --trace 0

Workloads: ident_mix, overlay_rx, fleet_contention, link_trace, or `all`
to run each in turn.  The `perfbench` binary is built from ../src with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the
first run builds it, later runs only check it is up to date.  Build
output goes to stderr, so the last stdout line is always the result
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is
non-zero when the build fails, an output check fails, or the binary
prints no valid result.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["ident_mix", "overlay_rx", "fleet_contention", "link_trace"]
# A run takes --seconds of timed passes plus set-up repetitions and
# output checks, which take a few seconds; the margin bounds the latter.
RUN_MARGIN_S = 150
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build():
    """Configure (once) and build the binary; return its path or None."""
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "perfbench")


def valid_result(obj):
    return (isinstance(obj, dict)
            and set(obj) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(obj["attempted"], int) and obj["attempted"] >= 1
            and isinstance(obj["failed"], int)
            and isinstance(obj["metrics"], dict))


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload; echo its report to stdout; return (rc, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    timeout = seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {timeout} s",
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not valid_result(result):
        print(f"perfbench: {workload} printed no valid result "
              f"(exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 1

    if args.workload != "all":
        rc, result = run_one(binary, args.workload, args.seed, args.seconds,
                             args.trace)
        if result is not None:
            print(json.dumps(result))
        return rc

    # Every workload in turn; the final line merges them, with metric
    # names prefixed by their workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst_rc = 0
    for workload in WORKLOADS:
        rc, result = run_one(binary, workload, args.seed, args.seconds,
                             args.trace)
        worst_rc = worst_rc or rc
        if result is None:
            return rc or 1
        for name, metric in result["metrics"].items():
            print(f"  {workload:<17} {name:<34} {metric['value']:.6g} "
                  f"{metric['unit']}")
            merged["metrics"][f"{workload}.{name}"] = metric
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return worst_rc


if __name__ == "__main__":
    sys.exit(main())
