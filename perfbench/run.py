#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload relay_cpu --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. The protocol libraries are built from ./src
together with the benchmark driver (perfbench/CMakeLists.txt) into
.bench_build/perfbench, in Release mode; later runs rebuild incrementally.
The driver's report goes to standard output and its last line is the JSON
result. The exit status is non-zero when the build fails, a correctness
check fails or the run does not finish in time.
"""
import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("relay_cpu", "path_udp", "path_sim")
RUN_TIMEOUT_S = 160


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no protocol sources (src/CMakeLists.txt) next to perfbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    binary = os.path.join(build_dir, "alpha_perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    if not os.path.isfile(binary):
        fail("build produced no binary")
    return binary


def run_one(binary, root, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: no JSON result line (exit {proc.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed result line")
    if proc.returncode != 0 or result["correct"] is not True:
        print(f"perfbench: {workload}: correctness check failed",
              file=sys.stderr)
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default="",
                        help="self-test fault: forged-forwarded | drop-message")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    t0 = time.monotonic()
    binary = build(root)
    print(f"perfbench: build ready in {time.monotonic() - t0:.1f} s",
          file=sys.stderr)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        ok = run_one(binary, root, workload, args) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
