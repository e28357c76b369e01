#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload path_udp --seeds 1-10 [--trace 0]

For every metric of the JSON result line it prints the median over the
runs and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of that median, next to the bound
BENCHMARK.json gives the metric. Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: FAILED", file=sys.stderr)
            sys.exit(1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"{'metric':40s} {'median':>14s} {'iqr/med':>9s} {'bound':>7s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:40s} {med:14.6g} {spread:9.4f} "
              f"{'' if bound is None else bound:>7}{flag}")


if __name__ == "__main__":
    main()
