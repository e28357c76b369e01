#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Shows that the command fails when it should:
  * relay_cpu with one forged frame forwarded (an authentic S2 the checks
    are told is forged) exits non-zero and reports correct=false;
  * path_udp and path_sim with one delivered message forgotten exit
    non-zero and report correct=false;
  * a clean short run of each workload exits 0 with correct=true;
  * a directory holding only BENCHMARK.json and perfbench/ (no sources to
    build) exits non-zero without printing a result.
Run from the repository root; takes about a minute after the first build.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def expect(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}", flush=True)
    return ok


def main():
    ok = True
    base = ["--seed", "7", "--seconds", "2", "--trace", "0"]
    for workload in ("relay_cpu", "path_udp", "path_sim"):
        code, result = run(["--workload", workload] + base)
        ok &= expect(f"{workload} clean run passes",
                     code == 0 and result is not None and result["correct"])
    code, result = run(["--workload", "relay_cpu", "--inject",
                        "forged-forwarded"] + base)
    ok &= expect("relay_cpu fails when a forged frame is forwarded",
                 code != 0 and result is not None and not result["correct"]
                 and result["failed"] >= 1)
    for workload in ("path_udp", "path_sim"):
        code, result = run(["--workload", workload, "--inject",
                            "drop-message"] + base)
        ok &= expect(f"{workload} fails when one message is missing",
                     code != 0 and result is not None
                     and not result["correct"] and result["failed"] >= 1)

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    code, result = run(["--workload", "relay_cpu"] + base, cwd=bare)
    ok &= expect("fails without printing a result when there is nothing to "
                 "build", code != 0 and result is None)
    shutil.rmtree(bare, ignore_errors=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
