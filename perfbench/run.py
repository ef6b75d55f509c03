#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root and is reused by later runs. The last line of standard output
is the run's result object (see perfbench/README.md). The exit code is the
benchmark's: 0 when every correctness check passed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; stops it on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out: {' '.join(map(str, cmd))}")


def build(target):
    if not (ROOT / "src" / "sim" / "simulator.hpp").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    cache = out / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        shutil.rmtree(out)  # configured for another checkout; it would build that one's sources
    if not cache.is_file():
        if run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_checked(["cmake", "--build", str(out), "--target", target, "-j", jobs],
                   max(1.0, deadline - time.monotonic())) != 0:
        fail("build failed")
    return out / target


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the tests of the benchmark's own helpers")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([str(build("perfbench_selftest"))]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")

    binary = build("perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{args.workload} ran longer than {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != declared:
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(declared - set(result['metrics']))}, "
             f"undeclared {sorted(set(result['metrics']) - declared)}")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
