#!/usr/bin/env python3
"""Build and run the jtam end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper|ensemble|ensemble_par \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

The first call configures and builds the simulator library and the
benchmark in Release under .bench_build/ (later calls only rebuild what
changed).  The benchmark's last line of standard output is its JSON
result; build output goes to standard error.  With --trace 1 the spans of
the run are written to .bench_out/spans-<workload>-<seed>.json.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=lambda v: int(v, 0), default=None)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    build()
    if args.self_test:
        cmd = [os.path.join(BUILD, "perfbench_selftest")]
    else:
        cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.trace:
            os.makedirs(OUT, exist_ok=True)
            seed = "default" if args.seed is None else str(args.seed)
            cmd += ["--spans", os.path.join(
                OUT, "spans-%s-%s.json" % (args.workload, seed))]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
