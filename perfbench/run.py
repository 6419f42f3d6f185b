#!/usr/bin/env python3
"""Build and run the edfkit benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the library, the admission_server binary and the benchmark
program from the repository's sources into .bench_build/ (CMake, Ninja
when present), then runs one workload. The last line of standard output
is the run's JSON result; build output goes to standard error. Exit 0 on
a correct run, 1 when a decision or exact-verdict check failed, 2 on a
usage, build or runtime error.

The benchmark writes only under .bench_build/ and, with --spans-out, to
the file named there.
"""

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["wire-light", "wire-dense-durable", "wire-global-m8",
             "offline-exact"]


def run_timeout_s(seconds):
    """A hung run is killed. The slowest (a traced wire-global-m8 run)
    takes ~3x --seconds plus a few seconds of set-up; the build before
    it is not counted."""
    return 60 + 7 * seconds


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def die_with_parent():
    """Child setup: SIGKILL the child if this script dies first."""
    pr_set_pdeathsig = 1
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, signal.SIGKILL)


def build(targets):
    for needed in ("src", os.path.join("examples", "admission_server.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("cannot build: %s is missing from %s" % (needed, ROOT))
    if shutil.which("cmake") is None:
        die("cannot build: cmake is not installed")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")


def main():
    parser = argparse.ArgumentParser(
        description="Run one edfkit benchmark workload and print its "
                    "metrics; the last stdout line is the JSON result.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed: the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: a traced run printing per-layer metrics")
    parser.add_argument("--spans-out", metavar="FILE",
                        help="traced run: write its spans here (JSON lines)")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own checks")
    args = parser.parse_args()

    if args.self_test:
        build(["perfbench_selftest"])
        sys.exit(subprocess.run(
            [os.path.join(BUILD, "perfbench_selftest")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build(["perfbench", "admission_server"])
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--server", os.path.join(BUILD, "admission_server"),
           "--work-dir", os.path.join(BUILD, "work")]
    if args.spans_out:
        cmd += ["--spans-out", os.path.abspath(args.spans_out)]
    sys.stdout.flush()
    child = subprocess.Popen(cmd, preexec_fn=die_with_parent)
    limit = run_timeout_s(args.seconds)
    try:
        sys.exit(child.wait(timeout=limit))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        die("run exceeded %.0f s" % limit)


if __name__ == "__main__":
    main()
