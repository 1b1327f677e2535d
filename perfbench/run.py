#!/usr/bin/env python3
"""Build the syncpat benchmark driver from source and run one workload.

usage (from the root of a syncpat checkout):

    python3 perfbench/run.py --workload paper|wide-bus|sparse-observed \
        [--seed N] [--seconds S] [--trace 0|1]

The first call configures and builds perfbench/CMakeLists.txt (the syncpat
library from src/ plus perfbench/driver.cpp) into .bench_build/; later calls
rebuild only what changed.  Build output goes to standard error.  The
driver's report goes to standard output, whose last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A traced run (--trace 1) also
writes its spans, as Chrome trace JSON, to .bench_build/spans/.

Exits non-zero, printing no result, when the build fails (for example outside
a syncpat checkout) or the driver fails.
"""
import argparse
import fcntl
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH_DIR = pathlib.Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "perfbench_driver"
WORKLOADS = ("paper", "wide-bus", "sparse-observed")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 175  # the driver's own work; the build is not counted


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quietly(cmd):
    """Runs a build step with its output on stderr; fails on a non-zero exit."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT, check=False)
    if result.returncode != 0:
        fail(f"build step failed ({result.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("src/CMakeLists.txt not found: run from the root of a syncpat "
             "checkout")
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not (BUILD / "CMakeCache.txt").is_file():
            run_quietly(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        run_quietly(["cmake", "--build", str(BUILD), "--target",
                     "perfbench_driver", "-j", BUILD_JOBS])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        help="workload seed; default: each profile's own")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build()
    cmd = [str(DRIVER), "--workload", args.workload, "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        seed = "calibrated" if args.seed is None else str(args.seed)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{seed}.json")]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("driver printed no JSON result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys: {sorted(result)}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
