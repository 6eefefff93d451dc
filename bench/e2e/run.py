#!/usr/bin/env python3
"""Builds tsce_bench from source and runs one workload.

Usage, from the repository root:

    python3 bench/e2e/run.py --workload s1_loaded --seed 2005 --seconds 28 --trace 0

The first call configures the root project, with its tests, tools, examples
and other benchmarks off and bench/e2e added by project_hook.cmake, into
.bench_build/ at the repository root, and builds the tsce_bench target; later
calls only rebuild what changed.  Build output goes to stderr, so the last
line of standard output is the benchmark's JSON result.  A traced run
(--trace 1) also writes a Chrome trace-event file,
.bench_build/trace-<workload>.json.  The exit code is the benchmark's, or
non-zero when the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "tsce_bench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("run.py: the repository's CMakeLists.txt is missing under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", ROOT, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                        "-DTSCE_BUILD_TESTS=OFF", "-DTSCE_BUILD_BENCH=OFF",
                        "-DTSCE_BUILD_EXAMPLES=OFF", "-DTSCE_BUILD_TOOLS=OFF",
                        "-DCMAKE_PROJECT_tsce_alloc_INCLUDE="
                        + os.path.join(HERE, "project_hook.cmake")],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "tsce_bench", "-j4"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("run.py: build failed: %s" % err)
    command = [BINARY, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(BUILD, "trace-%s.json" % args.workload)]
    sys.stdout.flush()
    # Stop the benchmark too if this script is interrupted or terminated.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    child = subprocess.Popen(command)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
