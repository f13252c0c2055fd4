#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark binary is configured and
built (Release) from perfbench/CMakeLists.txt into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only re-check the build.  Build
output goes to stderr.  The binary's scratch files live in a fresh directory
under the build directory and are removed before it exits; traced runs
leave their spans in <build dir>/spans/.

The last line of stdout is the result JSON: {"correct", "attempted",
"failed", "metrics"}.  The exit code is non-zero when the build fails or
any correctness check fails.  See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_run", "parkinglot", "fig3_grid", "sweepd_jobs"]


def build(build_root):
    """Configure once and build the perfbench target; returns its path."""
    cmake_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.call([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", build_root,
    ])


if __name__ == "__main__":
    sys.exit(main())
