#!/usr/bin/env python3
"""Builds the fielddb benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library and the benchmark program are compiled from source
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench under the repository root; build output goes to
stderr. The program's scratch database files live in a temporary directory
under the same build root and are removed afterwards. The last line of stdout
is the program's JSON result; on any failure nothing is printed there and the
exit code is non-zero.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fractal_cold", "terrain_warm", "terrain_mixed")
BUILD_TIMEOUT_S = 840
# The program measures for --seconds; set-up and answer checks add well under
# a minute on a quiet machine.
RUN_OVERHEAD_S = 100


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    out = sys.stderr
    if subprocess.run(configure, stdout=out, stderr=out,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        # A cache left by a checkout at another path cannot be reused.
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            return False
        shutil.rmtree(build_dir)
        if subprocess.run(configure, stdout=out, stderr=out,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    return subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=out, stderr=out,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    os.makedirs(root, exist_ok=True)
    try:
        if not build(build_dir):
            print("benchmark build failed", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print("benchmark build timed out", file=sys.stderr)
        return 1

    data_dir = tempfile.mkdtemp(prefix="data-", dir=root)
    try:
        cmd = [os.path.join(build_dir, "fielddb_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--dir", data_dir]
        try:
            return subprocess.run(
                cmd, timeout=args.seconds + RUN_OVERHEAD_S).returncode
        except subprocess.TimeoutExpired:
            print("benchmark run timed out", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
