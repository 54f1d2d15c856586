#!/usr/bin/env python3
"""Builds the spiderbench harness from this checkout and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload study-disk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The harness (perfbench/CMakeLists.txt) compiles the SpiderStudy libraries
from ./src in Release mode under .bench_build/, then runs the workload. All
inputs, scratch files and traces stay under .bench_build/. The last line of
standard output is the JSON result; build output goes to standard error.
Any build or run failure exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
CMAKE_DIR = BUILD_ROOT / "spiderbench"
BINARY = CMAKE_DIR / "spiderbench"


def build() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no SpiderStudy sources next to perfbench/")
    configure = ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(CMAKE_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the traced run's proxies change "
                             "no output, then exit")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    work = BUILD_ROOT / "work"
    if args.self_test:
        cmd = [str(BINARY), "--self-test", f"--seed={args.seed or 1}",
               f"--work={work}"]
    else:
        cmd = [str(BINARY), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--work={work}"]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
