#!/usr/bin/env python3
"""Build and run the whole-stack benchmark (README.md).

    python3 stackbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first call builds delorean_bench
from source into .bench_build/stackbench; every call runs it inside a
scratch directory under .bench_build that is removed afterwards, and
passes its output through, so the last line on stdout is the result
JSON. A traced run also leaves its Chrome trace in .bench_build/traces.
Without the repository's sources next to stackbench/ the script exits
non-zero and prints no result.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def build():
    """Configure and build delorean_bench; return the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: no sources to build in {ROOT}")
    build_dir = BUILD / "stackbench"
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "delorean_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "delorean_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    work = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--chrome",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        code = subprocess.run(command, cwd=work).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
