#!/usr/bin/env python3
"""Build perfbench from this checkout's sources and run one workload.

Usage, from the root of the checkout:
    python3 perfbench/run.py --workload gmm_paper --seed 0 --seconds 10 --trace 0

The first run configures and builds perfbench (Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only rebuild what changed. Build output goes to stderr, so the last line
on stdout is the benchmark's JSON result. Exits non-zero, without a
result, when the sources are missing, the build fails or the run fails.
"""
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no ApproxIt sources next to perfbench/", file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=root, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    sys.stdout.flush()
    try:
        return subprocess.run([os.path.join(build, "perfbench")] + sys.argv[1:],
                              cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
