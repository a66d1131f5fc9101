#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --check-fold

The engine and bench_e2e are compiled by perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
rebuild only what changed. Build output goes to stderr, so the last line
of stdout is bench_e2e's result line. The exit code is bench_e2e's, or 1
when the build fails or the run exceeds its time limit.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=root).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    command = [os.path.join(build_dir, "bench_e2e"), *sys.argv[1:]]
    if "--check-fold" not in sys.argv[1:]:
        command += ["--spill-dir", build_dir]
    try:
        return subprocess.run(command, cwd=root,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
