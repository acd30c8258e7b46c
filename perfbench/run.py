#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The build (CMake, Release) goes to
$CARGO_TARGET_DIR/perfbench when that variable is set, else to
.bench_build/perfbench; an up-to-date build costs a second or two.  Build
output goes to stderr so that the last stdout line stays the benchmark's
JSON result.  Exits non-zero without a result when the build fails, e.g.
when the library sources under src/ are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build() -> str:
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench build failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench")


def main() -> int:
    binary = build()
    return subprocess.run([binary] + sys.argv[1:], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
