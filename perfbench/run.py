#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

    python3 perfbench/run.py --workload <paper_trace|sharded_reuse|tcp_flood>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The library (src/) and the benchmark
program (perfbench/src/) are compiled in Release mode into .bench_build/ at
the checkout root; later runs rebuild only what changed. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. The
exit code is the benchmark's, or non-zero when the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configure (once) and build the perfbench binary; return its path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no library sources (src/) in this checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    binary = build()
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
