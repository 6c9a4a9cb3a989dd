#!/usr/bin/env python3
"""Builds gqzoo's end-to-end benchmark from this checkout and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The Release build goes to $CARGO_TARGET_DIR
(default `.bench_build`); the first run configures and compiles (a few
minutes), later runs only check that the build is current. Build output goes
to stderr, so the benchmark's own report, ending with one JSON line, is all
that reaches stdout. Workloads and metrics are described in BENCHMARK.json
and perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: gqzoo sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "gqzoo_perfbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 2
    binary = os.path.join(build, "gqzoo_perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--workdir",
                           os.path.join(build, "work")]).returncode


if __name__ == "__main__":
    sys.exit(main())
