#!/usr/bin/env python3
"""Build and run the DPM workspace benchmark.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that builds the repository's crates from
source in release mode, into $CARGO_TARGET_DIR when it is set and
perfbench/target otherwise. Build output goes to standard error; the
benchmark's report, ending in one JSON result line, goes to standard
output. The exit code is the benchmark's, or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# A run measures for at most 60 s plus set-up; never let one hang.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(os.path.abspath(target), "release", "dpm-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
