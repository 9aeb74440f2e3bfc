#!/usr/bin/env python3
"""Build the MPass benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark crate (perfbench/Cargo.toml) is built in release mode into
$CARGO_TARGET_DIR (default: perfbench/target). Cargo's output goes to
stderr; the benchmark's own stdout passes through unchanged, so its last
line is the JSON result. The exit code is the build's when the build
fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        built = subprocess.run(build, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: cannot build the benchmark: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return built.returncode or 1
    exe = os.path.join(target, "release", "mpass-perfbench")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: the benchmark ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
