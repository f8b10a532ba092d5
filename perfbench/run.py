#!/usr/bin/env python3
"""Builds the GBooster benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload offload-g1 [--seed 20170605] \
        [--seconds 30] [--trace 0|1]

The Rust package in this directory is built in release mode (into
$CARGO_TARGET_DIR, default .bench_build at the repository root), then
its binary runs the workload in a process of its own. Build output goes
to standard error. The binary's report is passed through; its last line,
one JSON object with the keys correct, attempted, failed and metrics, is
checked and printed as this script's last line. Any failure exits with
a non-zero code and prints no result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=20170605)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)  # no-op for an absolute path
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: build: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "gbooster-perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: run: {e}", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"error: {args.workload} exited with {run.returncode}",
              file=sys.stderr)
        return run.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        print(f"error: last line is not JSON: {e}", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        print(f"error: malformed result keys {sorted(result)}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
