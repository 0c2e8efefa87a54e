#!/usr/bin/env python3
"""Build and run the cell-grid benchmark from the repo root.

    python3 cellbench/run.py --workload fig18-sweep --seed 1 --seconds 30 --trace 0

Builds cellbench (a Go module of its own that imports the repo's
packages) into .bench_build/cellbench, with the Go build cache and
config kept there too, then runs one measurement. The last line of
standard output is the JSON result. Exits non-zero without a result
when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "cellbench")

# A run measures for --seconds and may overrun by one grid pass; the
# whole command must finish within 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOTMPDIR=os.path.join(OUT, "tmp"),
        GOPATH=os.path.join(OUT, "gopath"),
        XDG_CONFIG_HOME=os.path.join(OUT, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
    )
    return env


def build():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(OUT, "cellbench")
    proc = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        timeout=BUILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        return None
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except subprocess.TimeoutExpired:
        sys.stderr.write("cellbench: build timed out\n")
        return 1
    if binary is None:
        sys.stderr.write("cellbench: build failed\n")
        return 1
    cmd = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
    ]
    try:
        # subprocess.run kills the benchmark and waits for it on timeout.
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("cellbench: run timed out\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
