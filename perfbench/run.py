#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload crypto-sweep --seed 1 --seconds 20 --trace 0

The Go benchmark in this directory is compiled into .bench_build/ (with
its build cache there too, so nothing is written outside the checkout)
and run with the given arguments. Build output goes to standard error;
standard output is the benchmark's own, ending with its JSON result
line. A failed build exits non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD_DIR, "gocache"),
        GOMODCACHE=os.path.join(BUILD_DIR, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD_DIR, "tmp"),
        GOFLAGS="-mod=readonly",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    return env


def run(cmd, **kwargs):
    """Run cmd to completion, forwarding SIGTERM/SIGINT to it."""
    proc = subprocess.Popen(cmd, **kwargs)

    def forward(signum, _frame):
        proc.send_signal(signum)

    old = {s: signal.signal(s, forward) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return proc.wait()
    finally:
        for s, h in old.items():
            signal.signal(s, h)
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    env = build_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    code = run(["go", "build", "-o", BINARY, "."], cwd=BENCH_DIR, env=env, stdout=sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return run([BINARY, "--work-dir", BUILD_DIR] + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
