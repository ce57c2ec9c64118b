#!/usr/bin/env python3
"""Seeded simulator benchmark of the BGLA stack.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest [SEED ...]

The first call configures and builds perfbench/ and the src/ libraries it
links into .bench_build/perfbench with CMake; later calls only bring that
build up to date. Build output goes to stderr. The benchmark binary's
stdout, whose last line is the JSON result, passes through unchanged, and
its exit code is returned.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SELFTEST_TIMEOUT_S = 1800


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; on timeout or interrupt kills the
    whole group and waits for it, so no compiler or benchmark outlives us.
    Temporary files (the compiler's) stay inside the build tree."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            env=dict(os.environ, TMPDIR=tmp),
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        if run(cmd, BUILD_TIMEOUT_S, sys.stderr) != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--selftest", nargs="*", type=int, metavar="SEED",
                    help="check the cluster runs against the harness instead")
    args = ap.parse_args()

    if args.selftest is not None:
        binary = build("perfbench_selftest")
        cmd = [binary] + [str(s) for s in args.selftest]
        return run(cmd, SELFTEST_TIMEOUT_S, None)

    if not args.workload:
        ap.error("--workload is required")
    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    return run(cmd, RUN_TIMEOUT_S, None)


if __name__ == "__main__":
    sys.exit(main())
