#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 12 --trace 0

The OCaml benchmark prints a readable report and, as its last line, the
JSON result.  Exits non-zero when the build fails, an answer check
fails, or the run overruns its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["paper-sweep", "dag-adaptive", "layered-reuse", "paper-sweep-1worker"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
TIME_LIMIT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project or lib/ is missing")
    # Keep dune's shared cache out of the home directory: the build reads
    # and writes only inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    command = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # A session of its own, so a timeout can stop the cluster worker too.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out after %d s" % TIME_LIMIT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
