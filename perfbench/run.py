#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/main.exe with dune, then
runs one workload; the last line of standard output is the JSON result.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["list-6a", "hash-short", "bank-durable"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the repository root (no dune-project or lib/ here)")
    # Keep every build product inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, timeout=870)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--dir", ".perfbench"],
        timeout=175)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
