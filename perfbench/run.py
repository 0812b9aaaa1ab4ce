#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload sweep|interactive|contended \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the shipped daemon
(bin/msoc_cli.exe) and the benchmark (perfbench/bench.exe) from source
inside the checkout, then hands over to the benchmark, whose last line of
standard output is the result object.  Build output goes to standard
error.  Exits non-zero without a result when the checkout cannot be
built.
"""

import os
import subprocess
import sys

BENCH = "_build/default/perfbench/bench.exe"


def main():
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/msoc_cli.ml")):
        print("perfbench: not at the root of an msoc checkout", file=sys.stderr)
        return 2
    # keep every build artifact inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/msoc_cli.exe", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    os.execv(BENCH, [BENCH] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
