#!/usr/bin/env python3
"""servebench entry point: build the daemon and the load generator from
source, then run one workload.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a prax checkout.  Build output goes to stderr; the
load generator's report goes to stdout, its last line one JSON object
(see servebench/README.md).  Outside a checkout it exits 2 without
printing a result.
"""

import os
import subprocess
import sys

# What a checkout must hold for the benchmark to build the program.
REQUIRED = ["dune-project", "bin/praxd.ml", "bin/dune", "lib", "servebench/dune"]
LOADGEN = os.path.join("_build", "default", "servebench", "loadgen.exe")


def main():
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print(
            "servebench: run from the root of a prax checkout (missing: %s)"
            % ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/praxd.exe", "./servebench/loadgen.exe"],
            stdout=sys.stderr,
        )
    except FileNotFoundError:
        print("servebench: dune (the OCaml build tool) is not on PATH", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("servebench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    # replace this process, so signals reach the load generator directly
    os.execv(LOADGEN, [LOADGEN] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
