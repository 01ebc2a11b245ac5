#!/usr/bin/env python3
"""Build the campaign benchmark from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

The build's own output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Outside a checkout of the repository
the build fails and so does this script.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    # Stay inside the checkout: no shared dune build cache, and git (asked
    # for the commit the fingerprint records) looks no higher than here.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(os.getcwd())
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display", "quiet",
         "./perfbench/bench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
