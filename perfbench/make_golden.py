"""Regenerate the golden references from the current sources.

usage: python3 perfbench/make_golden.py [WORKLOAD ...]   (from the checkout root)

Plays every pool cell of the default seed once, requires each to pass the
seed-independent checks, and writes golden/<workload>.json.  Run it only
when a change to adaopt is meant to change its outputs.
"""

import os
import shutil
import sys
import tempfile

import run
from workloads import DEFAULT_SEED, POOL_SIZE, WORKLOADS


def main(names) -> int:
    root = os.getcwd()
    cli = run.import_cli(os.path.join(root, "src"))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    work = tempfile.mkdtemp(prefix="perfbench-golden-", dir=build)
    try:
        for name in names or sorted(WORKLOADS):
            cells = run.Cells(cli, name, DEFAULT_SEED, work)
            for i in range(POOL_SIZE):
                cells.run(i)
            if cells.failed:
                print(f"{name}: {cells.failed} cells failed", file=sys.stderr)
                return 1
            run.checks.write_golden(name, DEFAULT_SEED,
                                    [cells.first[i] for i in range(POOL_SIZE)])
            print(f"{name}: wrote {POOL_SIZE} cells")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
