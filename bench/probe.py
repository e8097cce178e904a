"""One cold set-up: `import ablab.cli` plus op-list generation.

    python3 bench/probe.py <workload> <seed>

prints the seconds it took.  run.py calls `setup` once in its own process
and runs this script a few more times in fresh interpreters.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

from workloads import build_ops

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(workload: str, seed: int):
    """Import the program and build the op list; returns (cli, ops, seconds)."""
    t0 = perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ablab.cli

    ops = build_ops(workload, seed)
    return ablab.cli, ops, perf_counter() - t0


if __name__ == "__main__":
    print(setup(sys.argv[1], int(sys.argv[2]))[2])
