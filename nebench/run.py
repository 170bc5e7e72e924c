"""Nebula benchmark: run one workload and print its metrics.

Usage (from the repository root)::

    python3 nebench/run.py --workload ingest-1x --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The measurement runs in a
child interpreter with ``PYTHONHASHSEED`` pinned, so a seed always gives
the same outputs (the program's results still depend on string hashing).
See ``nebench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROGRAM = HERE.parent / "src" / "repro"
HASH_SEED = "0"
#: Generous: the first run in a checkout also generates the 8x world.
CHILD_TIMEOUT_S = 880


def main() -> int:
    if not (PROGRAM / "__init__.py").is_file():
        print(f"nebench: program sources not found at {PROGRAM}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    command = [sys.executable, str(HERE / "bench.py"), *sys.argv[1:]]
    child = subprocess.Popen(command, env=env)
    try:
        return child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("nebench: benchmark timed out", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
