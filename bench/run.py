"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload mlp3-unipts --seed 1 --seconds 25 --trace 0

Runs ``job.py`` (which imports ptsparse from this checkout's ``src``) in a
fresh interpreter whose BLAS/OpenMP pools have one thread, and waits for it.
The child's last stdout line is the result JSON. Exits non-zero when the
program's sources are missing or the child fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170

# One BLAS/OpenMP thread, so a run's times do not depend on how many cores
# the machine has free at the moment.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def main(argv: list[str]) -> int:
    if not (SRC / "ptsparse" / "__init__.py").is_file():
        print(f"bench: no ptsparse sources under {SRC}", file=sys.stderr)
        return 2
    try:
        done = subprocess.run([sys.executable, str(HERE / "job.py"), *argv],
                              env=dict(os.environ, **SINGLE_THREAD), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: run exceeded {CHILD_TIMEOUT_S}s and was stopped", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
