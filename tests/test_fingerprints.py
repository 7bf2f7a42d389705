"""The benchmark's seed-1 outputs, pinned: every workload's teacher and the
student and metrics.csv of each of its jobs hash as FINGERPRINTS.json says.
A refactor that moves a bit of what the benchmark measures fails here, in the
tier-1 suite, before a benchmark run shows it.

bench/job.py is imported by path and its run() called in this process, as
`python3 bench/run.py --workload W --seed 1 --seconds 0` runs it, with no
edit under bench/. The bits are those of the float library they were recorded
with (numpy 2.4.6, scipy-openblas 0.3.31, x86-64), as for GOLDEN in
test_harness_cli.py: another numpy or BLAS may round differently, and a
mismatch there alone is a platform difference, not a bug. A change that moves
bits on purpose records them again in the same commit.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
STORED = json.loads((ROOT / "FINGERPRINTS.json").read_text())["workloads"]


@pytest.fixture(scope="module")
def job():
    """bench/job.py as a module. Its import puts bench/ and src/ first on
    sys.path and loads bench's own modules; both are undone afterwards."""
    path, modules = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench_job", BENCH / "job.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            if str(BENCH) in str(getattr(sys.modules[name], "__file__", "")):
                del sys.modules[name]
        sys.modules.pop(spec.name, None)


def test_every_workload_is_pinned(job):
    assert sorted(STORED) == sorted(job.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(STORED))
def test_seed_one_outputs_match(job, tmp_path, workload):
    record = job.run(workload, seed=1, seconds=0, trace=False, out_root=tmp_path)
    assert record["problems"] == [] and record["errors"] == []
    assert record["teacher_param_hash"] == STORED[workload]["teacher_param_hash"]
    assert record["fingerprints"] == STORED[workload]["fingerprints"]
