"""The benchmark's seed-1 outputs, pinned: every workload's teacher, the
student, metrics.csv and train_metrics.csv of each of its jobs and, where the
workload searches, each job's search.log hash as FINGERPRINTS.json says. A
refactor that moves a bit of what the benchmark measures, the search's fitness
values and the DST history rows included, fails here, in the tier-1 suite,
before a benchmark run shows it.

bench/job.py is imported by path and its run() called in this process, as
`python3 bench/run.py --workload W --seed 1 --seconds 0` runs it, with no
edit under bench/. The bits are those of the float library they were recorded
with (numpy 2.4.6, scipy-openblas 0.3.31, x86-64), as for GOLDEN in
test_harness_cli.py: another numpy or BLAS may round differently, and a
mismatch there alone is a platform difference, not a bug. A change that moves
bits on purpose records them again in the same commit.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import bench_module

ROOT = Path(__file__).resolve().parents[1]
STORED = json.loads((ROOT / "FINGERPRINTS.json").read_text())["workloads"]

job = bench_module("job")


def test_every_workload_is_pinned():
    assert sorted(STORED) == sorted(job.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(STORED))
def test_seed_one_outputs_match(tmp_path, workload):
    record = job.run(workload, seed=1, seconds=0, trace=False, out_root=tmp_path)
    assert record["problems"] == [] and record["errors"] == []
    assert record["teacher_param_hash"] == STORED[workload]["teacher_param_hash"]
    assert record["fingerprints"] == STORED[workload]["fingerprints"]
    for name, key in (("search.log", "search_log_sha256"),
                      ("train_metrics.csv", "train_metrics_sha256")):
        hashes = {p.parent.name.removeprefix("calib"): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in (tmp_path / workload / "jobs").glob(f"calib*/{name}")}
        assert hashes == STORED[workload][key], name
