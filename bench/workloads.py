"""The benchmark's workloads: generated ptsparse configs and job seeds.

Each workload is a closed-loop batch of pruning jobs on the seeded synthetic
dataset. The data and the dense teacher are fixed per workload; ``--seed``
picks the calibration seeds of the jobs, so one run's inputs are the
calibration sets, the search population and the DST batch order.
"""

from __future__ import annotations

from dataclasses import dataclass

JOBS_PER_ROUND = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict
    setups: int = 3                       # set-ups per run; setup_s is their median

    def config(self, tiny: bool = False):
        from ptsparse.config import ExperimentConfig
        values = dict(self.overrides)
        if tiny:
            values.update(TINY)
        return ExperimentConfig(**values).validate()

    def job_seeds(self, seed: int) -> list[int]:
        return [1000 * seed + k for k in range(JOBS_PER_ROUND)]


# Shared by all three: fixed data, and a calibration set per job.
COMMON = dict(dataset="synthetic", data_seed=0, train_size=4096, eval_size=1024,
              calib_size=256, batch_size=64, seeds=(0,), record_timing=False)

# A few-second version of every workload for the benchmark's own tests.
TINY = dict(train_size=1024, eval_size=256, calib_size=128, teacher_epochs=2,
            population=3, generations=1, elites=1, tournament=2,
            iterations=20, metrics_every=10, batch_size=32)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="convnet-unipts",
        why="paper's full method on conv layers: search plus DST, where Conv2d, "
            "im2col, AvgPool and the fitness loop do most of the work",
        overrides=dict(COMMON, preset="convnet-small", method="unipts", sparsity=0.9,
                       teacher_epochs=2, population=6, generations=2, elites=2,
                       tournament=3, iterations=60, metrics_every=30),
        setups=3),
    Workload(
        name="mlp3-unipts",
        why="Dense/BatchNorm/ReLU only, no conv or pool; top-k mask refresh is "
            "most of each DST step and the search is small",
        overrides=dict(COMMON, preset="mlp3", method="unipts", sparsity=0.9,
                       teacher_epochs=4, population=6, generations=2, elites=2,
                       tournament=3, iterations=100, metrics_every=50),
        setups=5),
    Workload(
        name="mlp3-nm24-dst",
        why="2:4 N:M masks with DST and no search: the same mask refresh on the "
            "N:M path, topk_mask never called",
        overrides=dict(COMMON, preset="mlp3", method="uniform+dst", nm_pattern="2:4",
                       teacher_epochs=4, iterations=150, metrics_every=50),
        setups=5),
)}
