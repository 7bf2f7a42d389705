"""The benchmark's hooks into the program. bench/ names ptsparse's functions,
methods and config fields; a rename in src that would break a benchmark run
fails here, in the tier-1 suite, first. Nothing under bench/ is edited."""

import pytest

from conftest import bench_module
from ptsparse import harness, training
from ptsparse.config import ExperimentConfig
from ptsparse.nn import layers

tracing = bench_module("tracing")
workloads = bench_module("workloads")


def hooks():
    """A function, a stage step and a layer method that full tracing wraps."""
    return harness.run_single, training.train_step, vars(layers.Conv2d)["backward"]


def test_full_tracing_wraps_and_restores():
    before = hooks()
    with tracing.Instrumented(tracing.Tracer(), full=True):
        assert all(now is not was for now, was in zip(hooks(), before))
    assert hooks() == before


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_validates(name, tiny):
    assert isinstance(workloads.WORKLOADS[name].config(tiny=tiny), ExperimentConfig)
