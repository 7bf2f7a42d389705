import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from ptsparse.data import CalibrationSet
from ptsparse.nn import Dense, Network, build_preset

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Property tests draw the same examples on every run, so the suite is
# deterministic; tests that set max_examples themselves keep their count.
settings.register_profile("ptsparse", derandomize=True, database=None,
                          max_examples=100, deadline=None)
settings.load_profile("ptsparse")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def tiny_mlp(seed=0, n_in=6, hidden=5, classes=3):
    """Small dense net with BN+ReLU, < 100 params, for gradient checks."""
    from ptsparse.nn import BatchNorm, ReLU
    r = np.random.default_rng(seed)
    return Network([
        Dense(n_in, hidden, r), BatchNorm(hidden), ReLU(),
        Dense(hidden, classes, r),
    ])


def make_calib(seed=0, n=64, n_in=6, classes=3):
    """n Gaussian calibration rows of n_in features, tiny_mlp's input by default."""
    r = np.random.default_rng(seed)
    return CalibrationSet(inputs=r.standard_normal((n, n_in)),
                          labels=r.integers(0, classes, n))


def tiny_conv(seed=0, size=6, classes=3):
    from ptsparse.nn import AvgPool, BatchNorm, Conv2d, Flatten, ReLU
    r = np.random.default_rng(seed)
    return Network([
        Conv2d(1, 2, 3, stride=1, padding=1, rng=r), BatchNorm(2), ReLU(), AvgPool(2),
        Flatten(),
        Dense(2 * (size // 2) ** 2, classes, r),
    ])


def tiny_conv_stride2(seed=0, size=6, classes=3):
    """A padded stride-2 convolution after the first layer, so its input
    gradient is computed too."""
    from ptsparse.nn import BatchNorm, Conv2d, Flatten, ReLU
    r = np.random.default_rng(seed)
    out = (size + 1) // 2
    return Network([
        Conv2d(1, 2, 3, stride=1, padding=1, rng=r), BatchNorm(2), ReLU(),
        Conv2d(2, 2, 3, stride=2, padding=1, rng=r), Flatten(),
        Dense(2 * out * out, classes, r),
    ])


# load_network must reject each: a header that omits a parameter's array
# record, one that names a record twice, and one whose layer 0 has 10**16
# weights, beyond the address space, so its allocation fails at once
MALFORMED_CHECKPOINTS = ("missing", "twice", "oversized")


def malformed_checkpoint(path, how):
    """An mlp3 checkpoint for 64 features and 3 classes (8x8 images) at path,
    its header edited as how names."""
    from ptsparse.nn import save_network
    from ptsparse.nn.checkpoint import MAGIC, read_container, write_container
    save_network(build_preset("mlp3", (64,), 3), path)
    header, payload = read_container(path, MAGIC)
    if how == "missing":
        header["arrays"].pop()
    elif how == "twice":
        header["arrays"].append(header["arrays"][0])
    else:
        header["layers"][0] = {"kind": "Dense", "in_features": 10**8, "out_features": 10**8}
    write_container(path, MAGIC, header, [payload])


def finite_difference_grads(loss_fn, arrays, h=1e-5):
    """Central differences of a scalar loss over a list of parameter arrays."""
    grads = []
    for p in arrays:
        g = np.zeros_like(p)
        flat = p.ravel()
        gf = g.ravel()
        for j in range(flat.size):
            old = flat[j]
            flat[j] = old + h
            lp = loss_fn()
            flat[j] = old - h
            lm = loss_fn()
            flat[j] = old
            gf[j] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def bench_module(name):
    """bench/<name>.py, imported by path as bench_<name>, with no edit under
    bench/. What its import puts on sys.path, and the modules it loads from
    bench/, itself included, are taken out again before it returns, so
    bench's own tests import theirs afresh."""
    path, modules = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks up its module as it is made
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        for key in set(sys.modules) - modules:
            if str(BENCH) in str(getattr(sys.modules[key], "__file__", "")):
                del sys.modules[key]
    return module
