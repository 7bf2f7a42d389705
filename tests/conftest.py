import numpy as np
import pytest
from hypothesis import settings

from ptsparse.nn import Dense, Network, build_preset

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
