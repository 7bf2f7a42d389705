"""Acceptance suite.

Each test prints one [ACCEPTANCE] pass/fail line for its criterion. The
directional criteria share one session-scoped bundle of jobs: per seed and per
ARMS entry, one harness.run_single job with the BASE settings and the arm's
overrides, on one convnet-small teacher trained on the synthetic dataset.
"""

import math
import statistics
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import conftest
from conftest import finite_difference_grads, tiny_conv, tiny_mlp
from ptsparse.cli import main as cli_main
from ptsparse.config import ExperimentConfig
from ptsparse.harness import load_dataset, prepare_teacher, run_single
from ptsparse.nn import Dense, Network, load_masks, load_network
from ptsparse.objectives import decay_scale, kl_loss
from ptsparse.search import decode
from ptsparse.sparsity import NMPattern, nm_mask, topk_mask, uniform_distribution
from ptsparse.training import run_training

SEEDS = (0, 1, 2)

# The settings every directional job shares: 1024-sample calibration sets and
# 90% unstructured sparsity, unless an arm sets an N:M pattern.
BASE = dict(teacher_epochs=4, sparsity=0.9, calib_size=1024, iterations=250,
            metrics_every=10**9)

# Each arm's overrides of BASE; a test compares the median top-1 of two arms.
ARMS = {
    "unipts": dict(method="unipts", population=10, generations=5),
    "uniform": dict(method="uniform+dst"),
    "pot": dict(method="pot-baseline"),
    "dt1": dict(method="uniform+dst", alpha=0.0, delta_t=1),
    "dt1000": dict(method="uniform+dst", alpha=0.0, delta_t=1000),
    "dkl": dict(method="uniform+dst", iterations=500),
    "kl": dict(method="uniform+dst", iterations=500, gamma=1.0),
    "nm_trained": dict(method="uniform+dst", nm_pattern="2:4"),
    "nm_untrained": dict(method="uniform+dst", nm_pattern="2:4", iterations=0),
}


def _report(name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    line = f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)


@pytest.fixture(scope="session")
def bundle_dir(tmp_path_factory):
    """The jobs' output root: <seed>/<arm>/ holds each job's artifacts."""
    return tmp_path_factory.mktemp("bundle")


@pytest.fixture(scope="session")
def bundle(bundle_dir):
    """Every directional job's MetricsRow, by seed and arm, computed once."""
    cfg = ExperimentConfig(**BASE)
    splits = load_dataset(cfg)
    teacher = prepare_teacher(cfg, splits, seed=cfg.data_seed)
    return {seed: {name: run_single(ExperimentConfig(**{**BASE, **arm}), splits, teacher,
                                    seed, bundle_dir / str(seed) / name)
                   for name, arm in ARMS.items()}
            for seed in SEEDS}


def _median(bundle, arm):
    return statistics.median(bundle[s][arm].top1 for s in SEEDS)


class TestNumericAnchors:
    def test_anchors(self):
        scale10 = decay_scale(10, 0.99)
        ok_scale = abs(scale10 - 1.1118) <= 1e-3

        r = np.random.default_rng(0)
        net = Network([Dense(40, 25, r)])
        dist = decode(np.zeros(1), net, ExperimentConfig(sparsity=0.9))
        residual = (0.95 - dist.rates[0]) * 1000
        ok_residual = residual == pytest.approx(50.0, abs=1e-9)

        # pruned-entry update: w=0.1, g=0.2, lr=0.01, alpha=3e-5
        from ptsparse.training import _apply_update
        layer = Dense(1, 1)
        layer.weight = np.array([[0.1]])
        _apply_update(Network([layer]), {0: {"weight": np.array([[0.2]])}}, 0.01,
                      {0: np.array([[0.0]])}, alpha=3e-5)
        got = layer.weight[0, 0]
        ok_step = got == 0.1 - 0.01 * 0.2 - 3e-5 * 0.1 and \
            abs(got - 0.097997) < 1e-12

        ok = ok_scale and ok_residual and ok_step
        _report("numeric-anchors",
                ok, f"scale(10)={scale10:.6f} residual={residual:.6f} "
                    f"step={got:.6f}")
        assert ok


class TestInvariantSuites:
    def test_invariants(self):
        started = time.monotonic()
        weights = hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
            elements=st.floats(-10, 10, allow_nan=False))

        @settings(max_examples=200, deadline=None)
        @given(weights, st.floats(0, 1), st.floats(0.1, 50))
        def topk_props(w, rate, c):
            m = topk_mask(w, rate)
            assert m.sum() == math.floor((1.0 - rate) * w.size)
            np.testing.assert_array_equal(m, topk_mask(c * w, rate))

        @settings(max_examples=200, deadline=None)
        @given(hnp.arrays(np.float64,
                          st.tuples(st.integers(1, 4), st.integers(1, 16)),
                          elements=st.floats(-10, 10)),
               st.integers(1, 2), st.integers(3, 6))
        def nm_props(w, n, m):
            rows = nm_mask(w, NMPattern(n, m)).reshape(w.shape[0], -1)
            for r in range(rows.shape[0]):
                for s in range(0, rows.shape[1], m):
                    g = rows[r, s:s + m]
                    assert g.sum() == min(n, len(g))

        @settings(max_examples=200, deadline=None)
        @given(st.integers(0, 2**32 - 1), st.floats(0.1, 0.9))
        def mask_equivalence(seed, rate):
            r = np.random.default_rng(seed)
            net = Network([Dense(4, 3, r), Dense(3, 2, r)])
            masks = {i: topk_mask(net.layers[i].weight, rate)
                     for i in net.prunable_indices()}
            zeroed = net.copy()
            for i, m in masks.items():
                zeroed.layers[i].weight *= m
            x = r.standard_normal((3, 4))
            np.testing.assert_allclose(net.forward(x, masks=masks).logits,
                                       zeroed.forward(x).logits, atol=1e-12)

        @settings(max_examples=200, deadline=None)
        @given(st.integers(0, 2**32 - 1))
        def ste_contract(seed):
            r = np.random.default_rng(seed)
            net = Network([Dense(3, 2, r)])
            mask = {0: topk_mask(net.layers[0].weight, 0.5)}
            x, gy = r.standard_normal((2, 3)), r.standard_normal((2, 2))
            trace = net.forward(x, masks=mask)
            g_ste = net.backward(trace, gy)[0]["weight"]
            dense = net.backward(net.forward(x), gy)[0]["weight"]
            np.testing.assert_allclose(g_ste, dense, atol=1e-12)

        @settings(max_examples=200, deadline=None)
        @given(st.integers(0, 2**32 - 1), st.integers(0, 200))
        def kl_props(seed, t):
            r = np.random.default_rng(seed)
            p = r.random((3, 4)) + 0.05
            q = r.random((3, 4)) + 0.05
            p, q = (a / a.sum(axis=1, keepdims=True) for a in (p, q))
            loss, _ = kl_loss(p, q)
            assert loss >= 0.0
            from ptsparse.objectives import base_decayed_kl
            assert base_decayed_kl(p, q, t, 0.99)[0] == decay_scale(t, 0.99) * loss

        @settings(max_examples=200, deadline=None)
        @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
               st.floats(0.3, 0.9))
        def budget_identity(genes, p):
            r = np.random.default_rng(0)
            net = Network([Dense(7, 11, r), Dense(11, 5, r)])
            p_e = min(p + 0.05, 1.0)
            dist = decode(np.array(genes), net, ExperimentConfig(sparsity=p))
            numels = np.array([77.0, 55.0])
            regrown = ((p_e - np.array(dist.rates)) * numels).sum()
            residual = (p_e - p) * numels.sum()
            assert abs(regrown - residual) <= 1e-9 * max(residual, 1.0)

        topk_props()
        nm_props()
        mask_equivalence()
        ste_contract()
        kl_props()
        budget_identity()

        # finite-difference gradient checks, 64-bit, rel error < 1e-4
        for maker, shape in ((tiny_mlp, (3, 6)), (tiny_conv, (2, 1, 6, 6))):
            net = maker(seed=11)
            r = np.random.default_rng(0)
            x, c = r.standard_normal(shape), r.standard_normal((shape[0], 3))
            masks = {i: topk_mask(net.layers[i].weight, 0.5)
                     for i in net.prunable_indices()}

            def loss():
                return float(np.sum(c * net.forward(x, masks=masks, mode="train").logits))

            grads = net.backward(net.forward(x, masks=masks, mode="train"), c)
            arrays = [net.layers[i].params()[n] for i, pg in grads.items()
                      for n in pg]
            # a pruned entry's true gradient is 0: mask the STE gradient
            analytic = [g * masks[i] if n == "weight" else g
                        for i, pg in grads.items() for n, g in pg.items()]
            for a, nmr in zip(analytic, finite_difference_grads(loss, arrays)):
                np.testing.assert_allclose(a, nmr, rtol=1e-4, atol=1e-7)

        # teacher immutability and end-to-end determinism
        teacher = tiny_mlp(seed=4)
        r = np.random.default_rng(0)
        from ptsparse.data import CalibrationSet
        calib = CalibrationSet(inputs=r.standard_normal((48, 6)),
                               labels=r.integers(0, 3, 48))
        before = teacher.param_hash()
        dist = uniform_distribution(teacher, 0.5)
        tc = ExperimentConfig(iterations=20, batch_size=16)
        a = run_training(teacher, dist, calib, tc, 1)
        assert teacher.param_hash() == before
        b = run_training(teacher, dist, calib, tc, 1)
        assert a.student.param_hash() == b.student.param_hash()

        elapsed = time.monotonic() - started
        ok = elapsed < 300
        _report("invariant-suites", ok, f"{elapsed:.1f}s")
        assert ok


class TestDirectional:
    def test_a_unipts_vs_pot_baseline(self, bundle):
        u, p = _median(bundle, "unipts"), _median(bundle, "pot")
        ok = u - p >= 0.05
        _report("directional-A-unipts-vs-pot", ok,
                f"unipts={u:.4f} pot={p:.4f} margin={u - p:+.4f}")
        assert ok

    def test_b_refresh_interval(self, bundle):
        fast, slow = _median(bundle, "dt1"), _median(bundle, "dt1000")
        ok = fast >= slow
        _report("directional-B-refresh-interval", ok,
                f"dt1={fast:.4f} dt1000={slow:.4f}")
        assert ok

    def test_c_searched_vs_uniform(self, bundle):
        s, u = _median(bundle, "unipts"), _median(bundle, "uniform")
        realized = [bundle[k]["unipts"].realized_sparsity for k in SEEDS]
        within = all(abs(r - 0.9) <= 0.005 for r in realized)
        ok = s >= u and within
        _report("directional-C-searched-vs-uniform", ok,
                f"searched={s:.4f} uniform={u:.4f} "
                f"realized={[f'{r:.4f}' for r in realized]}")
        assert ok

    def test_d_base_decayed_kl(self, bundle):
        d, k = _median(bundle, "dkl"), _median(bundle, "kl")
        ok = d >= k
        _report("directional-D-base-decayed-kl", ok,
                f"base_decayed={d:.4f} plain={k:.4f}")
        assert ok

    def test_nm_2of4(self, bundle, bundle_dir):
        trained = _median(bundle, "nm_trained")
        untrained = _median(bundle, "nm_untrained")
        ok_gap = trained - untrained >= 0.10
        ok_pattern = True
        for seed in SEEDS:
            job = bundle_dir / str(seed) / "nm_trained"
            student = load_network(job / "student.ckpt")
            for i, mask in load_masks(job / "masks.bin").items():
                for a in (mask, student.layers[i].weight):
                    # each row in groups of 4, the last padded with zeros
                    rows = a.reshape(a.shape[0], -1)
                    groups = np.pad(rows, ((0, 0), (0, -rows.shape[1] % 4))).reshape(-1, 4)
                    ok_pattern &= bool((np.count_nonzero(groups, axis=1) <= 2).all())
        ok = ok_gap and ok_pattern
        _report("nm-2of4", ok,
                f"trained={trained:.4f} untrained={untrained:.4f} "
                f"pattern_exact={ok_pattern}")
        assert ok


class TestCLIRoundTrip:
    def test_run_twice_byte_identical(self, tmp_path):
        started = time.monotonic()
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "method = unipts\n"
            "teacher_epochs = 1\n"
            "train_size = 1024\n"
            "eval_size = 256\n"
            "calib_size = 256\n"
            "iterations = 100\n"
            "population = 6\n"
            "generations = 2\n"
            "metrics_every = 50\n"
            "seeds = 0\n")
        codes, blobs = [], []
        for name in ("one", "two"):
            codes.append(cli_main(["run", "-c", str(cfg),
                                   "-o", f"out_dir={tmp_path / name}"]))
            blobs.append((tmp_path / name / "metrics.csv").read_bytes())
        elapsed = time.monotonic() - started
        ok = codes == [0, 0] and blobs[0] == blobs[1] and elapsed < 600
        _report("cli-round-trip", ok,
                f"exit={codes} identical={blobs[0] == blobs[1]} "
                f"{elapsed:.1f}s")
        assert ok
