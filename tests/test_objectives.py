import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptsparse.nn import predict_distribution
from ptsparse.objectives import (CLAMP_MIN, base_decayed_kl, cross_entropy,
                                 decay_scale, kl_loss, layerwise_mse)


def rand_dist(rng, b=4, c=5):
    p = rng.random((b, c)) + 0.05
    return p / p.sum(axis=1, keepdims=True)


class TestDecaySchedule:
    def test_scale_at_zero_is_one(self):
        assert decay_scale(0, 0.99) == 1.0

    def test_scale_at_10_matches_hand_value(self):
        # 1 / (1 + 10*ln 0.99) with ln 0.99 = -0.0100503...
        assert decay_scale(10, 0.99) == pytest.approx(1.1118, abs=1e-3)

    def test_clamp_engages_for_large_t(self):
        assert CLAMP_MIN == 0.05
        for t in (100, 150, 10_000):
            assert decay_scale(t, 0.99) == pytest.approx(20.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 500), st.integers(0, 500))
    def test_monotone_nondecreasing(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert decay_scale(hi, 0.99) >= decay_scale(lo, 0.99)


class TestKLLoss:
    def test_zero_when_equal(self, rng):
        z = rand_dist(rng)
        loss, grad = kl_loss(z, z)
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_hand_value_with_zero_times_log_zero(self):
        z = np.array([[1.0, 0.0]])
        z_hat = np.array([[0.5, 0.5]])
        loss, _ = kl_loss(z, z_hat)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_non_normalized_rejected(self):
        bad = np.array([[0.6, 0.6]])
        good = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError):
            kl_loss(bad, good)
        with pytest.raises(ValueError):
            kl_loss(good, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, bad):
        uniform = np.full((2, 3), 1 / 3)
        with pytest.raises(ValueError, match="non-finite"):
            kl_loss(uniform, np.full((2, 3), bad))
        with pytest.raises(ValueError, match="non-finite"):
            kl_loss(np.full((2, 3), bad), uniform)
        with pytest.raises(ValueError, match="non-finite"):
            cross_entropy(np.full((2, 3), bad), np.array([0, 1]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        loss, _ = kl_loss(rand_dist(rng), rand_dist(rng))
        assert loss >= 0.0

    def test_gradient_matches_finite_differences_through_softmax(self, rng):
        z = rand_dist(rng, 3, 4)
        logits = rng.standard_normal((3, 4))
        _, grad = kl_loss(z, predict_distribution(logits))
        h = 1e-6
        for i in range(3):
            for j in range(4):
                lp = logits.copy(); lp[i, j] += h
                lm = logits.copy(); lm[i, j] -= h
                fd = (kl_loss(z, predict_distribution(lp))[0]
                      - kl_loss(z, predict_distribution(lm))[0]) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestBaseDecayedKL:
    def test_t0_equals_plain_kl(self, rng):
        z, zh = rand_dist(rng), rand_dist(rng)
        assert base_decayed_kl(z, zh, 0, 0.99)[0] == kl_loss(z, zh)[0]

    def test_scale_at_t10(self, rng):
        z, zh = rand_dist(rng), rand_dist(rng)
        loss, _ = base_decayed_kl(z, zh, 10, 0.99)
        expected_scale = 1.0 / (1.0 + 10 * math.log(0.99))
        assert expected_scale == pytest.approx(1.1118, abs=1e-3)
        assert loss == pytest.approx(expected_scale * kl_loss(z, zh)[0])

    def test_clamped_scale_pinned_at_20(self, rng):
        z, zh = rand_dist(rng), rand_dist(rng)
        loss, _ = base_decayed_kl(z, zh, 150, 0.99)
        assert loss == pytest.approx(20.0 * kl_loss(z, zh)[0])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0, 1, exclude_min=True),
           st.integers(0, 2**32 - 1))
    def test_scale_law_exact(self, t, gamma, seed):
        # same floating path: decay_scale(t, gamma) * kl_loss, bit for bit
        rng = np.random.default_rng(seed)
        z, zh = rand_dist(rng), rand_dist(rng)
        loss, grad = base_decayed_kl(z, zh, t, gamma)
        kl, kg = kl_loss(z, zh)
        s = decay_scale(t, gamma)
        assert loss == s * kl
        np.testing.assert_array_equal(grad, s * kg)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(0, 10**9), st.floats(0, 1e12)),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_gamma_one_is_plain_kl_bytes(self, t, seed, one_hot):
        # scale(t) = 1 / max(1 + t*ln 1, CLAMP_MIN) = 1.0 exactly, and 1.0 * x
        # is x: plain KL is the base-decayed KL at gamma = 1
        rng = np.random.default_rng(seed)
        z, zh = rand_dist(rng), rand_dist(rng)
        if one_hot:  # zero teacher entries take the 0 * log 0 branch
            z = np.eye(z.shape[1])[rng.integers(0, z.shape[1], z.shape[0])]
        loss, grad = base_decayed_kl(z, zh, t, 1.0)
        kl, kg = kl_loss(z, zh)
        assert np.float64(loss).tobytes() == np.float64(kl).tobytes()
        assert grad.tobytes() == kg.tobytes()


class TestLayerwiseMSE:
    def test_identical_outputs(self, rng):
        y = rng.standard_normal((3, 4))
        assert layerwise_mse(y, y)[0] == 0.0

    def test_zero_prediction_gives_squared_norm(self, rng):
        y = rng.standard_normal((3, 4))
        assert layerwise_mse(y, np.zeros_like(y))[0] == pytest.approx(np.sum(y * y))

    def test_random_pair_vs_scalar_loop(self, rng):
        y, yh = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        expected = sum((y[i, j] - yh[i, j]) ** 2 for i in range(2) for j in range(3))
        loss, grad = layerwise_mse(y, yh)
        assert loss == pytest.approx(expected)
        np.testing.assert_allclose(grad, 2 * (yh - y))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            layerwise_mse(rng.standard_normal((2, 3)), rng.standard_normal((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_rejected(self, rng, bad, side):
        pair = [rng.standard_normal((2, 3)), rng.standard_normal((2, 3))]
        pair[side][1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            layerwise_mse(*pair)


class TestCrossEntropy:
    def test_mean_nll(self):
        zh = np.array([[0.8, 0.2], [0.3, 0.7]])
        labels = np.array([0, 1])
        loss, _ = cross_entropy(zh, labels)
        assert loss == pytest.approx(-(math.log(0.8) + math.log(0.7)) / 2)

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.standard_normal((3, 4))
        labels = rng.integers(0, 4, 3)
        _, grad = cross_entropy(predict_distribution(logits), labels)
        h = 1e-6
        for i in range(3):
            for j in range(4):
                lp = logits.copy(); lp[i, j] += h
                lm = logits.copy(); lm[i, j] -= h
                fd = (cross_entropy(predict_distribution(lp), labels)[0]
                      - cross_entropy(predict_distribution(lm), labels)[0]) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-9)
