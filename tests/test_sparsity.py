import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import tiny_conv, tiny_mlp
from mask_reference import nm_mask_reference, topk_mask_reference
from ptsparse.nn import CheckpointError, Dense, Network, build_preset, load_masks, save_masks
from ptsparse.sparsity import (NMPattern, SparsityDistribution, erk_distribution,
                               included_layers, mask_summary, nm_mask,
                               realized_sparsity, regrow_distribution,
                               topk_mask, uniform_distribution)


def validate_distribution(dist, numels, tol_pp=0.5):
    """Every rate in [0, 1], and the numel-weighted rate within tol_pp
    percentage points of the target."""
    if any(not 0.0 <= r <= 1.0 for r in dist.rates):
        raise ValueError("per-layer rate outside [0,1]")
    realized = float(np.dot(dist.rates, numels) / np.sum(numels))
    if abs(realized - dist.target) > tol_pp / 100.0:
        raise ValueError(
            f"weighted rate {realized:.4f} off target {dist.target:.4f} by >{tol_pp}pp")


def distribution_from_json(text):
    """The inverse of SparsityDistribution.to_json."""
    d = json.loads(text)
    return SparsityDistribution(rates=d["rates"], target=d["target"],
                                layer_indices=d["layer_indices"])


weight_arrays = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
    elements=st.floats(-10, 10, allow_nan=False))


@st.composite
def kernel_weights(draw, max_side=7):
    """1-D, 2-D or 4-D weights, either continuous or small integers whose
    magnitudes tie heavily (zeros and +-v pairs included)."""
    ndim = draw(st.sampled_from([1, 2, 4]))
    shape = draw(hnp.array_shapes(min_dims=ndim, max_dims=ndim, min_side=1,
                                  max_side=max_side))
    elements = draw(st.sampled_from([
        st.floats(-10, 10),
        st.integers(-3, 3).map(float),
        st.integers(-1, 1).map(float),
    ]))
    return draw(hnp.arrays(np.float64, shape, elements=elements))


class TestKernelsMatchReference:
    @settings(max_examples=200)
    @given(kernel_weights(), st.one_of(st.floats(0, 1), st.sampled_from([0.0, 1.0])))
    def test_topk_equals_stable_sort(self, w, rate):
        np.testing.assert_array_equal(topk_mask(w, rate), topk_mask_reference(w, rate))

    @given(kernel_weights(max_side=5).filter(lambda w: w.size <= 64))
    def test_topk_every_k(self, w):
        # every k from 0 to S, so k also lands inside each run of tied magnitudes
        s = w.size
        for j in range(s + 1):
            rate = j / s
            np.testing.assert_array_equal(topk_mask(w, rate),
                                          topk_mask_reference(w, rate))

    def test_topk_k_inside_tie_run(self):
        # magnitudes 3, 1, 1, 1, 1, 0; k = 3 keeps the 3 and the first two 1s
        w = np.array([-3.0, 1.0, -1.0, 1.0, -1.0, 0.0])
        np.testing.assert_array_equal(topk_mask(w, 0.5), [1, 1, 1, 0, 0, 0])

    @settings(max_examples=200)
    @given(kernel_weights(), st.integers(2, 16).flatmap(
        lambda m: st.tuples(st.integers(1, m), st.just(m))))
    # rows of 300 against m = 260 (a full group and a short one): a rank
    # dtype that cannot hold 259, such as int8 or uint8, wraps and keeps more
    @example(np.random.default_rng(5).standard_normal((2, 300)), (3, 260))
    @example(np.arange(-15.0, 15.0).reshape(3, 10) % 4, (2, 4))
    @example(np.ones((2, 3, 5)), (3, 8))
    def test_nm_equals_stable_sort(self, w, nm):
        n, m = nm
        np.testing.assert_array_equal(nm_mask(w, NMPattern(n, m)),
                                      nm_mask_reference(w, n, m))

    @pytest.mark.parametrize("n,m", [(2, 4), (1, 4), (4, 4), (1, 2), (3, 8)])
    @pytest.mark.parametrize("cols", [1, 3, 6, 10])
    def test_nm_short_trailing_group_on_ties(self, n, m, cols):
        w = np.array([[1.0, -1.0, 0.0, 2.0, -2.0, 1.0, 0.0, -1.0, 2.0, 1.0][:cols]] * 3)
        np.testing.assert_array_equal(nm_mask(w, NMPattern(n, m)),
                                      nm_mask_reference(w, n, m))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        w = np.ones((4, 8))
        w[2, 5] = bad
        for rate in (0.0, 0.5, 1.0):
            with pytest.raises(ValueError, match="non-finite"):
                topk_mask(w, rate)
        with pytest.raises(ValueError, match="non-finite"):
            nm_mask(w, NMPattern(2, 4))


class TestTopkMask:
    def test_rate_zero_all_ones(self, rng):
        w = rng.standard_normal((4, 5))
        assert topk_mask(w, 0.0).sum() == 20

    def test_rate_one_all_zeros(self, rng):
        w = rng.standard_normal((4, 5))
        assert topk_mask(w, 1.0).sum() == 0

    def test_hand_sorted_magnitudes(self):
        # magnitudes 0.5, 0.3, 0.1, 0.9 -> top-2 are indices 3 and 0
        w = np.array([0.5, -0.3, 0.1, 0.9])
        np.testing.assert_array_equal(topk_mask(w, 0.5), [1, 0, 0, 1])

    def test_tie_break_ascending_flat_index(self):
        w = np.array([2.0, -2.0, 2.0, 2.0])
        np.testing.assert_array_equal(topk_mask(w, 0.5), [1, 1, 0, 0])

    @settings(max_examples=200, deadline=None)
    @given(weight_arrays, st.floats(0, 1))
    def test_exact_cardinality(self, w, rate):
        mask = topk_mask(w, rate)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert mask.sum() == math.floor((1.0 - rate) * w.size)

    @settings(max_examples=200, deadline=None)
    @given(weight_arrays, st.floats(0.01, 0.99), st.floats(0.1, 100))
    def test_scale_invariance_of_selection(self, w, rate, c):
        np.testing.assert_array_equal(topk_mask(w, rate), topk_mask(c * w, rate))


class TestNMMask:
    def test_top2_of_4(self):
        np.testing.assert_array_equal(nm_mask(np.array([[1.0, 2.0, 3.0, 4.0]]),
                                              NMPattern(2, 4)), [[0, 0, 1, 1]])

    def test_magnitudes_not_values(self):
        np.testing.assert_array_equal(nm_mask(np.array([[-5.0, 1.0, -4.0, 2.0]]),
                                              NMPattern(2, 4)), [[1, 0, 1, 0]])

    def test_degenerate_keep_all(self, rng):
        w = rng.standard_normal((3, 8))
        assert nm_mask(w, NMPattern(4, 4)).sum() == w.size

    def test_invalid_pattern(self):
        with pytest.raises(ValueError):
            NMPattern(4, 4).sparsity  # n == m is allowed (degenerate)
            NMPattern(5, 4)
        with pytest.raises(ValueError):
            NMPattern(5, 4)

    def test_trailing_group_keeps_min(self):
        # reduction length 6 with m=4: trailing group of 2 keeps min(2, 2)
        w = np.arange(1.0, 7.0).reshape(1, 6)
        mask = nm_mask(w, NMPattern(2, 4))
        assert mask[0, 4:].sum() == 2

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 24)),
                      elements=st.floats(-10, 10)),
           st.integers(1, 3), st.integers(2, 8))
    def test_group_constraint_brute_force(self, w, n, m):
        if n >= m:
            return
        pat = NMPattern(n, m)
        mask = nm_mask(w, pat)
        rows = mask.reshape(w.shape[0], -1)
        for r in range(rows.shape[0]):
            for start in range(0, rows.shape[1], m):
                group = rows[r, start:start + m]
                assert group.sum() == min(n, len(group))

    def test_conv_kernel_grouping_runs_along_reduction_axis(self, rng):
        w = rng.standard_normal((4, 2, 3, 3))
        mask = nm_mask(w, NMPattern(2, 4))
        flat = mask.reshape(4, -1)
        for r in range(4):
            for start in range(0, 18, 4):
                g = flat[r, start:start + 4]
                assert g.sum() == min(2, len(g))


def erk_oracle(shapes, p):
    """Independent scripted evaluation of the ERK allocation formula."""
    numels = [int(np.prod(s)) for s in shapes]
    raw = [sum(s) / np.prod(s) for s in shapes]
    budget = (1.0 - p) * sum(numels)
    dense = [False] * len(shapes)
    while True:
        rem = budget - sum(n for n, d in zip(numels, dense) if d)
        denom = sum(n * r for n, r, d in zip(numels, raw, dense) if not d)
        eps = rem / denom if denom > 0 and rem > 0 else 0.0
        dens = [1.0 if d else eps * r for r, d in zip(raw, dense)]
        over = [i for i, (d, v) in enumerate(zip(dense, dens)) if not d and v > 1.0]
        if not over:
            return [1.0 - min(v, 1.0) for v in dens]
        for i in over:
            dense[i] = True


class TestDistributions:
    def test_single_layer_gets_target(self):
        net = tiny_mlp()
        net.layers = [net.layers[0]]  # single prunable layer
        dist = erk_distribution(net, 0.7)
        assert dist.rates == [pytest.approx(0.7)]

    def test_identical_layers_equal_rates(self):
        r = np.random.default_rng(0)
        net = Network([Dense(8, 8, r), Dense(8, 8, r)])
        dist = erk_distribution(net, 0.6)
        assert dist.rates[0] == pytest.approx(dist.rates[1]) == pytest.approx(0.6)

    def test_erk_matches_formula_oracle_on_mlp3(self):
        # both presets; a low p clamps a layer dense; one case excludes a layer
        cases = [(preset, in_shape, p, set())
                 for preset, in_shape in (("mlp3", (784,)), ("convnet-small", (1, 16, 16)))
                 for p in (0.05, 0.3, 0.5, 0.9, 0.99)]
        cases.append(("convnet-small", (1, 16, 16), 0.9, {0}))
        for preset, in_shape, p, exclude in cases:
            net = build_preset(preset, in_shape, 10, seed=0)
            dist = erk_distribution(net, p, exclude)
            shapes = [net.layers[i].weight.shape for i in dist.layer_indices]
            np.testing.assert_allclose(dist.rates, erk_oracle(shapes, p), atol=1e-12,
                                       err_msg=f"{preset} p={p} exclude={exclude}")

    @given(st.lists(st.tuples(st.integers(1, 10_000), st.floats(1e-3, 1e3)),
                    min_size=1, max_size=8),
           st.floats(0.0, 0.99), st.floats(0.01, 1.0))
    def test_regrow_keeps_rates_in_range_and_regrows_the_residual(self, layers, p, gap):
        numels = np.array([n for n, _ in layers], dtype=float)
        weights = np.array([w for _, w in layers])
        p_e = min(p + gap * (1.0 - p), 1.0)
        dist = regrow_distribution(list(range(len(layers))), numels,
                                   weights / weights.sum(), p, p_e)
        rates = np.array(dist.rates)
        assert ((rates >= 0.0) & (rates <= 1.0)).all()
        regrown = float(((p_e - rates) * numels).sum())
        assert regrown == pytest.approx((p_e - p) * numels.sum(), rel=1e-9)

    @pytest.mark.parametrize("preset,in_shape", [("mlp3", (784,)),
                                                 ("convnet-small", (1, 16, 16))])
    @pytest.mark.parametrize("p", [0.5, 0.8, 0.9, 0.95])
    def test_global_invariant_on_presets(self, preset, in_shape, p):
        net = build_preset(preset, in_shape, 10, seed=0)
        numels = [net.layers[i].weight.size for i in net.prunable_indices()]
        for dist in (erk_distribution(net, p), uniform_distribution(net, p)):
            validate_distribution(dist, numels, tol_pp=0.5)

    def test_uniform_rates(self):
        net = tiny_mlp()
        dist = uniform_distribution(net, 0.42)
        assert all(r == 0.42 for r in dist.rates)

    def test_exclusion_flag(self):
        net = build_preset("mlp3", (784,), 10, seed=0)
        first = net.prunable_indices()[0]
        dist = uniform_distribution(net, 0.9, exclude={first})
        assert first not in dist.layer_indices

    @pytest.mark.parametrize("exclude,stray", [({99}, [99]), ({1}, [1]),
                                               ({0, 2, 1}, [1, 2]), ({0, 3, 6}, [])])
    def test_exclusion_of_no_prunable_layer_rejected(self, exclude, stray):
        # mlp3: Dense at 0, 3, 6; layer 1 is a BatchNorm, 99 does not exist;
        # with no stray index, every prunable layer is excluded
        net = build_preset("mlp3", (784,), 10, seed=0)
        message = re.escape(f"exclude_layers {stray} name no prunable layer "
                            "(prunable: [0, 3, 6])" if stray
                            else "no prunable layers left after exclusion")
        with pytest.raises(ValueError, match=message):
            included_layers(net, exclude)
        assert included_layers(net, {0, 6}) == [3]

    def test_distribution_json_round_trip(self):
        net = tiny_mlp()
        dist = uniform_distribution(net, 0.5)
        back = distribution_from_json(dist.to_json())
        assert back.rates == dist.rates and back.target == dist.target


class TestGlobalSparsity:
    def test_all_ones_and_zeros(self):
        net = tiny_mlp()
        idx = net.prunable_indices()
        ones = {i: np.ones_like(net.layers[i].weight) for i in idx}
        zeros = {i: np.zeros_like(net.layers[i].weight) for i in idx}
        assert realized_sparsity(ones) == 0.0
        assert realized_sparsity(zeros) == 1.0

    def test_mixed_direct_count(self, rng):
        net = tiny_mlp()
        masks = {i: (rng.random(net.layers[i].weight.shape) > 0.5).astype(float)
                 for i in net.prunable_indices()}
        ones = sum(m.sum() for m in masks.values())
        total = sum(net.layers[i].weight.size for i in net.prunable_indices())
        assert realized_sparsity(masks) == pytest.approx(1.0 - ones / total)


class TestMaskExport:
    def test_round_trip(self, tmp_path, rng):
        net = tiny_conv()
        masks = {i: topk_mask(net.layers[i].weight, 0.7) for i in net.prunable_indices()}
        path = tmp_path / "masks.bin"
        save_masks(masks, path)
        loaded = load_masks(path)
        assert set(loaded) == set(masks)
        for i in masks:
            np.testing.assert_array_equal(loaded[i], masks[i])

    def test_summary_mentions_layers(self):
        net = tiny_mlp()
        masks = {i: topk_mask(net.layers[i].weight, 0.5) for i in net.prunable_indices()}
        text = mask_summary(masks)
        for i in masks:
            assert str(i) in text

    @given(st.data())
    def test_any_truncation_raises_typed_error(self, tmp_path_factory, data):
        net = tiny_conv()
        masks = {i: topk_mask(net.layers[i].weight, 0.7) for i in net.prunable_indices()}
        path = tmp_path_factory.mktemp("trunc") / "masks.bin"
        save_masks(masks, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        with pytest.raises(CheckpointError):
            load_masks(path)
