import math
from unittest.mock import patch

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import make_calib, tiny_conv, tiny_mlp
from layer_reference import full_trace_forward
from ptsparse.config import ExperimentConfig
from ptsparse.data import CalibrationSet
from ptsparse.nn import Dense, Network, build_preset
from ptsparse.nn.network import EVAL_CHUNK, predict_distribution
from ptsparse.sparsity import NMPattern, nm_distribution, topk_mask, uniform_distribution
from ptsparse.objectives import kl_loss, layerwise_mse
from ptsparse import training
from ptsparse.training import (TrainState, _apply_update, _batch_stream, _decay_rates,
                               build_masks, cosine_lr, mask_churn,
                               _run_layerwise_reconstruction, run_training, train_step)


class TestCosineLR:
    def test_endpoints(self):
        assert cosine_lr(0, 100, 0.2) == pytest.approx(0.2)
        assert cosine_lr(100, 100, 0.2) == pytest.approx(0.0, abs=1e-15)

    def test_midpoint_is_half(self):
        assert cosine_lr(50, 100, 0.2) == pytest.approx(0.1)

    def test_quarter_point(self):
        expected = 0.2 * 0.5 * (1 + math.cos(math.pi * 0.25))
        assert cosine_lr(25, 100, 0.2) == pytest.approx(expected)


class TestUpdateRule:
    def _apply(self, w, mask, grad, lr, alpha):
        layer = Dense(1, 1)
        layer.weight = np.array([[w]])
        layer.bias = np.zeros(1)
        net = Network([layer])
        _apply_update(net, {0: {"weight": np.array([[grad]])}}, lr,
                      {0: np.array([[mask]])}, alpha)
        return net.layers[0].weight[0, 0]

    def test_negative_zero_alpha_decays_kept_entries_by_positive_zero(self):
        # -0.0 >= 0, so it is accepted; used as is, the kept entries'
        # (1 - mask) * alpha decay would be -0.0 instead of +0.0
        rates = _decay_rates(np.array([0.0, 1.0]), -0.0)
        assert [math.copysign(1.0, r) for r in rates] == [1.0, 1.0]
        assert _decay_rates(np.array([0.0, 1.0]), 3e-5).tolist() == [3e-5, 0.0]

    def test_pruned_entry_hand_value(self):
        # w=0.1, g=0.2, lr=0.01, alpha=3e-5, pruned:
        # 0.1 - 0.01*0.2 - 3e-5*0.1 = 0.097997 exactly
        got = self._apply(0.1, 0.0, 0.2, 0.01, 3e-5)
        assert got == 0.1 - 0.01 * 0.2 - 3e-5 * 0.1
        assert got == pytest.approx(0.097997, abs=1e-12)

    def test_unpruned_entry_hand_value(self):
        # surviving weight: no decay, plain SGD step to 0.098
        got = self._apply(0.1, 1.0, 0.2, 0.01, 3e-5)
        assert got == 0.1 - 0.01 * 0.2
        assert got == pytest.approx(0.098, abs=1e-15)

    def test_pruned_decay_not_scaled_by_lr(self):
        a = self._apply(0.5, 0.0, 0.0, 0.01, 3e-5)
        b = self._apply(0.5, 0.0, 0.0, 0.0001, 3e-5)
        assert a == b == 0.5 - 3e-5 * 0.5

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_decay_and_update_match_where_reference(self, data):
        # oracle: the decay built with np.where, kept entries at 0.0 * lr
        # (the old weight_decay * lr at weight_decay = 0), and the update
        # written out with fresh arrays, over two steps; compared by bytes,
        # so a -0.0/+0.0 flip fails too
        rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
        values = st.one_of(st.floats(-10, 10), st.sampled_from([0.0, -0.0]))
        w = data.draw(hnp.arrays(np.float64, (rows, cols), elements=values))
        bias = data.draw(hnp.arrays(np.float64, rows, elements=values))
        mask = data.draw(hnp.arrays(np.float64, (rows, cols),
                                    elements=st.sampled_from([0.0, 1.0])))
        # -0.0 passes the >= 0 check; the decay uses it as +0.0
        alpha = data.draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0, 1e-2)))
        layer = Dense(cols, rows)
        layer.weight, layer.bias = w.copy(), bias.copy()
        net = Network([layer])
        ref_w, ref_b = w.copy(), bias.copy()
        for _ in range(2):
            lr = data.draw(st.one_of(st.just(0.0), st.floats(0, 1)))  # 0: last cosine step
            gw = data.draw(hnp.arrays(np.float64, (rows, cols), elements=values))
            gb = data.draw(hnp.arrays(np.float64, rows, elements=values))
            where = np.where(mask == 0.0, alpha + 0.0, 0.0 * lr)
            assert _decay_rates(mask, alpha).tobytes() == where.tobytes()
            _apply_update(net, {0: {"weight": gw, "bias": gb}}, lr, {0: mask}, alpha)
            ref_w = ref_w - (lr * gw + where * ref_w)
            ref_b = ref_b - lr * gb
            assert layer.weight.tobytes() == ref_w.tobytes()
            assert layer.bias.tobytes() == ref_b.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_pot_step_matches_sgd_reference(self, data):
        # one pot-baseline step of a lone Dense layer, with the layer's
        # gradients replaced by drawn ones: oracle w - lr*g and b - lr*gb,
        # pruned entries included, compared by bytes, so a -0.0/+0.0 flip
        # fails too
        rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
        values = st.one_of(st.floats(-10, 10), st.sampled_from([0.0, -0.0]))
        w = data.draw(hnp.arrays(np.float64, (rows, cols), elements=values))
        bias = data.draw(hnp.arrays(np.float64, rows, elements=values))
        gw = data.draw(hnp.arrays(np.float64, (rows, cols), elements=values))
        gb = data.draw(hnp.arrays(np.float64, rows, elements=values))
        mask = data.draw(hnp.arrays(np.float64, (rows, cols),
                                    elements=st.sampled_from([0.0, 1.0])))
        lr = data.draw(st.one_of(st.just(0.0), st.floats(0, 1)))
        layer = Dense(cols, rows)
        layer.weight, layer.bias = w.copy(), bias.copy()
        student = Network([layer])
        calib = make_calib(n=2, n_in=cols)
        cfg = ExperimentConfig(iterations=1, batch_size=2, lr=lr, metrics_every=2,
                               method="pot-baseline")
        rate = cosine_lr(0, 1, lr)  # one layer, one step
        with patch.object(Dense, "backward", lambda *args, **kwargs: (
                None, {"weight": gw.copy(), "bias": gb.copy()})):
            _run_layerwise_reconstruction(student.copy(), student, {0: mask}, calib, cfg,
                                          np.random.default_rng(0))
        assert layer.weight.tobytes() == (w - rate * gw).tobytes()
        assert layer.bias.tobytes() == (bias - rate * gb).tobytes()

    def test_alpha_zero_all_ones_mask_is_plain_sgd(self):
        # oracle: hand-rolled dense SGD on a copy, bit for bit
        teacher = tiny_mlp(seed=3)
        calib = make_calib(seed=3)
        net = teacher.copy()
        dist = uniform_distribution(net, 0.0)
        state = TrainState(student=net, masks=build_masks(net, dist), distribution=dist)
        cfg = ExperimentConfig(iterations=5, batch_size=16, lr=0.05, alpha=0.0,
                               delta_t=1, gamma=1.0)  # gamma = 1: plain KL

        ref = teacher.copy()
        rng = np.random.default_rng(0)
        for it in range(cfg.iterations):
            sel = rng.permutation(len(calib.inputs))[:cfg.batch_size]
            x = calib.inputs[sel]
            z = teacher.predict(x)
            train_step(state, (x, z), cfg, len(calib.inputs))
            trace = ref.forward(x, mode="train")
            _, gl = kl_loss(z, predict_distribution(trace.logits))
            grads = ref.backward(trace, gl)
            lr = cosine_lr(it, cfg.iterations, cfg.lr)
            for i, pg in grads.items():
                for name, g in pg.items():
                    if name in ("running_mean", "running_var"):
                        continue
                    ref.layers[i].params()[name] -= lr * g
        assert net.param_hash() == ref.param_hash()


class TestMasksAndChurn:
    def test_cardinality_preserved_after_refresh(self):
        net = tiny_mlp(seed=1)
        dist = uniform_distribution(net, 0.6)
        before = build_masks(net, dist)
        for i in dist.layer_indices:
            net.layers[i].weight += np.random.default_rng(0).standard_normal(
                net.layers[i].weight.shape)
        after = build_masks(net, dist)
        for i in dist.layer_indices:
            assert after[i].sum() == before[i].sum()

    def test_churn_zero_for_identical(self):
        net = tiny_mlp()
        masks = build_masks(net, uniform_distribution(net, 0.5))
        assert mask_churn(masks, masks) == 0.0

    def test_churn_counts_flips(self):
        old = {0: np.array([1.0, 0.0, 1.0, 0.0])}
        new = {0: np.array([1.0, 1.0, 0.0, 0.0])}
        assert mask_churn(old, new) == pytest.approx(0.5)

    def test_higher_alpha_damps_churn(self):
        # pruned-weight decay shrinks pruned magnitudes, so fewer entries
        # re-enter the mask at refresh time
        teacher = tiny_mlp(seed=6)
        calib = make_calib(seed=6, n=128)
        dist = uniform_distribution(teacher, 0.5)

        def total_churn(alpha):
            cfg = ExperimentConfig(iterations=60, batch_size=32, lr=0.05,
                                   alpha=alpha, delta_t=1, gamma=1.0, metrics_every=1)
            res = run_training(teacher, dist, calib, cfg, 0)
            return sum(row["churn"] for row in res.history)

        assert total_churn(0.1) < total_churn(0.0)

    def test_churn_measured_once_per_history_row(self, monkeypatch):
        # oracle: the rows of a run with a row at every step; the schedule
        # decides which rows are kept, not what they hold
        teacher = tiny_mlp(seed=6)
        calib = make_calib(seed=6, n=128)
        dist = uniform_distribution(teacher, 0.5)

        def run(every):
            cfg = ExperimentConfig(iterations=20, batch_size=32, lr=0.5, alpha=0.0,
                                   delta_t=2, gamma=1.0, metrics_every=every)
            return run_training(teacher, dist, calib, cfg, 0).history

        every_step = run(1)
        calls = []

        def counted(old, new):
            calls.append(1)
            return mask_churn(old, new)
        monkeypatch.setattr(training, "mask_churn", counted)
        rows = run(6)
        assert [row["iter"] for row in rows] == [6, 12, 18, 20]
        assert len(calls) == len(rows)
        assert rows == [every_step[row["iter"] - 1] for row in rows]
        assert any(row["churn"] > 0 for row in rows)


class TestRunTraining:
    def test_deterministic(self):
        teacher = tiny_mlp(seed=2)
        calib = make_calib(seed=2)
        dist = uniform_distribution(teacher, 0.5)
        cfg = ExperimentConfig(iterations=20, batch_size=16)
        a = run_training(teacher, dist, calib, cfg, 5)
        b = run_training(teacher, dist, calib, cfg, 5)
        assert a.student.param_hash() == b.student.param_hash()
        assert a.masks.keys() == b.masks.keys()
        for i in a.masks:
            np.testing.assert_array_equal(a.masks[i], b.masks[i])

    def test_final_weights_are_hard_masked(self):
        teacher = tiny_mlp(seed=2)
        calib = make_calib(seed=2)
        dist = uniform_distribution(teacher, 0.7)
        res = run_training(teacher, dist, calib,
                           ExperimentConfig(iterations=15, batch_size=16), 0)
        for i, m in res.masks.items():
            w = res.student.layers[i].weight
            np.testing.assert_array_equal(w[m == 0.0], 0.0)

    def test_zero_iterations_is_oneshot(self):
        teacher = tiny_mlp(seed=2)
        calib = make_calib(seed=2)
        dist = uniform_distribution(teacher, 0.5)
        res = run_training(teacher, dist, calib, ExperimentConfig(iterations=0), 0)
        for i, m in res.masks.items():
            np.testing.assert_array_equal(
                res.student.layers[i].weight,
                teacher.layers[i].weight * topk_mask(teacher.layers[i].weight, 0.5))

    def test_nm_masks_respect_pattern_throughout(self):
        teacher = tiny_mlp(seed=2)
        calib = make_calib(seed=2)
        pat = NMPattern(2, 4)
        res = run_training(teacher, nm_distribution(teacher, pat), calib,
                           ExperimentConfig(iterations=25, batch_size=16, delta_t=5), 0)
        for i, m in res.masks.items():
            rows = m.reshape(m.shape[0], -1)
            for r in range(rows.shape[0]):
                for start in range(0, rows.shape[1], pat.m):
                    g = rows[r, start:start + pat.m]
                    assert g.sum() == min(pat.n, len(g))

    def test_nm_skips_excluded_layers(self):
        teacher = tiny_mlp(seed=2)
        first, last = teacher.prunable_indices()
        res = run_training(teacher, nm_distribution(teacher, NMPattern(2, 4), {first}),
                           make_calib(seed=2), ExperimentConfig(iterations=4, batch_size=16), 0)
        assert set(res.masks) == {last}
        assert np.count_nonzero(res.student.layers[first].weight == 0.0) == 0

    def test_non_finite_step_names_iteration(self):
        teacher = tiny_mlp(seed=2)
        teacher.layers[-1].bias[0] = np.nan  # not a masked weight: the loss sees it
        with pytest.raises(ValueError, match="DST iteration 1: .*non-finite"):
            run_training(teacher, uniform_distribution(teacher, 0.5),
                         make_calib(seed=2), ExperimentConfig(iterations=4, batch_size=16), 0)

    @pytest.mark.parametrize("n,iterations", [(60, 1), (60, 9), (256, 5),
                                              (257, 5), (600, 3), (600, 40)])
    @pytest.mark.parametrize("gamma", [pytest.param(0.99, id="base_decayed_kl"),
                                       pytest.param(1.0, id="kl")])
    def test_teacher_forward_once_per_run(self, monkeypatch, n, iterations, gamma):
        # the frozen teacher's targets come from one chunked predict:
        # ceil(n/EVAL_CHUNK) forwards of at most EVAL_CHUNK rows, however many
        # steps run. Every forward of the teacher, traced or not, enters its
        # first layer.
        teacher = tiny_mlp(seed=4)
        first = teacher.layers[0]
        rows = []
        forward = type(first).forward

        def counting(self, x, *args, **kwargs):
            if self is first:
                rows.append(len(x))
            return forward(self, x, *args, **kwargs)

        monkeypatch.setattr(type(first), "forward", counting)
        run_training(teacher, uniform_distribution(teacher, 0.5), make_calib(seed=4, n=n),
                     ExperimentConfig(iterations=iterations, batch_size=16, gamma=gamma), 0)
        assert len(rows) == math.ceil(n / EVAL_CHUNK)
        assert sum(rows) == n and max(rows) <= EVAL_CHUNK

    def test_steps_train_on_cached_targets(self):
        # oracle: the same batch order, with targets sliced from one
        # whole-set predict, through train_step by hand
        teacher = tiny_mlp(seed=9)
        calib = make_calib(seed=9, n=40)
        dist = uniform_distribution(teacher, 0.5)
        cfg, seed = ExperimentConfig(iterations=7, batch_size=16, gamma=1.0), 3
        res = run_training(teacher, dist, calib, cfg, seed)

        net = teacher.copy()
        state = TrainState(student=net, masks=build_masks(net, dist), distribution=dist)
        z = teacher.predict(calib.inputs)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7D)))
        orders = [rng.permutation(40) for _ in range(3)]  # 3 batches per epoch
        for it in range(cfg.iterations):
            epoch, start = divmod(it, 3)
            sel = orders[epoch][16 * start:16 * (start + 1)]
            train_step(state, (calib.inputs[sel], z[sel]), cfg, 40)
        for i, m in state.masks.items():
            net.layers[i].weight *= m
        assert net.param_hash() == res.student.param_hash()

    def test_layerwise_mse_improves_reconstruction(self):
        # single dense layer: the reconstruction objective is exactly the
        # output MSE, so tuning must beat one-shot pruning
        r = np.random.default_rng(8)
        teacher = Network([Dense(6, 4, r)])
        calib = make_calib(seed=8, n=128)
        dist = uniform_distribution(teacher, 0.7)
        cfg = ExperimentConfig(iterations=120, batch_size=32, lr=0.05,
                               method="pot-baseline")
        res = run_training(teacher, dist, calib, cfg, 0)
        oneshot = run_training(teacher, dist, calib, ExperimentConfig(iterations=0), 0)
        z = teacher.predict(calib.inputs)

        def mse(net):
            return float(np.mean((net.predict(calib.inputs) - z) ** 2))

        assert mse(res.student) < mse(oneshot.student)

    @pytest.mark.parametrize("maker,n_in", [(tiny_mlp, (6,)), (tiny_conv, (1, 6, 6))])
    def test_layerwise_teacher_forward_stops_at_tuned_layer(self, maker, n_in):
        # oracle: the reconstruction loop as it was, with the teacher's full
        # eval forward and both layer outputs read from kept activations
        teacher = maker(seed=7)
        r = np.random.default_rng(7)
        calib = CalibrationSet(inputs=r.standard_normal((40,) + n_in),
                               labels=r.integers(0, 3, 40))
        dist = uniform_distribution(teacher, 0.6)
        cfg, seed = ExperimentConfig(iterations=12, batch_size=16, lr=0.05, metrics_every=5,
                                     method="pot-baseline"), 2
        res = run_training(teacher, dist, calib, cfg, seed)

        student = teacher.copy()
        masks = build_masks(student, dist)
        idxs = student.prunable_indices()
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7D)))
        step = 0
        for li in idxs:
            for sel in _batch_stream(40, cfg.batch_size, cfg.iterations // len(idxs), rng):
                x = calib.inputs[sel]
                _, t_acts = full_trace_forward(teacher, x, mode="eval")
                s_caches, s_acts = full_trace_forward(student, x, masks, mode="train")
                loss, gy = layerwise_mse(t_acts[li + 1], s_acts[li + 1])
                _, pg = student.layers[li].backward(gy / t_acts[li + 1].size, s_caches[li])
                lr = cosine_lr(step, cfg.iterations, cfg.lr)
                student.layers[li].weight -= lr * pg["weight"] * masks[li]
                student.layers[li].bias -= lr * pg["bias"]
                step += 1
        for i, m in masks.items():
            student.layers[i].weight *= m
        assert student.param_hash() == res.student.param_hash()
        # every metrics_every-th step and the loop's last: 2 layers of 6 steps
        assert [row["iter"] for row in res.history] == [5, 10, 12]

    def test_layerwise_takes_at_most_iterations_steps(self):
        # mlp3 has 3 prunable layers: iterations // 3 steps each, none below 3
        teacher = build_preset("mlp3", (6,), 3, seed=4)
        calib = make_calib(seed=4)
        dist = uniform_distribution(teacher, 0.5)

        def run(iterations):
            return run_training(teacher, dist, calib, ExperimentConfig(
                iterations=iterations, batch_size=16, lr=0.01, metrics_every=1,
                method="pot-baseline"), 0)

        oneshot = run(0).student.param_hash()
        for iterations in range(1, 8):
            res = run(iterations)
            lrs = [row["lr"] for row in res.history]
            assert len(res.history) <= iterations
            assert all(b <= a for a, b in zip(lrs, lrs[1:]))
            if iterations < 3:
                assert res.student.param_hash() == oneshot

    @pytest.mark.parametrize("method,iters", [("pot-baseline", [18]),
                                              ("uniform+dst", [20])])
    def test_both_loops_write_their_last_step(self, method, iters):
        # mlp3's 3 layers take 20 // 3 = 6 reconstruction steps each, so
        # pot-baseline's loop ends at step 18; DST's ends at step 20
        teacher = build_preset("mlp3", (6,), 3, seed=4)
        res = run_training(teacher, uniform_distribution(teacher, 0.5), make_calib(seed=4),
                           ExperimentConfig(iterations=20, batch_size=16, metrics_every=200,
                                            method=method), 0)
        assert [row["iter"] for row in res.history] == iters

    def test_history_rows_have_expected_keys(self):
        teacher = tiny_mlp(seed=2)
        calib = make_calib(seed=2)
        dist = uniform_distribution(teacher, 0.5)
        cfg = ExperimentConfig(iterations=10, batch_size=16, metrics_every=5)
        res = run_training(teacher, dist, calib, cfg, 0)
        assert res.history
        for row in res.history:
            assert set(row) == {"iter", "loss", "lr", "churn", "sparsity",
                                "calib_acc"}

    def test_empty_calibration_rejected(self):
        teacher = tiny_mlp()
        calib = CalibrationSet(inputs=np.zeros((0, 6)),
                               labels=np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            run_training(teacher, uniform_distribution(teacher, 0.5), calib,
                         ExperimentConfig(iterations=1), 0)
