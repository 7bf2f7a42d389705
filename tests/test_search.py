import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_calib, tiny_mlp
from ptsparse.config import ExperimentConfig
from ptsparse.data import CalibrationSet
from ptsparse.nn import Dense, Network
from ptsparse.search import decode, evolve, fitness, noised_batches
from ptsparse.sparsity import topk_mask


def fast_cfg(**kw):
    kw.setdefault("sparsity", 0.5)
    kw.setdefault("population", 4)
    kw.setdefault("generations", 2)
    kw.setdefault("tournament", 2)
    kw.setdefault("elites", 1)
    return ExperimentConfig(**kw)


class TestDecode:
    # a gene far above the other regrows everything into its layer, so the
    # other layer stays at the excessive rate P_e
    def test_p_e_defaults_above_p(self):
        net = Network([Dense(10, 10), Dense(10, 10)])
        rates = decode(np.array([50.0, 0.0]), net, ExperimentConfig(sparsity=0.9)).rates
        assert rates[1] == pytest.approx(0.95)

    def test_p_e_capped_at_one(self):
        net = Network([Dense(10, 10), Dense(10, 10)])
        rates = decode(np.array([50.0, 0.0]), net, ExperimentConfig(sparsity=0.99)).rates
        assert rates[1] == 1.0

    def test_residual_hand_value(self):
        # single layer of 1000 weights: Residual = (0.95 - 0.9) * 1000 = 50
        r = np.random.default_rng(0)
        net = Network([Dense(40, 25, r)])
        dist = decode(np.zeros(1), net, ExperimentConfig(sparsity=0.9))
        regrown = (0.95 - dist.rates[0]) * 1000
        assert regrown == pytest.approx(50.0)
        assert dist.rates[0] == pytest.approx(0.9)

    def test_uniform_genome_equal_layers_gives_target(self):
        r = np.random.default_rng(0)
        net = Network([Dense(8, 8, r), Dense(8, 8, r)])
        dist = decode(np.array([0.3, 0.3]), net, fast_cfg())
        assert dist.rates == [pytest.approx(0.5), pytest.approx(0.5)]

    def test_dominant_gene_scalar_oracle(self):
        # one gene >> the other: nearly all residual regrows into layer 0
        r = np.random.default_rng(0)
        net = Network([Dense(10, 10, r), Dense(10, 10, r)])
        dist = decode(np.array([50.0, 0.0]), net, ExperimentConfig(sparsity=0.8))
        residual = (0.85 - 0.8) * 200
        assert dist.rates[0] == pytest.approx(0.85 - residual / 100)
        assert dist.rates[1] == pytest.approx(0.85)

    def test_clamp_and_redistribute(self):
        # layer 0 is tiny: full residual would push its rate below zero,
        # the surplus must land on layer 1 and the keep budget must hold
        r = np.random.default_rng(0)
        net = Network([Dense(2, 2, r), Dense(20, 20, r)])
        dist = decode(np.array([50.0, 0.0]), net, ExperimentConfig(sparsity=0.8))
        assert dist.rates[0] == pytest.approx(0.0)
        numels = np.array([4.0, 400.0])
        kept = ((1 - np.array(dist.rates)) * numels).sum()
        assert kept == pytest.approx((1 - 0.8) * numels.sum(), abs=1e-9)

    def test_layer_the_regrow_fills_is_exactly_dense(self):
        # 0.95 - (0.95 * 1280) / 1280 is 2**-53, and topk_mask would keep 1279 of 1280
        net = Network([Dense(256, 256), Dense(128, 10)])
        dist = decode(np.array([0.0, 50.0]), net, ExperimentConfig(sparsity=0.9))
        assert dist.rates[1] == 0.0
        assert topk_mask(net.layers[1].weight, dist.rates[1]).all()

    def test_wrong_genome_length(self):
        with pytest.raises(ValueError):
            decode(np.zeros(5), tiny_mlp(), fast_cfg())

    def test_exclude_layers(self):
        net = tiny_mlp()
        first = net.prunable_indices()[0]
        cfg = fast_cfg(exclude_layers=(first,))
        dist = decode(np.zeros(len(net.prunable_indices()) - 1), net, cfg)
        assert first not in dist.layer_indices

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
           st.floats(0.3, 0.9))
    def test_budget_identity(self, genes, p):
        r = np.random.default_rng(0)
        net = Network([Dense(7, 11, r), Dense(11, 5, r)])
        p_e = min(p + 0.05, 1.0)
        dist = decode(np.array(genes), net, ExperimentConfig(sparsity=p))
        numels = np.array([77.0, 55.0])
        rates = np.array(dist.rates)
        assert np.all((rates >= 0.0) & (rates <= p_e + 1e-12))
        regrown = ((p_e - rates) * numels).sum()
        residual = (p_e - p) * numels.sum()
        assert abs(regrown - residual) <= 1e-9 * max(residual, 1.0)


class TestFitness:
    def test_deterministic(self):
        net, calib = tiny_mlp(seed=2), make_calib()
        cfg = fast_cfg()
        g = np.array([0.1, -0.2])
        a = fitness(g, net, calib, cfg, seed=7)
        b = fitness(g, net, calib, cfg, seed=7)
        assert a.fitness == b.fitness
        assert a.distribution.rates == b.distribution.rates

    def test_teacher_unchanged(self):
        net, calib = tiny_mlp(seed=2), make_calib()
        before = net.param_hash()
        fitness(np.zeros(2), net, calib, fast_cfg(), seed=3)
        assert net.param_hash() == before

    def test_empty_calibration_rejected(self):
        calib = CalibrationSet(inputs=np.zeros((0, 6)),
                               labels=np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            fitness(np.zeros(2), tiny_mlp(), calib, fast_cfg(), seed=0)

    def test_recal_uses_noised_eval_uses_clean(self, monkeypatch):
        # BN recalibration must see perturbed inputs, accuracy the clean ones
        net, calib = tiny_mlp(seed=2), make_calib()
        seen = {}
        orig = Network.bn_recalibrate

        def spy(self, batches, masks=None):
            batches = list(batches)
            seen["recal"] = np.concatenate(batches)
            return orig(self, batches, masks=masks)

        monkeypatch.setattr(Network, "bn_recalibrate", spy)
        fitness(np.zeros(2), net, calib, fast_cfg(noise_std=0.5), seed=1)
        assert not np.allclose(seen["recal"], calib.inputs)

    def test_nchw_calibration_noised_as_its_rows(self, monkeypatch):
        # the noise is drawn on the rows a Dense layer 0 reads: one scale per
        # feature and draws of the rows' shape, so an NCHW calibration set
        # recalibrates and scores as its rows, bit for bit
        net, calib = tiny_mlp(seed=2, n_in=12), make_calib(n_in=12)
        nchw = CalibrationSet(inputs=calib.inputs.reshape(-1, 3, 2, 2), labels=calib.labels)
        seen = []
        orig = Network.bn_recalibrate

        def spy(self, batches, masks=None):
            batches = list(batches)
            seen.append(np.concatenate(batches))
            return orig(self, batches, masks=masks)

        monkeypatch.setattr(Network, "bn_recalibrate", spy)
        g, cfg = np.array([0.3, -0.2]), fast_cfg(noise_std=0.5)
        rows, images = (fitness(g, net, c, cfg, seed=4) for c in (calib, nchw))
        assert seen[0].shape == seen[1].shape == (64, 12)
        assert seen[0].tobytes() == seen[1].tobytes()
        assert rows.fitness == images.fitness

    @pytest.mark.parametrize("shape,axes", [((40, 6), (0,)), ((40, 3, 2, 2), (0, 2, 3))])
    def test_noise_scaled_per_input_unit_of_layer_0(self, shape, axes):
        # per feature of rows, per channel of an NCHW batch
        r = np.random.default_rng(0)
        x = r.standard_normal(shape) * np.arange(1.0, shape[1] + 1).reshape(
            (1, -1) + (1,) * (len(shape) - 2))
        out = np.concatenate(list(noised_batches(x, 16, np.random.default_rng(1), 0.5)))
        scale = 0.5 * x.std(axis=axes, keepdims=True)
        np.testing.assert_array_equal(
            out, x + np.random.default_rng(1).standard_normal(shape) * scale)

    def test_noise_std_zero_leaves_batches_clean(self):
        x = np.random.default_rng(0).standard_normal((10, 4))
        out = np.concatenate(list(noised_batches(
            x, 4, np.random.default_rng(1), 0.0)))
        np.testing.assert_array_equal(out, x)


class TestEvolve:
    def test_best_non_decreasing_across_generations(self):
        net, calib = tiny_mlp(seed=5), make_calib(seed=5)
        _, history = evolve(net, calib, fast_cfg(generations=4), seed=3)
        bests = [h.best for h in history]
        assert all(b >= a for a, b in zip(bests, bests[1:]))

    def test_deterministic_given_seed(self):
        net, calib = tiny_mlp(seed=5), make_calib(seed=5)
        a, _ = evolve(net, calib, fast_cfg(), seed=9)
        b, _ = evolve(net, calib, fast_cfg(), seed=9)
        assert a.fitness == b.fitness
        np.testing.assert_array_equal(a.genome, b.genome)

    def test_history_length(self):
        net, calib = tiny_mlp(seed=5), make_calib(seed=5)
        _, history = evolve(net, calib, fast_cfg(generations=3), seed=0)
        assert len(history) == 4  # initial population plus each generation

    def test_stats_format_one_line_per_generation(self):
        net, calib = tiny_mlp(seed=5), make_calib(seed=5)
        _, history = evolve(net, calib, fast_cfg(), seed=0)
        lines = [st.format() for st in history]
        assert len(lines) == 3 and lines[0].startswith("gen=0")
        assert all("\n" not in line for line in lines)

    def test_finds_planted_fragile_layer(self):
        # layer 0 is a dense random mixing that every output depends on, the
        # middle layer replicates each feature six times and the head
        # averages the replicas. Pruning the middle layer only drops spare
        # copies while pruning layer 0 loses information, so the search
        # should keep layer 0 denser than the redundant layer.
        r = np.random.default_rng(0)
        l0 = Dense(6, 6, r)
        l0.weight = r.standard_normal((6, 6))
        bulk = Dense(6, 36, r)
        rep = np.zeros((36, 6))
        for j in range(36):
            rep[j, j % 6] = 1.0
        bulk.weight = rep + 0.01 * r.standard_normal((36, 6))
        head = Dense(36, 3, r)
        hr = r.standard_normal((3, 6))
        head.weight = np.array([[hr[c, j % 6] / 6.0 for j in range(36)]
                                for c in range(3)])
        net = Network([l0, bulk, head])
        x = r.standard_normal((128, 6))
        labels = np.argmax(net.predict(x), axis=1)
        calib = CalibrationSet(inputs=x, labels=labels)
        cfg = ExperimentConfig(sparsity=0.6, population=8, generations=4,
                               tournament=3, elites=2)
        best, _ = evolve(net, calib, cfg, seed=1)
        rates = dict(zip(best.distribution.layer_indices,
                         best.distribution.rates))
        assert rates[0] < rates[1]
