import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import finite_difference_grads, tiny_conv, tiny_conv_stride2, tiny_mlp
from layer_reference import (BatchNormReference, batch_first, batch_last,
                             full_trace_backward, full_trace_forward, full_trace_logits,
                             reference_layer, reference_network)
from ptsparse.config import ExperimentConfig
from ptsparse.data import CalibrationSet
from ptsparse.nn import (CheckpointError, Dense, Network, ShapeMismatchError,
                         build_preset, layer_from_spec, load_masks, load_network,
                         predict_distribution, save_masks, save_network)
from ptsparse.nn.checkpoint import (MAGIC, MASK_MAGIC, atomic_write, read_container,
                                    write_container)
from ptsparse.nn.layers import AvgPool, BatchNorm, Conv2d, Flatten, ReLU
from ptsparse.nn.network import EVAL_CHUNK
from ptsparse.sparsity import topk_mask, uniform_distribution
from ptsparse.training import run_training


def one_dense(w, bias=None):
    w = np.asarray(w, dtype=np.float64)
    layer = Dense(w.shape[1], w.shape[0])
    layer.weight = np.asarray(w, dtype=np.float64)
    if bias is not None:
        layer.bias = np.asarray(bias, dtype=np.float64)
    return Network([layer])


class TestForward:
    def test_identity_mask(self):
        net = one_dense([[1.0, 2.0], [3.0, 4.0]])
        trace = net.forward(np.array([[1.0, 1.0]]), masks={0: np.ones((2, 2))})
        np.testing.assert_allclose(trace.logits, [[3.0, 7.0]])

    def test_diagonal_mask_drops_terms(self):
        net = one_dense([[1.0, 2.0], [3.0, 4.0]])
        trace = net.forward(np.array([[1.0, 1.0]]), masks={0: np.eye(2)})
        np.testing.assert_allclose(trace.logits, [[1.0, 4.0]])

    def test_mask_equivalence_with_zeroed_copy(self, rng):
        # oracle: explicitly zero the masked weights in a copy
        net = tiny_mlp(seed=7)
        x = rng.standard_normal((4, 6))
        masks = {i: topk_mask(net.layers[i].weight, 0.5) for i in net.prunable_indices()}
        zeroed = net.copy()
        for i, m in masks.items():
            zeroed.layers[i].weight *= m
        a = net.forward(x, masks=masks).logits
        b = zeroed.forward(x).logits
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_conv_mask_equivalence(self, rng):
        net = tiny_conv(seed=3)
        x = rng.standard_normal((2, 1, 6, 6))
        masks = {i: topk_mask(net.layers[i].weight, 0.4) for i in net.prunable_indices()}
        zeroed = net.copy()
        for i, m in masks.items():
            zeroed.layers[i].weight *= m
        np.testing.assert_allclose(net.forward(x, masks=masks).logits,
                                   zeroed.forward(x).logits, atol=1e-12)

    def test_bad_mask_shape_reports_layer(self):
        net = tiny_mlp()
        with pytest.raises(ShapeMismatchError) as exc:
            net.forward(np.zeros((1, 6)), masks={0: np.ones((2, 2))})
        assert exc.value.layer_index == 0

    @pytest.mark.parametrize("idx", [-1, -4, 4])
    def test_mask_key_outside_the_layers_rejected(self, idx):
        # -1 would index the prunable last Dense from the end
        net = tiny_mlp()
        with pytest.raises(ShapeMismatchError, match="non-prunable") as exc:
            net.forward(np.zeros((1, 6)), masks={idx: np.ones((3, 5))})
        assert exc.value.layer_index == idx

    def test_bad_input_shape_rejected(self):
        net = tiny_mlp()
        with pytest.raises(ShapeMismatchError):
            net.forward(np.zeros((1, 9)))


class TestBackward:
    def test_ste_passes_gradient_through_zero_mask(self):
        net = one_dense([[0.5]])
        mask = {0: np.zeros((1, 1))}
        x = np.array([[3.0]])
        trace = net.forward(x, masks=mask)
        grads = net.backward(trace, np.array([[1.0]]))
        assert grads[0]["weight"][0, 0] == pytest.approx(3.0)

    def test_hard_mask_blocks_gradient(self):
        # a pruned entry never reaches the masked forward, so its true
        # gradient is 0: the STE gradient times the mask
        net = one_dense([[0.5]])
        mask = {0: np.zeros((1, 1))}
        x = np.array([[3.0]])
        trace = net.forward(x, masks=mask)
        grads = net.backward(trace, np.array([[1.0]]))
        net.layers[0].weight[0, 0] = 0.7
        assert net.forward(x, masks=mask).logits.tobytes() == trace.logits.tobytes()
        assert (grads[0]["weight"] * mask[0])[0, 0] == 0.0

    def test_trace_mismatch_rejected(self):
        net, other = tiny_mlp(), tiny_mlp()
        trace = net.forward(np.zeros((1, 6)))
        with pytest.raises(ValueError):
            other.backward(trace, np.zeros((1, 3)))

    @pytest.mark.parametrize("maker", [tiny_mlp, tiny_conv, tiny_conv_stride2])
    def test_gradients_match_finite_differences(self, maker, rng):
        net = maker(seed=11)
        x = (rng.standard_normal((3, 6)) if maker is tiny_mlp
             else rng.standard_normal((3, 1, 6, 6)))
        c = rng.standard_normal((3, 3))
        masks = {i: topk_mask(net.layers[i].weight, 0.5)
                 for i in net.prunable_indices()}

        def loss():
            return float(np.sum(c * net.forward(x, masks=masks, mode="train").logits))

        trace = net.forward(x, masks=masks, mode="train")
        grads = net.backward(trace, c)
        arrays, analytic = [], []
        for i, pg in grads.items():
            for name, g in pg.items():
                arrays.append(net.layers[i].params()[name])
                # a pruned entry's true gradient is 0: mask the STE gradient
                analytic.append(g * masks[i] if name == "weight" else g)
        numeric = finite_difference_grads(loss, arrays)
        for a, n in zip(analytic, numeric):
            np.testing.assert_allclose(a, n, rtol=1e-4, atol=1e-7)


class TestBNRecalibrate:
    def _bn_net(self):
        return Network([BatchNorm(3)])

    def test_single_batch_mean_exact(self, rng):
        net = self._bn_net()
        batch = rng.standard_normal((10, 3))
        net.bn_recalibrate([batch])
        bn = net.layers[0]
        np.testing.assert_allclose(bn.running_mean, batch.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(bn.running_var, batch.var(axis=0), atol=1e-12)

    def test_identical_batches_idempotent(self, rng):
        batch = rng.standard_normal((8, 3))
        one, two = self._bn_net(), self._bn_net()
        one.bn_recalibrate([batch])
        two.bn_recalibrate([batch, batch])
        np.testing.assert_allclose(one.layers[0].running_mean, two.layers[0].running_mean)
        np.testing.assert_allclose(one.layers[0].running_var, two.layers[0].running_var,
                                   atol=1e-12)

    def test_constant_stream(self):
        net = self._bn_net()
        net.bn_recalibrate([np.full((5, 3), 2.5), np.full((7, 3), 2.5)])
        bn = net.layers[0]
        np.testing.assert_allclose(bn.running_mean, 2.5)
        np.testing.assert_allclose(bn.running_var, 0.0, atol=1e-12)

    def test_two_batches_equal_pooled_moments(self, rng):
        # oracle: moments of the concatenated stream
        net = self._bn_net()
        a, b = rng.standard_normal((6, 3)), rng.standard_normal((9, 3)) + 2.0
        net.bn_recalibrate([a, b])
        both = np.concatenate([a, b])
        np.testing.assert_allclose(net.layers[0].running_mean, both.mean(axis=0),
                                   atol=1e-12)
        np.testing.assert_allclose(net.layers[0].running_var, both.var(axis=0),
                                   atol=1e-12)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            self._bn_net().bn_recalibrate([])

    def test_first_layer_bn_on_nchw_batches(self, rng):
        # the last BatchNorm is layer 0: it folds the moments of the network
        # input, per channel of the NCHW batches
        net = Network([BatchNorm(3), ReLU()])
        a, b = rng.standard_normal((4, 3, 2, 5)), rng.standard_normal((6, 3, 2, 5)) + 1.0
        net.bn_recalibrate([a, b])
        both = np.concatenate([a, b])
        np.testing.assert_allclose(net.layers[0].running_mean, both.mean(axis=(0, 2, 3)),
                                   atol=1e-12)
        np.testing.assert_allclose(net.layers[0].running_var, both.var(axis=(0, 2, 3)),
                                   atol=1e-12)

    @pytest.mark.parametrize("layers,shape,masks,index", [
        ([BatchNorm(3), ReLU()], (4, 1, 2, 5), None, 0),  # the last BatchNorm is layer 0
        ([ReLU(), BatchNorm(3), ReLU()], (4, 1, 2, 5), None, 1),  # it only folds moments
        ([ReLU(), BatchNorm(3)], (4, 2), None, 1),
        ([BatchNorm(3)], (4, 3), {0: np.ones((3, 3))}, 0),
        ([Dense(6, 3)], (4, 5), None, 0),  # with no BatchNorm, layer 0 still checks the batch
    ])
    def test_malformed_batch_rejected(self, layers, shape, masks, index):
        with pytest.raises(ShapeMismatchError) as exc:
            Network(layers).bn_recalibrate([np.ones(shape)], masks=masks)
        assert exc.value.layer_index == index

    def test_deterministic_given_stream_order(self, rng):
        batches = [rng.standard_normal((4, 3)) for _ in range(3)]
        one, two = self._bn_net(), self._bn_net()
        one.bn_recalibrate(list(batches))
        two.bn_recalibrate(list(batches))
        assert one.param_hash() == two.param_hash()


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


SEEDS = st.integers(0, 2**32 - 1)
SCALES = st.sampled_from([1e-3, 1.0, 1e3])


class TestLayersMatchReference:
    """The BN moments and affine over several batches against the two-pass
    np.mean/np.var oracle in layer_reference."""

    @given(shape=st.one_of(
               st.tuples(st.integers(1, 70), st.integers(1, 8)),
               st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(1, 6),
                         st.integers(1, 6))),
           mode=st.sampled_from(["train", "recal"]), batches=st.integers(1, 3),
           seed=SEEDS, scale=SCALES)
    @example(shape=(1, 4), mode="train", batches=2, seed=1, scale=1.0)
    @example(shape=(1, 4), mode="recal", batches=2, seed=1, scale=1.0)
    @example(shape=(5, 3, 1, 1), mode="train", batches=2, seed=2, scale=1.0)
    @example(shape=(5, 3, 1, 1), mode="recal", batches=3, seed=2, scale=1.0)
    @example(shape=(1, 2, 1, 1), mode="recal", batches=2, seed=3, scale=1.0)
    @example(shape=(1, 2, 3, 3), mode="train", batches=1, seed=4, scale=1e3)
    def test_batchnorm(self, shape, mode, batches, seed, scale):
        r = np.random.default_rng(seed)
        c = shape[1]
        fast, ref = BatchNorm(c), BatchNormReference(c)
        for name in ("gamma", "beta", "running_mean", "running_var"):
            value = r.uniform(0.5, 2.0, c)
            setattr(fast, name, value.copy())
            setattr(ref, name, value.copy())
        if mode == "recal":
            fast.reset_stats()
            ref.reset_stats()
        for _ in range(batches):
            x = r.standard_normal(shape) * scale + r.standard_normal()
            cache, cache_ref = check_bn_forward(fast, ref, x, mode)
            assert cache["n"] == cache_ref["n"]


def assert_close(a, ref, scale=None):
    """Within rtol 1e-12 and an atol of 1e-12 times scale, the largest term
    the reference sums (by default its own largest magnitude): for kernels
    that sum in another order than their reference."""
    assert a.shape == ref.shape
    scale = np.abs(ref).max(initial=0.0) if scale is None else scale
    np.testing.assert_allclose(a, ref, rtol=1e-12, atol=1e-12 * scale)


def check_layer(layer, x, gy, weff=None, approx=(), scales=None):
    """Forward output, cache arrays, input and parameter gradients of layer
    bit-equal to its reference kernels, on batch-first x and gy that the
    layer gets batch last; without the input gradient, the same parameter
    gradients. The output ("y"), input gradient ("gx") and parameter
    gradients named in approx are compared with assert_close instead, at the
    scale that scales gives their name, if any."""
    scales = scales or {}

    def compare(name, a, ref):
        if name in approx:
            assert_close(a, ref, scales.get(name))
        else:
            assert_same_bits(a, ref)

    ref = reference_layer(layer)
    y, cache = layer.forward(batch_last(x), weff=weff)
    y_ref, cache_ref = ref.forward(x, weff=weff)
    compare("y", batch_first(y, y_ref.shape), y_ref)
    for key, value in cache_ref.items():
        if isinstance(value, np.ndarray):  # weff is a weight, not an activation
            got = cache[key] if key == "weff" else batch_first(cache[key], value.shape)
            assert_same_bits(got, value)
    gx, grads = layer.backward(batch_last(gy), cache)
    gx_ref, grads_ref = ref.backward(gy, cache_ref)
    compare("gx", batch_first(gx, gx_ref.shape), gx_ref)
    none, grads_only = layer.backward(batch_last(gy), cache, input_grad=False)
    assert none is None
    for got in (grads, grads_only):
        assert got.keys() == grads_ref.keys()
        for name in grads_ref:
            compare(name, got[name], grads_ref[name])


def check_bn_forward(bn, ref, x, mode):
    """BatchNorm's per-channel affine against the xhat-then-scale reference
    in one forward, each output within assert_close of the largest term it
    sums: for y, |x| or |mean| times |gamma * invstd|, plus |beta|; for the
    mean and xhat, |x| or |mean| (times invstd). Returns both caches."""
    shift = max(np.abs(x).max(initial=0.0), np.abs(bn.running_mean).max())
    y, cache = bn.forward(batch_last(x), mode=mode)
    y_ref, cache_ref = ref.forward(x, mode=mode)
    invstd = cache_ref["invstd"]
    assert_close(cache["invstd"], invstd)
    shp = ref._bshape(x)
    d = (x - bn.running_mean.reshape(shp) if mode == "eval"
         else batch_first(cache["d"], x.shape))
    assert_close(d * cache["invstd"].reshape(shp), cache_ref["xhat"],
                 shift * invstd.max())
    assert_close(batch_first(y, y_ref.shape), y_ref,
                 shift * np.abs(bn.gamma * invstd).max() + np.abs(bn.beta).max())
    assert_close(bn.running_mean, ref.running_mean, shift)
    assert_close(bn.running_var, ref.running_var)
    return cache, cache_ref


def check_batchnorm(bn, x, gy, mode):
    """check_bn_forward, then the gradients within assert_close of the
    largest term each sums: |gy * xhat| for gamma, |gy| for beta and, for the
    input, gamma * invstd times |gy|, |xhat * ggamma / n| or |gbeta / n| (with
    two rows per channel the true gradient cancels to rounding noise); without
    the input gradient, the same parameter gradients. An eval-mode forward
    has no backward: it raises ValueError."""
    ref = reference_layer(bn)
    cache, cache_ref = check_bn_forward(bn, ref, x, mode)
    if mode == "eval":
        with pytest.raises(ValueError, match="train or recal forward"):
            bn.backward(batch_last(gy), cache)
        return
    gx, grads = bn.backward(batch_last(gy), cache)
    gx_ref, grads_ref = ref.backward(gy, cache_ref)
    xhat, invstd = cache_ref["xhat"], cache_ref["invstd"]
    shp = ref._bshape(x)
    assert grads.keys() == grads_ref.keys() == {"gamma", "beta"}
    assert_close(grads["gamma"], grads_ref["gamma"], np.abs(gy * xhat).max())
    assert_close(grads["beta"], grads_ref["beta"], np.abs(gy).max())
    n = x.size // bn.num_features
    terms = [gy, xhat * (grads_ref["gamma"] / n).reshape(shp),
             (grads_ref["beta"] / n).reshape(shp)]
    scale = max(np.abs(t * (bn.gamma * invstd).reshape(shp)).max() for t in terms)
    assert_close(batch_first(gx, gx_ref.shape), gx_ref, scale)
    none, grads_only = bn.backward(batch_last(gy), cache, input_grad=False)
    assert none is None
    for name in grads:  # the same kernel: the same bits
        assert_same_bits(grads_only[name], grads[name])


def random_weff(layer, r):
    return layer.weight * (r.random(layer.weight.shape) < 0.5)


# (batch, features in, features out) of mlp3 on 16x16 inputs, and
# (batch, channels in, channels out, size) of convnet-small's convolutions
MLP3_DENSE = [(64, 256, 256), (64, 256, 128), (64, 128, 10), (256, 128, 10)]
CONVNET_CONV = [(64, 1, 8, 16), (64, 8, 16, 8)]
BN_SHAPES = [(64, 256), (64, 128), (64, 8, 16, 16), (64, 16, 8, 8)]


def batch_gemm_approx(b, oh, ow):
    """Conv2d's forward and input gradient make one GEMM over the batch where
    the oracle makes one per image. With the OpenBLAS these tests were
    recorded with, the two round alike when b is 1 or oh * ow is a multiple
    of 8 (checked on every shape test_conv2d can draw, two seeds each), and
    then y and gx are compared bit for bit; otherwise with assert_close."""
    return ("y", "gx") if b > 1 and oh * ow % 8 else ()


class TestKernelsMatchReference:
    """The batch-last kernels: in-place epilogues, the slice-copy im2col,
    zero-array padding, the strided AvgPool, the batch-last col2im, the GEMM
    Conv2d gradients and the per-channel affine BatchNorm, against the
    batch-first out-of-place, loop, np.pad, reshape-mean and np.repeat,
    batch-first, einsum and xhat-then-scale oracles in layer_reference. Only
    the Conv2d weight and bias gradients, the AvgPool forward and BatchNorm
    sum in another order, and on the shapes batch_gemm_approx names, the
    Conv2d forward and input gradient."""

    @given(k=st.integers(1, 4), stride=st.integers(1, 2), pad=st.integers(0, 2),
           b=st.integers(1, 3), cin=st.integers(1, 3), cout=st.integers(1, 3),
           dh=st.integers(0, 4), dw=st.integers(0, 4), masked=st.booleans(),
           seed=SEEDS)
    # a 1-wide output, where the window view's reshape is not a copy
    @example(k=2, stride=1, pad=0, b=1, cin=1, cout=1, dh=1, dw=0, masked=False, seed=0)
    def test_conv2d(self, k, stride, pad, b, cin, cout, dh, dw, masked, seed):
        r = np.random.default_rng(seed)
        conv = Conv2d(cin, cout, k, stride=stride, padding=pad, rng=r)
        h, w = max(k - 2 * pad, 1) + dh, max(k - 2 * pad, 1) + dw
        oh, ow = conv._out_hw(h, w)
        x, gy = r.standard_normal((b, cin, h, w)), r.standard_normal((b, cout, oh, ow))
        check_layer(conv, x, gy, weff=random_weff(conv, r) if masked else None,
                    approx=("weight", "bias") + batch_gemm_approx(b, oh, ow),
                    scales={"bias": np.abs(gy).max()})

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("b,cin,cout,size", CONVNET_CONV)
    def test_conv2d_preset_shapes(self, b, cin, cout, size, k, rng):
        conv = Conv2d(cin, cout, k, stride=1, padding=(k - 1) // 2, rng=rng)
        oh, ow = conv._out_hw(size, size)
        x, gy = rng.standard_normal((b, cin, size, size)), rng.standard_normal((b, cout, oh, ow))
        check_layer(conv, x, gy, weff=random_weff(conv, rng),
                    approx=("weight", "bias") + (("y",) if k in (2, 4) else ()),  # 15x15 outputs
                    scales={"bias": np.abs(gy).max()})

    @given(b=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 4),
           w=st.integers(1, 4), seed=SEEDS)
    def test_flatten_and_relu(self, b, c, h, w, seed):
        r = np.random.default_rng(seed)
        x = r.standard_normal((b, c, h, w))
        check_layer(Flatten(), x, r.standard_normal((b, c * h * w)))
        check_layer(ReLU(), x, r.standard_normal(x.shape))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0
    @pytest.mark.parametrize("mode", ["eval", "train", "recal"])
    def test_relu_nan_and_signed_zero(self, mode):
        """The backward reads the cached output: gy * (y > 0) has the bits
        of the input-mask gy * (x > 0), NaN and -0.0 included."""
        x = np.array([[np.nan, -0.0, 0.0, -1.0, 2.0, -np.inf, np.inf, np.nan]])
        gy = np.array([[1.0, -1.0, -1.0, -2.0, 3.0, np.nan, -np.inf, -np.inf]])
        y, cache = ReLU().forward(x, mode=mode)
        assert list(cache) == ["y"]
        assert_same_bits(y, np.maximum(x, 0.0))
        gx, grads = ReLU().backward(gy, cache)
        assert grads == {}
        assert_same_bits(gx, gy * (x > 0))

    @given(b=st.integers(1, 70), fin=st.integers(1, 8), fout=st.integers(1, 8),
           masked=st.booleans(), seed=SEEDS)
    def test_dense(self, b, fin, fout, masked, seed):
        r = np.random.default_rng(seed)
        dense = Dense(fin, fout, r)
        check_layer(dense, r.standard_normal((b, fin)), r.standard_normal((b, fout)),
                    weff=random_weff(dense, r) if masked else None)

    @pytest.mark.parametrize("b,fin,fout", MLP3_DENSE)
    def test_dense_preset_shapes(self, b, fin, fout, rng):
        dense = Dense(fin, fout, rng)
        check_layer(dense, rng.standard_normal((b, fin)), rng.standard_normal((b, fout)),
                    weff=random_weff(dense, rng))

    @given(shape=st.one_of(
               st.tuples(st.integers(1, 70), st.integers(1, 8)),
               st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(1, 6),
                         st.integers(1, 6))),
           mode=st.sampled_from(["eval", "train", "recal"]), seed=SEEDS, scale=SCALES)
    # two rows per channel: the train/recal input gradient is rounding noise
    @example(shape=(2, 3), mode="train", seed=0, scale=1e3)
    @example(shape=(2, 2, 1, 1), mode="recal", seed=1, scale=1.0)
    def test_batchnorm_epilogues(self, shape, mode, seed, scale):
        r = np.random.default_rng(seed)
        bn = BatchNorm(shape[1])
        for name in ("gamma", "beta", "running_mean", "running_var"):
            setattr(bn, name, r.uniform(0.5, 2.0, shape[1]))
        if mode == "recal":
            bn.reset_stats()
        check_batchnorm(bn, r.standard_normal(shape) * scale + r.standard_normal(),
                        r.standard_normal(shape), mode)

    @pytest.mark.parametrize("mode", ["eval", "train", "recal"])
    @pytest.mark.parametrize("shape", BN_SHAPES)
    def test_batchnorm_preset_shapes(self, shape, mode, rng):
        bn = BatchNorm(shape[1])
        bn.gamma, bn.beta = rng.uniform(0.5, 2.0, (2, shape[1]))
        if mode == "recal":
            bn.reset_stats()
        check_batchnorm(bn, rng.standard_normal(shape), rng.standard_normal(shape), mode)

    @given(k=st.integers(1, 4), oh=st.integers(1, 4), ow=st.integers(1, 4),
           b=st.integers(1, 3), c=st.integers(1, 3), seed=SEEDS, scale=SCALES)
    def test_avgpool(self, k, oh, ow, b, c, seed, scale):
        r = np.random.default_rng(seed)
        x = r.standard_normal((b, c, oh * k, ow * k)) * scale
        check_layer(AvgPool(k), x, r.standard_normal((b, c, oh, ow)), approx=("y",),
                    scales={"y": np.abs(x).max()})

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(64, 8, 16, 16), (64, 16, 8, 8)])
    def test_avgpool_preset_shapes(self, shape, k, rng):
        b, c, h, w = shape
        h, w = h // k * k, w // k * k  # 3 does not divide the preset sizes
        x = rng.standard_normal((b, c, h, w))
        check_layer(AvgPool(k), x, rng.standard_normal((b, c, h // k, w // k)), approx=("y",),
                    scales={"y": np.abs(x).max()})


PRESET_NETS = [("mlp3", (256,)), ("convnet-small", (1, 16, 16))]


def preset_and_input(name, in_shape, rows, seed=0):
    r = np.random.default_rng(seed)
    net = build_preset(name, in_shape, 10, seed=seed)
    masks = {i: topk_mask(net.layers[i].weight, 0.8) for i in net.prunable_indices()}
    # train a few BN steps so running statistics are not the init values
    for _ in range(2):
        net.forward(r.standard_normal((32,) + in_shape), mode="train")
    return net, masks, r.standard_normal((rows,) + in_shape), r.integers(0, 10, rows)


def assert_params_close(net, ref):
    """Every parameter bit-equal, but the BatchNorm running moments, which
    the affine kernel and the reference sum in another order: those within
    assert_close."""
    for layer, other in zip(net.layers, ref.layers):
        for name, value in other.params().items():
            if name.startswith("running_"):
                assert_close(layer.params()[name], value)
            else:
                assert_same_bits(layer.params()[name], value)


class TestTraceFreeForwards:
    """predict, accuracy and bn_recalibrate keep no trace; their results
    equal a forward that keeps every activation, on the reference kernels
    (within assert_close where BatchNorm's kernels differ)."""

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("name,in_shape", PRESET_NETS)
    def test_predict_and_accuracy(self, name, in_shape, masked):
        net, masks, x, y = preset_and_input(name, in_shape, 300)
        masks = masks if masked else None
        logits = full_trace_logits(reference_network(net), x, masks)
        assert_close(net.predict(x, masks=masks), predict_distribution(logits))
        assert net.accuracy(x, y, masks=masks) == np.mean(np.argmax(logits, axis=1) == y)
        assert_close(net.forward(x[:256], masks=masks, mode="eval").logits, logits[:256])

    @settings(max_examples=10)
    @given(r=st.integers(0, EVAL_CHUNK), seed=st.integers(0, 2**16))
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("name,in_shape", PRESET_NETS)
    def test_eval_block_size_invariant(self, name, in_shape, masked, r, seed):
        """EVAL_CHUNK-row blocks give the logits of one 256-row forward bit
        for bit (64-row blocks would not: the 10-wide Dense head moves)."""
        net, masks, x, _ = preset_and_input(name, in_shape, 256 + r, seed=seed)
        masks = masks if masked else None
        chunked = np.concatenate([l for _, l in net._eval_logits(x, masks)])
        whole = [net.forward(x[:256], masks=masks, mode="eval").logits]
        if r:
            whole.append(net.forward(x[256:], masks=masks, mode="eval").logits)
        assert_same_bits(chunked, np.concatenate(whole))

    @pytest.mark.parametrize("name,in_shape", PRESET_NETS)
    def test_bn_recalibrate(self, name, in_shape):
        net, masks, x, _ = preset_and_input(name, in_shape, 150)
        ref = reference_network(net)
        batches = [x[s:s + 64] for s in range(0, len(x), 64)]
        net.bn_recalibrate(batches, masks=masks)
        for layer in ref.layers:
            if isinstance(layer, BatchNorm):
                layer.reset_stats()
        for batch in batches:
            full_trace_forward(ref, batch, masks, "recal")
        assert_params_close(net, ref)

    @pytest.mark.parametrize("name,in_shape", PRESET_NETS)
    def test_bn_recalibrate_stops_at_last_bn(self, name, in_shape):
        """The last BatchNorm folds its moments and runs no forward, nor does
        any later layer; the statistics are those of full-depth forwards."""
        net, masks, x, _ = preset_and_input(name, in_shape, 150)
        full = net.copy()
        last = max(i for i, l in enumerate(net.layers) if isinstance(l, BatchNorm))
        ran = []
        for i in range(last, len(net.layers)):
            net.layers[i].forward = lambda *a, i=i, **k: ran.append(i)
        batches = [x[s:s + 64] for s in range(0, len(x), 64)]
        net.bn_recalibrate(batches, masks=masks)
        assert ran == []
        for layer in full.layers:
            if isinstance(layer, BatchNorm):
                layer.reset_stats()
        for batch in batches:  # full depth, same kernels
            for _ in full.forward_layers(batch, masks, "recal"):
                pass
        assert net.param_hash() == full.param_hash()

    def test_bn_recalibrate_without_bn(self):
        net = one_dense(np.eye(3))
        with pytest.raises(ValueError, match="empty batch stream"):
            net.bn_recalibrate([])
        before = net.param_hash()
        net.bn_recalibrate([np.ones((2, 3))])
        assert net.param_hash() == before

    @pytest.mark.parametrize("hard", [False, True])
    @pytest.mark.parametrize("name,in_shape", PRESET_NETS)
    def test_backward_skips_layer0_input_grad(self, name, in_shape, hard):
        """Bit-equal to a full-trace backward on the same kernels, and within
        assert_close of one on the reference kernels, scaled per layer to its
        largest gradient: the bias before a train-mode BatchNorm has a true
        gradient of zero, so its value is rounding noise. With hard, both
        sides' STE weight gradients are multiplied by the mask first."""
        net, masks, x, _ = preset_and_input(name, in_shape, 64)
        same, ref = net.copy(), reference_network(net)
        c = np.random.default_rng(1).standard_normal((64, 10))

        def masked(grads):
            if hard:
                for i, m in masks.items():
                    grads[i]["weight"] = grads[i]["weight"] * m
            return grads

        grads = masked(net.backward(net.forward(x, masks=masks, mode="train"), c))
        for other, exact in ((same, True), (ref, False)):
            caches, _ = full_trace_forward(other, x, masks, "train")
            grads_ref = masked(full_trace_backward(other, caches, c))
            assert grads.keys() == grads_ref.keys()
            for i in grads_ref:
                assert grads[i].keys() == grads_ref[i].keys()
                scale = max(np.abs(g).max() for g in grads_ref[i].values())
                for p in grads_ref[i]:
                    if exact:
                        assert_same_bits(grads[i][p], grads_ref[i][p])
                    else:
                        assert_close(grads[i][p], grads_ref[i][p], scale)
            if exact:  # the same BN updates in train
                assert net.param_hash() == other.param_hash()
            else:
                assert_params_close(net, other)

    def test_backward_asks_layer0_for_parameter_grads_only(self, monkeypatch):
        net = tiny_conv(seed=2)
        asked = []
        backward = Conv2d.backward

        def spy(self, gy, cache, input_grad=True):
            asked.append(input_grad)
            return backward(self, gy, cache, input_grad)

        monkeypatch.setattr(Conv2d, "backward", spy)
        x = np.random.default_rng(0).standard_normal((2, 1, 6, 6))
        net.backward(net.forward(x, mode="train"), np.ones((2, 3)))
        assert asked == [False]

    def test_trace_keeps_caches_only(self):
        net = tiny_mlp()
        trace = net.forward(np.zeros((2, 6)))
        assert len(trace.caches) == len(net.layers)
        assert not hasattr(trace, "activations")

    def test_eval_peak_memory(self):
        # a 256-row convnet-small accuracy runs EVAL_CHUNK = 128-row forwards,
        # each holding at most a layer's arrays and the next one's: 6.8 MiB
        # with batch-last activations (6.9 MiB batch first). One 256-row
        # forward peaks at 13.6 MiB, and one that keeps every activation and
        # cache at 34.1 MiB
        net = build_preset("convnet-small", (1, 16, 16), 10, seed=0)
        r = np.random.default_rng(0)
        x, y = r.standard_normal((256, 1, 16, 16)), r.integers(0, 10, 256)
        tracemalloc.start()
        try:
            net.accuracy(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


# A seeded convnet-small with non-unit BatchNorm statistics and 0.9 masks:
# the sha256 of its saved checkpoint and of its predict bytes on 300 rows,
# recorded with the batch-first layers that preceded the batch-last ones; the
# predict bytes re-recorded when AvgPool summed its views in its own order.
# Same float-library caveat as the goldens in test_harness_cli.
PINNED_CKPT_SHA256 = "9226a7da7adf6592f410aa0e49db414eb387b5fe65fc92488e2ca03cfb952648"
PINNED_PREDICT_SHA256 = "779fc168fbe2ad5ded9fbe327a7d86f73e9e0541a5880ac5bf3a19e7a2deb007"


def pinned_convnet():
    net = build_preset("convnet-small", (1, 16, 16), 10, seed=18)
    r = np.random.default_rng(18)
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            layer.gamma, layer.beta, layer.running_mean, layer.running_var = (
                r.uniform(0.5, 2.0, (4, layer.num_features)))
    masks = {i: topk_mask(net.layers[i].weight, 0.9) for i in net.prunable_indices()}
    return net, masks, r.standard_normal((300, 1, 16, 16))


class TestBatchLastLayout:
    """Networks take NCHW input and read the same checkpoints; only inside
    do their 4-D activations run batch last."""

    def test_eval_logits_pinned(self):
        net, masks, x = pinned_convnet()
        assert hashlib.sha256(net.predict(x, masks=masks).tobytes()).hexdigest() \
            == PINNED_PREDICT_SHA256

    def test_checkpoint_logits_equal_oracle(self, tmp_path):
        net, masks, x = pinned_convnet()
        path = tmp_path / "net.ckpt"
        save_network(net, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CKPT_SHA256
        loaded = load_network(path)
        logits = loaded.forward(x, masks=masks).logits
        assert logits.shape == (300, 10)
        assert_close(logits, full_trace_logits(reference_network(loaded), x, masks))

    def test_dense_first_reads_nchw_as_its_rows(self):
        # layer 0 decides the layout: a Dense one reads an NCHW batch as
        # (N, C*H*W) rows, a view, and its logits are those of the rows
        net, masks, x, _ = preset_and_input("mlp3", (2, 4, 4), 300)
        rows = x.reshape(len(x), -1)
        assert np.shares_memory(net.as_input(x), x)
        assert_same_bits(net.as_input(x), rows)
        assert_same_bits(net.forward(x, masks=masks).logits,
                         net.forward(rows, masks=masks).logits)
        assert_same_bits(net.predict(x, masks=masks), net.predict(rows, masks=masks))

    def test_conv_first_reads_nchw_as_it_is(self):
        net, _, x = pinned_convnet()
        assert net.as_input(x) is x


class TestAccuracy:
    def test_nan_logits_rejected(self, rng):
        net = tiny_mlp(seed=5)
        net.layers[-1].bias[1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            net.accuracy(rng.standard_normal((300, 6)), np.zeros(300, dtype=int))

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            tiny_mlp().accuracy(np.zeros((0, 6)), np.zeros(0, dtype=int))

    def test_chunked_predict_matches_accuracy(self, rng):
        # 600 rows: ceil(600/EVAL_CHUNK) forwards of at most EVAL_CHUNK rows
        # behind both helpers
        net = tiny_mlp(seed=6)
        x = rng.standard_normal((600, 6))
        y = rng.integers(0, 3, 600)
        p = net.predict(x)
        assert p.shape == (600, 3)
        assert net.accuracy(x, y) == np.mean(np.argmax(p, axis=1) == y)
        np.testing.assert_allclose(p, predict_distribution(net.forward(x).logits),
                                   rtol=0, atol=1e-14)


class TestPredictDistribution:
    def test_symmetric_logits(self):
        np.testing.assert_allclose(predict_distribution(np.array([[0.0, 0.0]])),
                                   [[0.5, 0.5]])

    def test_hand_softmax(self):
        p = predict_distribution(np.log(np.array([[1.0, 3.0]])))
        np.testing.assert_allclose(p, [[0.25, 0.75]], atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-15, 15), min_size=2, max_size=8),
           st.floats(-100, 100))
    def test_rows_sum_to_one_and_shift_invariant(self, row, k):
        logits = np.array([row])
        p = predict_distribution(logits)
        assert abs(p.sum() - 1.0) < 1e-6
        assert np.all((p > 0) & (p < 1))
        np.testing.assert_allclose(predict_distribution(logits + k), p, atol=1e-9)


class TestPresetsAndCheckpoint:
    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            build_preset("resnet-900", (784,), 10)

    def test_presets_deterministic(self):
        a = build_preset("mlp3", (784,), 10, seed=5)
        b = build_preset("mlp3", (784,), 10, seed=5)
        assert a.param_hash() == b.param_hash()

    @pytest.mark.parametrize("name,in_shape", [("mlp3", (784,)),
                                               ("convnet-small", (1, 16, 16))])
    def test_checkpoint_round_trip_bit_exact(self, name, in_shape, tmp_path):
        net = build_preset(name, in_shape, 10, seed=2)
        path = tmp_path / "net.ckpt"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.param_hash() == net.param_hash()
        assert [l.spec() for l in loaded.layers] == [l.spec() for l in net.layers]

    def test_every_layer_kind_round_trips_its_spec(self):
        layers = [Dense(3, 4), Conv2d(2, 3, 3, stride=2, padding=0),
                  Conv2d(1, 2, 3, stride=1, padding=1), BatchNorm(5), AvgPool(2),
                  ReLU(), Flatten()]
        for layer in layers:
            spec = layer.spec()
            back = layer_from_spec(spec)
            assert type(back) is type(layer) and back.spec() == spec
            assert layer_from_spec({**spec, "extra": 1}).spec() == spec

    @given(st.data())
    def test_any_truncation_raises_checkpoint_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("trunc") / "net.ckpt"
        save_network(tiny_conv(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        with pytest.raises(CheckpointError):
            load_network(path)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["checkpoint", "masks"]), st.data())
    def test_header_integer_of_another_type_raises_checkpoint_error(
            self, tmp_path_factory, kind, data):
        # int() would load a layer of 0.7 as layer 0 and "1" or true as layer 1
        path = tmp_path_factory.mktemp("ints") / kind
        net = tiny_mlp()
        if kind == "checkpoint":
            save_network(net, path)
            magic, load, key = MAGIC, load_network, "arrays"
        else:
            save_masks({i: topk_mask(net.layers[i].weight, 0.5)
                        for i in net.prunable_indices()}, path)
            magic, load, key = MASK_MAGIC, load_masks, "masks"
        header, payload = read_container(path, magic)
        rec = data.draw(st.sampled_from(header[key]))
        field = data.draw(st.sampled_from(["layer", "offset", "nbytes", "shape"]
                                          + (["nnz"] if kind == "masks" else [])))
        bad = data.draw(st.one_of(st.floats(), st.text(), st.booleans(),
                                  st.integers(max_value=-1)))
        if field == "shape":
            rec["shape"][data.draw(st.integers(0, len(rec["shape"]) - 1))] = bad
        else:
            rec[field] = bad
        write_container(path, magic, header, [payload])
        with pytest.raises(CheckpointError):
            load(path)

    @pytest.mark.parametrize("old", [None, b"old checkpoint"])
    def test_failed_write_keeps_old_file_and_no_temporary(self, tmp_path, old):
        path = tmp_path / "net.ckpt"
        if old is not None:
            path.write_bytes(old)

        def blobs():  # magic, header and one blob are written before the failure
            yield b"\x00" * 64
            raise RuntimeError("disk gone")

        with pytest.raises(RuntimeError, match="disk gone"):
            write_container(path, MAGIC, {"layers": []}, blobs())
        assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["net.ckpt"])
        if old is not None:
            assert path.read_bytes() == old

    def test_write_replaces_old_file(self, tmp_path):
        path = tmp_path / "net.ckpt"
        path.write_bytes(b"old checkpoint")
        save_network(tiny_mlp(), path)
        assert load_network(path).param_hash() == tiny_mlp().param_hash()
        assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]

    def test_write_makes_missing_directory_and_no_temporary(self, tmp_path):
        path = tmp_path / "run" / "seed0" / "masks.txt"
        with atomic_write(path) as f:
            f.write("layer\n")
        assert path.read_text() == "layer\n"
        assert [p.name for p in path.parent.iterdir()] == ["masks.txt"]

    def test_teacher_immutable_under_student_training(self, rng):
        teacher = tiny_mlp(seed=4)
        before = teacher.param_hash()
        calib = CalibrationSet(inputs=rng.standard_normal((32, 6)),
                               labels=rng.integers(0, 3, 32))
        cfg = ExperimentConfig(iterations=10, batch_size=8)
        run_training(teacher, uniform_distribution(teacher, 0.5), calib, cfg, 0)
        assert teacher.param_hash() == before
