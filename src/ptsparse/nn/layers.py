"""Layer primitives with explicit forward/backward rules.

All arithmetic is float64. Each layer is a small stateful object holding its
parameters; forward returns (output, cache) and backward consumes the cache.
Only Dense and Conv2d carry prunable weight tensors.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeMismatchError(ValueError):
    """Input/mask shape incompatible with a layer; carries the layer index."""

    def __init__(self, layer_index: int, message: str):
        self.layer_index = layer_index
        super().__init__(f"layer {layer_index}: {message}")


class Layer:
    kind = "base"
    prunable = False
    SPEC: tuple[str, ...] = ()  # constructor arguments, in order

    def params(self) -> dict:
        return {}

    def spec(self) -> dict:
        return {"kind": self.kind, **{k: getattr(self, k) for k in self.SPEC}}

    def forward(self, x, mode="eval", weff=None):
        raise NotImplementedError

    def backward(self, gy, cache, input_grad=True):
        """Returns (grad_input, {param_name: grad}); grad_input is None when
        input_grad is false (the first layer of a network)."""
        raise NotImplementedError


class _Prunable(Layer):
    """A weight of shape (out, fan-in dims...) and a bias: zeros for a
    checkpoint to fill, or fan-in uniform, the weight drawn before the bias."""

    prunable = True

    def _init_params(self, shape, rng):
        if rng is None:
            self.weight = np.zeros(shape)
            self.bias = np.zeros(shape[0])
        else:
            bound = 1.0 / np.sqrt(math.prod(shape[1:]))
            self.weight = rng.uniform(-bound, bound, shape)
            self.bias = rng.uniform(-bound, bound, shape[0])

    def params(self):
        return {"weight": self.weight, "bias": self.bias}


class Dense(_Prunable):
    kind = "Dense"
    SPEC = ("in_features", "out_features")

    def __init__(self, in_features: int, out_features: int, rng=None):
        self.in_features = in_features
        self.out_features = out_features
        self._init_params((out_features, in_features), rng)

    def forward(self, x, mode="eval", weff=None):
        w = self.weight if weff is None else weff
        y = x @ w.T
        y += self.bias
        return y, {"x": x, "weff": weff}

    def backward(self, gy, cache, input_grad=True):
        x = cache["x"]
        grads = {"weight": gy.T @ x, "bias": gy.sum(axis=0)}
        if not input_grad:
            return None, grads
        w = self.weight if cache["weff"] is None else cache["weff"]
        return gy @ w, grads


def _im2col(x, kh, kw, stride, oh, ow):
    """(b, c*kh*kw, oh*ow) patch matrix: one copy out of the window view.
    For some shapes (a 1-wide output) the reshape is a strided view, on
    which the GEMM sums in another order, so it is made contiguous."""
    b, c, _, _ = x.shape
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.ascontiguousarray(
        win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, oh * ow))


def _col2im(gcols, xp_shape, k, stride, oh, ow):
    """(c, h, w, b) gradient of the padded input from the batch-last
    (c*k*k, oh*ow*b) column gradient: each of the k*k adds runs over rows
    of ow*b contiguous values, in the same order per element as a
    batch-first scatter."""
    b, c, h, w = xp_shape
    gcols = gcols.reshape(c, k, k, oh, ow, b)
    gx = np.zeros((c, h, w, b), dtype=gcols.dtype)
    for i in range(k):
        for j in range(k):
            gx[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += gcols[:, i, j]
    return gx


class Conv2d(_Prunable):
    kind = "Conv2d"
    SPEC = ("in_channels", "out_channels", "kernel_size", "stride", "padding")

    def __init__(self, in_channels, out_channels, kernel_size, stride=1, padding=0, rng=None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self._init_params((out_channels, in_channels, kernel_size, kernel_size), rng)

    def _out_hw(self, h, w):
        k, s, p = self.kernel_size, self.stride, self.padding
        return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1

    def forward(self, x, mode="eval", weff=None):
        w = self.weight if weff is None else weff
        k, s, p = self.kernel_size, self.stride, self.padding
        if p:
            b, c, h, wd = x.shape
            x_p = np.zeros((b, c, h + 2 * p, wd + 2 * p), dtype=x.dtype)
            x_p[:, :, p:-p, p:-p] = x
        else:
            x_p = x
        oh, ow = self._out_hw(x.shape[2], x.shape[3])
        cols = _im2col(x_p, k, k, s, oh, ow)
        wmat = w.reshape(self.out_channels, -1)
        y = np.matmul(wmat, cols)
        y += self.bias[:, None]
        y = y.reshape(x.shape[0], self.out_channels, oh, ow)
        return y, {"cols": cols, "x_shape": x.shape, "xp_shape": x_p.shape,
                   "oh": oh, "ow": ow, "weff": weff}

    def backward(self, gy, cache, input_grad=True):
        k, s, p = self.kernel_size, self.stride, self.padding
        b = gy.shape[0]
        oh, ow = cache["oh"], cache["ow"]
        gy_mat = gy.reshape(b, self.out_channels, oh * ow)
        cols = cache["cols"]
        # one GEMM per image, summed over the batch
        gw = np.matmul(gy_mat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(self.weight.shape)
        gb = gy_mat.sum(axis=(0, 2))
        if not input_grad:
            return None, {"weight": gw, "bias": gb}
        w = self.weight if cache["weff"] is None else cache["weff"]
        wmat = w.reshape(self.out_channels, -1)
        # one GEMM over every image at once, batch last
        gcols = wmat.T @ gy_mat.transpose(1, 2, 0).reshape(self.out_channels, -1)
        gxp = _col2im(gcols, cache["xp_shape"], k, s, oh, ow)
        h, wd = cache["x_shape"][2:]
        gx = np.ascontiguousarray(gxp[:, p:p + h, p:p + wd].transpose(3, 0, 1, 2))
        return gx, {"weight": gw, "bias": gb}


def _channel_sum(a):  # on 2-D input sum(axis=0) is faster than einsum
    return np.einsum("nchw->c", a) if a.ndim == 4 else a.sum(axis=0)


def _channel_dot(a, b):  # per-channel sum of a * b, with no temporary
    return np.einsum("nchw,nchw->c" if a.ndim == 4 else "nc,nc->c", a, b)


def _per_sample(v, x):  # per-channel v as one (c, h, w) sample: ops on x run over long rows
    return v if x.ndim == 2 else np.repeat(v, math.prod(x.shape[2:])).reshape(x.shape[1:])


class BatchNorm(Layer):
    """Batch normalization over features (2-D input) or channels (4-D input).

    eval mode normalizes with stored running statistics; train mode uses batch
    statistics and folds them into the running values with momentum 0.1.
    recal mode also uses batch statistics and folds them into exact streaming
    moments over every batch since the last reset_stats.
    """

    kind = "BatchNorm"
    SPEC = ("num_features",)
    EPS = 1e-5
    MOMENTUM = 0.1

    def __init__(self, num_features: int):
        self.num_features = num_features
        self.gamma = np.ones(num_features)
        self.beta = np.zeros(num_features)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._acc = None  # (count, mean, m2) during recalibration

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta,
                "running_mean": self.running_mean, "running_var": self.running_var}

    def reset_stats(self):
        self.running_mean = np.zeros(self.num_features)
        self.running_var = np.zeros(self.num_features)
        self._acc = (0, np.zeros(self.num_features), np.zeros(self.num_features))

    def accumulate_stats(self, nb, mb, vb):
        """Fold one batch's count, mean and biased variance into the
        recalibration moments (Chan parallel combine of (count, mean, M2);
        exact streaming moments)."""
        m2b = vb * nb
        n, m, m2 = self._acc
        tot = n + nb
        delta = mb - m
        m_new = m + delta * (nb / tot)
        m2_new = m2 + m2b + delta * delta * (n * nb / tot)
        self._acc = (tot, m_new, m2_new)
        self.running_mean = m_new
        self.running_var = m2_new / tot

    def forward(self, x, mode="eval", weff=None):
        """y = x * s + t per channel, s = gamma * invstd, t = beta - mean * s,
        from the mode's moments; the cache keeps the centred input d, or in
        eval mode x and the running mean."""
        if mode == "eval":
            mean, var = self.running_mean, self.running_var
            cache = {"x": x, "mean": mean}
        else:
            n = x.size // self.num_features
            mean = _channel_sum(x) / n
            d = x - _per_sample(mean, x)
            var = _channel_dot(d, d) / n
            if mode == "recal":
                self.accumulate_stats(n, mean, var)
            else:
                m = self.MOMENTUM
                self.running_mean = (1 - m) * self.running_mean + m * mean
                self.running_var = (1 - m) * self.running_var + m * var
            cache = {"d": d, "n": n}
        invstd = 1.0 / np.sqrt(var + self.EPS)
        s = self.gamma * invstd
        y = x * _per_sample(s, x)
        y += _per_sample(self.beta - mean * s, x)
        return y, {**cache, "invstd": invstd, "mode": mode}

    def backward(self, gy, cache, input_grad=True):
        """The train/recal input gradient
        gamma * invstd * (gy - gbeta / n - xhat * ggamma / n), xhat = d * invstd,
        reuses the parameter gradients' reductions, in one buffer."""
        invstd = cache["invstd"]
        d = cache["d"] if "d" in cache else cache["x"] - _per_sample(cache["mean"], gy)
        grads = {"gamma": _channel_dot(gy, d) * invstd, "beta": _channel_sum(gy)}
        if not input_grad:
            return None, grads
        s = _per_sample(self.gamma * invstd, gy)
        if cache["mode"] == "eval":
            return gy * s, grads
        gx = d * _per_sample(invstd * grads["gamma"] / cache["n"], gy)
        gx += _per_sample(grads["beta"] / cache["n"], gy)
        np.subtract(gy, gx, out=gx)
        gx *= s
        return gx, grads


class ReLU(Layer):
    kind = "ReLU"

    def forward(self, x, mode="eval", weff=None):
        y = np.maximum(x, 0.0)
        return y, {"pos": x > 0}

    def backward(self, gy, cache, input_grad=True):
        return (gy * cache["pos"] if input_grad else None), {}


class Flatten(Layer):
    kind = "Flatten"

    def forward(self, x, mode="eval", weff=None):
        return x.reshape(x.shape[0], -1), {"shape": x.shape}

    def backward(self, gy, cache, input_grad=True):
        return (gy.reshape(cache["shape"]) if input_grad else None), {}


class AvgPool(Layer):
    """Non-overlapping average pooling (kernel == stride)."""

    kind = "AvgPool"
    SPEC = ("kernel_size",)

    def __init__(self, kernel_size: int):
        self.kernel_size = kernel_size

    def forward(self, x, mode="eval", weff=None):
        k = self.kernel_size
        h, w = x.shape[2:]
        if h % k or w % k:
            raise ValueError(f"AvgPool input {h}x{w} not divisible by {k}")
        # Sum the k*k strided views: each kernel row left to right, then the
        # row sums top to bottom. This is numpy's order for reshape + mean
        # over (3, 5) whenever the output is at least 2 wide. Two buffers of
        # the output's size take every partial sum in place.
        y = np.empty(x.shape[:2] + (h // k, w // k))
        row = np.empty_like(y) if k > 1 else None
        for i in range(k):
            acc = y if i == 0 else row
            acc[...] = x[:, :, i::k, 0::k]
            for j in range(1, k):
                acc += x[:, :, i::k, j::k]
            if i:
                y += row
        y /= k * k
        return y, {"shape": x.shape}

    def backward(self, gy, cache, input_grad=True):
        if not input_grad:
            return None, {}
        k = self.kernel_size
        gx = np.empty(cache["shape"])
        share = gy / (k * k)
        for i in range(k):
            for j in range(k):
                gx[:, :, i::k, j::k] = share
        return gx, {}


LAYER_KINDS = {cls.kind: cls for cls in (Dense, Conv2d, BatchNorm, ReLU, Flatten, AvgPool)}


def layer_from_spec(spec: dict) -> Layer:
    """The layer a spec() describes, parameters zeroed; keys beyond the
    kind's SPEC are ignored."""
    kind = spec["kind"]
    if kind not in LAYER_KINDS:
        raise ValueError(f"unknown layer kind {kind!r}")
    cls = LAYER_KINDS[kind]
    return cls(*(spec[k] for k in cls.SPEC))
