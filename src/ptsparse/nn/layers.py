"""Layer primitives with explicit forward/backward rules.

All arithmetic is float64. Each layer is a small stateful object holding its
parameters; forward returns (output, cache) and backward consumes the cache.
Only Dense and Conv2d carry prunable weight tensors.

Every 4-D activation and gradient is batch last, (C, H, W, N): a channel is
one contiguous row of H*W*N values. Network.forward_layers turns its NCHW input
batch last and Flatten gives the Dense head (N, C*H*W) rows in NCHW feature
order; nothing else converts. 2-D activations are (N, features).
"""

from __future__ import annotations

import math

import numpy as np


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


def _im2col(x, k, stride, oh, ow):
    """(c*k*k, oh*ow*b) patch matrix of the (c, h, w, b) input: one slice
    copy per kernel offset, over runs of ow*b contiguous values at stride 1."""
    c, _, _, b = x.shape
    cols = np.empty((c, k, k, oh, ow, b), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = x[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(c * k * k, oh * ow * b)


def _col2im(gcols, xp_shape, k, stride, oh, ow):
    """(c, h, w, b) padded-input gradient from the (c*k*k, oh*ow*b) one: k*k adds
    over rows of ow*b contiguous values, in a batch-first scatter's order."""
    c, h, w, b = xp_shape
    gcols = gcols.reshape(c, k, k, oh, ow, b)
    gx = np.zeros(xp_shape, dtype=gcols.dtype)
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
        """One GEMM over the whole batch: (out, c*k*k) @ (c*k*k, oh*ow*b)."""
        w = self.weight if weff is None else weff
        k, s, p = self.kernel_size, self.stride, self.padding
        c, h, wd, b = x.shape
        x_p = x
        if p:
            x_p = np.zeros((c, h + 2 * p, wd + 2 * p, b), dtype=x.dtype)
            x_p[:, p:-p, p:-p] = x
        oh, ow = self._out_hw(h, wd)
        cols = _im2col(x_p, k, s, oh, ow)
        y = w.reshape(self.out_channels, -1) @ cols
        y += self.bias[:, None]
        return y.reshape(-1, oh, ow, b), {"cols": cols, "xp_shape": x_p.shape, "weff": weff}

    def backward(self, gy, cache, input_grad=True):
        """gy as it arrives, (out, oh, ow, b). The weight gradient is one GEMM per
        output row, summed: faster here than one over all rows."""
        k, s, p = self.kernel_size, self.stride, self.padding
        out, oh, ow = gy.shape[:3]
        cols = cache["cols"]
        gw = np.matmul(gy.reshape(out, oh, -1).transpose(1, 0, 2),
                       cols.reshape(len(cols), oh, -1).transpose(1, 2, 0))
        grads = {"weight": gw.sum(axis=0).reshape(self.weight.shape),
                 "bias": gy.reshape(out, -1).sum(axis=1)}
        if not input_grad:
            return None, grads
        w = self.weight if cache["weff"] is None else cache["weff"]
        gxp = _col2im(w.reshape(out, -1).T @ gy.reshape(out, -1), cache["xp_shape"], k, s, oh, ow)
        return gxp[:, p:gxp.shape[1] - p, p:gxp.shape[2] - p], grads


def _rows(a):  # (values, channels): 2-D a as it is, 4-D a as its (C, H*W*N) rows transposed
    return a.reshape(len(a), -1).T if a.ndim == 4 else a


def _unrows(r, shape):
    return r.T.reshape(shape) if len(shape) == 4 else r


class BatchNorm(Layer):
    """Batch normalization over features (2-D input) or channels (4-D input).
    eval mode normalizes with the running statistics; train and recal mode
    with the batch's, which fold_moments folds into them: with momentum 0.1 in
    train mode, as exact streaming moments since reset_stats in recal mode."""

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

    def fold_moments(self, x, mode="recal"):
        """Fold x's batch moments into the running statistics, with momentum in train
        mode, by Chan's combine of (count, mean, M2) in recal: (n, mean, var, d)."""
        xr = _rows(x)
        n, c = xr.shape
        if c != self.num_features:
            raise ValueError(f"{c} channels into BatchNorm({self.num_features})")
        mean = xr.sum(axis=0) / n
        d = xr - mean
        var = np.einsum("nc,nc->c", d, d) / n
        if mode == "recal":
            count, m, m2 = self._acc
            tot = count + n
            delta = mean - m
            m2 = m2 + var * n + delta * delta * (count * n / tot)
            self.running_mean, self.running_var = m + delta * (n / tot), m2 / tot
            self._acc = (tot, self.running_mean, m2)
        else:
            m = self.MOMENTUM
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var
        return n, mean, var, d

    def forward(self, x, mode="eval", weff=None):
        """y = x * s + t per channel, s = gamma * invstd, t = beta - mean * s,
        from the mode's moments. Train and recal mode cache the centred input d
        for the backward; eval mode, which has no backward, caches invstd only."""
        if mode == "eval":
            mean, var, cache = self.running_mean, self.running_var, {}
        else:
            n, mean, var, d = self.fold_moments(x, mode)
            cache = {"d": _unrows(d, x.shape), "n": n}
        invstd = 1.0 / np.sqrt(var + self.EPS)
        s = self.gamma * invstd
        y = _rows(x) * s
        y += self.beta - mean * s
        return _unrows(y, x.shape), {**cache, "invstd": invstd}

    def backward(self, gy, cache, input_grad=True):
        """The train/recal input gradient
        gamma * invstd * (gy - gbeta / n - xhat * ggamma / n), xhat = d * invstd,
        reuses the parameter gradients' reductions, in one buffer. An eval-mode
        cache raises ValueError."""
        if "d" not in cache:
            raise ValueError("BatchNorm backward needs a train or recal forward")
        invstd = cache["invstd"]
        g = _rows(gy)
        d = _rows(cache["d"])
        grads = {"gamma": np.einsum("nc,nc->c", g, d) * invstd, "beta": g.sum(axis=0)}
        if not input_grad:
            return None, grads
        s = self.gamma * invstd
        gx = d * (invstd * grads["gamma"] / cache["n"])
        gx += grads["beta"] / cache["n"]
        np.subtract(g, gx, out=gx)
        gx *= s
        return _unrows(gx, gy.shape), grads


class ReLU(Layer):
    kind = "ReLU"

    def forward(self, x, mode="eval", weff=None):
        y = np.maximum(x, 0.0)
        return y, {"y": y}

    def backward(self, gy, cache, input_grad=True):
        if not input_grad:
            return None, {}
        m = (cache["y"] > 0).astype(np.float64)  # y > 0 is x > 0: max(NaN, 0) is NaN
        return np.multiply(m, gy, out=m), {}


class Flatten(Layer):
    kind = "Flatten"

    def forward(self, x, mode="eval", weff=None):
        return np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T), {"shape": x.shape}

    def backward(self, gy, cache, input_grad=True):
        return (np.ascontiguousarray(gy.T).reshape(cache["shape"]) if input_grad
                else None), {}


class AvgPool(Layer):
    """Non-overlapping average pooling (kernel == stride)."""

    kind = "AvgPool"
    SPEC = ("kernel_size",)

    def __init__(self, kernel_size: int):
        self.kernel_size = kernel_size

    def forward(self, x, mode="eval", weff=None):
        k = self.kernel_size
        h, w = x.shape[1:3]
        if h % k or w % k:
            raise ValueError(f"AvgPool input {h}x{w} not divisible by {k}")
        y = x[:, 0::k, 0::k].copy()
        for v in range(1, k * k):  # the other strided views, in row-major kernel order
            i, j = divmod(v, k)
            y += x[:, i::k, j::k]
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
                gx[:, i::k, j::k] = share
        return gx, {}


LAYER_KINDS = {cls.kind: cls for cls in (Dense, Conv2d, BatchNorm, ReLU, Flatten, AvgPool)}
