"""Reference layer kernels and a full-trace network loop, kept as the oracle
of the fast paths in ptsparse.nn: the reshape-mean and out-of-place strided
AvgPool, the np.repeat AvgPool backward, the BatchNorm that normalizes
x to xhat and then scales and shifts it (two-pass np.mean/np.var moments,
out-of-place epilogues, an input gradient with its own two reductions), the
out-of-place bias epilogue, the loop im2col and the np.pad padding, the einsum
Conv2d weight gradient, the batch-first col2im, and a forward that keeps every
activation and cache.

The reference kernels take 4-D activations batch first, (N, C, H, W), as
ptsparse.nn did before its layers went batch last, (C, H, W, N).
batch_last and batch_first carry arrays between the two layouts, so a test
feeds both sides the same batch-first data and compares batch-first results."""

import copy

import numpy as np

from ptsparse.nn.layers import AvgPool, BatchNorm, Conv2d, Dense, Flatten
from ptsparse.nn.network import Network


def batch_last(a):
    """A batch-first (N, C, H, W) array as the layers take it, (C, H, W, N);
    other arrays as they are."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)) if a.ndim == 4 else a


def batch_first(a, shape):
    """The batch-first array of the given shape whose batch-last form is a:
    a 4-D activation (C, H, W, N) as (N, C, H, W), a Conv2d patch matrix
    (c*k*k, oh*ow*N) as (N, c*k*k, oh*ow); an array of shape (N, features)
    or (features,) as it is."""
    if len(shape) < 3:
        return a
    return np.moveaxis(a.reshape(tuple(shape[1:]) + tuple(shape[:1])), -1, 0)


def avgpool_reference(x: np.ndarray, k: int) -> np.ndarray:
    b, c, h, w = x.shape
    return x.reshape(b, c, h // k, k, w // k, k).mean(axis=(3, 5))


def avgpool_strided_reference(x: np.ndarray, k: int) -> np.ndarray:
    """The k*k strided views summed out of place, in AvgPool's order."""
    acc = None
    for i in range(k):
        row = x[:, :, i::k, 0::k]
        for j in range(1, k):
            row = row + x[:, :, i::k, j::k]
        acc = row if acc is None else acc + row
    return acc / (k * k)


def avgpool_backward_reference(gy: np.ndarray, k: int) -> np.ndarray:
    return np.repeat(np.repeat(gy, k, axis=2), k, axis=3) / (k * k)


def im2col_reference(x, kh, kw, stride, oh, ow):
    b, c, _, _ = x.shape
    cols = np.empty((b, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(b, c * kh * kw, oh * ow)


def col2im_reference(gcols, x_shape, kh, kw, stride, oh, ow):
    """(b, c, h, w) gradient from the batch-first (b, c*kh*kw, oh*ow) column
    gradient, one strided add per kernel offset."""
    b, c, h, w = x_shape
    gcols = gcols.reshape(b, c, kh, kw, oh, ow)
    gx = np.zeros(x_shape, dtype=gcols.dtype)
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += gcols[:, :, i, j]
    return gx


class DenseReference(Dense):
    def forward(self, x, mode="eval", weff=None):
        w = self.weight if weff is None else weff
        return x @ w.T + self.bias, {"x": x, "weff": weff}


class Conv2dReference(Conv2d):
    def forward(self, x, mode="eval", weff=None):
        w = self.weight if weff is None else weff
        k, s, p = self.kernel_size, self.stride, self.padding
        x_p = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        oh, ow = self._out_hw(x.shape[2], x.shape[3])
        cols = im2col_reference(x_p, k, k, s, oh, ow)
        y = np.matmul(w.reshape(self.out_channels, -1), cols) + self.bias[:, None]
        y = y.reshape(x.shape[0], self.out_channels, oh, ow)
        return y, {"cols": cols, "x_shape": x.shape, "xp_shape": x_p.shape,
                   "oh": oh, "ow": ow, "weff": weff}

    def backward(self, gy, cache, input_grad=True):
        k, s, p = self.kernel_size, self.stride, self.padding
        b = gy.shape[0]
        oh, ow = cache["oh"], cache["ow"]
        gy_mat = gy.reshape(b, self.out_channels, oh * ow)
        gw = np.einsum("bol,bkl->ok", gy_mat, cache["cols"]).reshape(self.weight.shape)
        grads = {"weight": gw, "bias": gy_mat.sum(axis=(0, 2))}
        if not input_grad:
            return None, grads
        w = self.weight if cache["weff"] is None else cache["weff"]
        gcols = np.matmul(w.reshape(self.out_channels, -1).T, gy_mat)
        gxp = col2im_reference(gcols, cache["xp_shape"], k, k, s, oh, ow)
        return (gxp[:, :, p:-p, p:-p] if p else gxp), grads


class FlattenReference(Flatten):
    def forward(self, x, mode="eval", weff=None):
        return x.reshape(x.shape[0], -1), {"shape": x.shape}

    def backward(self, gy, cache, input_grad=True):
        return gy.reshape(cache["shape"]), {}


class AvgPoolReference(AvgPool):
    def forward(self, x, mode="eval", weff=None):
        return avgpool_strided_reference(x, self.kernel_size), {"shape": x.shape}

    def backward(self, gy, cache, input_grad=True):
        return avgpool_backward_reference(gy, self.kernel_size), {}


class BatchNormReference(BatchNorm):
    """BatchNorm as xhat = (x - mean) * invstd, y = gamma * xhat + beta: its
    train/recal forward reduces x with np.mean and np.var, its recalibration
    reduces x again for the batch moments, and its epilogues are out of
    place. Its forward has the bits of the kernel that preceded the
    per-channel affine y = x * s + t."""

    def _axes(self, x):
        return (0,) if x.ndim == 2 else (0, 2, 3)

    def _bshape(self, x):
        return (1, -1) if x.ndim == 2 else (1, -1, 1, 1)

    def accumulate_stats(self, x):
        axes = self._axes(x)
        nb = int(np.prod([x.shape[a] for a in axes]))
        mb = x.mean(axis=axes)
        m2b = x.var(axis=axes) * nb
        n, m, m2 = self._acc
        tot = n + nb
        delta = mb - m
        m_new = m + delta * (nb / tot)
        m2_new = m2 + m2b + delta * delta * (n * nb / tot)
        self._acc = (tot, m_new, m2_new)
        self.running_mean = m_new
        self.running_var = m2_new / tot

    def forward(self, x, mode="eval", weff=None):
        shp = self._bshape(x)
        if mode == "eval":
            invstd = 1.0 / np.sqrt(self.running_var + self.EPS)
            xhat = (x - self.running_mean.reshape(shp)) * invstd.reshape(shp)
            y = self.gamma.reshape(shp) * xhat + self.beta.reshape(shp)
            return y, {"xhat": xhat, "invstd": invstd, "mode": mode}
        axes = self._axes(x)
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        if mode == "recal":
            self.accumulate_stats(x)
        else:
            m = self.MOMENTUM
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var
        invstd = 1.0 / np.sqrt(var + self.EPS)
        xhat = (x - mean.reshape(shp)) * invstd.reshape(shp)
        y = self.gamma.reshape(shp) * xhat + self.beta.reshape(shp)
        n = int(np.prod([x.shape[a] for a in axes]))
        return y, {"xhat": xhat, "invstd": invstd, "mode": mode, "n": n}

    def backward(self, gy, cache, input_grad=True):
        """Train/recal input gradient from gxhat and its own two reductions."""
        shp = self._bshape(gy)
        axes = self._axes(gy)
        xhat, invstd = cache["xhat"], cache["invstd"]
        grads = {"gamma": (gy * xhat).sum(axis=axes), "beta": gy.sum(axis=axes)}
        if not input_grad:
            return None, grads
        gxhat = gy * self.gamma.reshape(shp)
        if cache["mode"] == "eval":
            return gxhat * invstd.reshape(shp), grads
        n = cache["n"]
        s1 = gxhat.sum(axis=axes).reshape(shp)
        s2 = (gxhat * xhat).sum(axis=axes).reshape(shp)
        return (invstd.reshape(shp) / n) * (n * gxhat - s1 - xhat * s2), grads


REFERENCE_KINDS = {Dense: DenseReference, Conv2d: Conv2dReference, Flatten: FlattenReference,
                   AvgPool: AvgPoolReference, BatchNorm: BatchNormReference}


class NetworkReference(Network):
    """A network of reference kernels: full_trace_forward gives it 4-D input
    batch first, as it comes."""


def reference_layer(layer):
    """A deep copy of layer that runs the reference kernels."""
    ref = copy.deepcopy(layer)
    ref.__class__ = REFERENCE_KINDS.get(type(layer), type(layer))
    return ref


def reference_network(net):
    """A deep copy of net whose layers run the reference kernels."""
    ref = copy.deepcopy(net)
    ref.__class__ = NetworkReference
    ref.layers = [reference_layer(layer) for layer in ref.layers]
    return ref


def full_trace_forward(net, x, masks=None, mode="eval"):
    """The forward loop that keeps everything: (caches, activations), where
    activations are the input, then each layer's output. A 4-D input is
    batch first; unless net is a NetworkReference, it runs batch last."""
    h = np.asarray(x, dtype=np.float64)
    if not isinstance(net, NetworkReference):
        h = batch_last(h)
    caches, activations = [], [h]
    for i, layer in enumerate(net.layers):
        weff = None
        if layer.prunable and masks and i in masks:
            weff = layer.weight * masks[i]
        h, cache = layer.forward(h, mode=mode, weff=weff)
        caches.append(cache)
        activations.append(h)
    return caches, activations


def full_trace_logits(net, x, masks=None, batch_size=256):
    """Eval logits of x, one full-trace forward per batch_size rows."""
    return np.concatenate([full_trace_forward(net, x[s:s + batch_size], masks, "eval")[1][-1]
                           for s in range(0, len(x), batch_size)])


def full_trace_backward(net, caches, grad_logits):
    """Straight-through parameter gradients per layer index, with every
    layer's input gradient computed, layer 0's included."""
    grads = {}
    g = grad_logits
    for i in range(len(net.layers) - 1, -1, -1):
        g, pg = net.layers[i].backward(g, caches[i])
        if pg:
            grads[i] = pg
    return grads
