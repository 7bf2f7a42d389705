"""Network container: masked forward, exact backward, BN recalibration."""

from __future__ import annotations

import copy as _copy
import hashlib
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .layers import BatchNorm, Dense, Layer, ShapeMismatchError

# Rows per eval-mode forward in predict and accuracy. A 256-row convnet-small
# forward's working set crossed glibc's mmap and trim thresholds, so every
# chunk returned its pages to the OS and faulted them in again; 128 rows stay
# under them and give the same logits bit for bit. 64 rows would not: the
# 10-wide Dense head of a 64-row forward differs by about 1e-16.
EVAL_CHUNK = 128


@dataclass
class ForwardTrace:
    """Per-layer caches from one forward pass: what an exact backward reads,
    and nothing else."""

    caches: list = field(default_factory=list)
    logits: np.ndarray | None = None
    net_id: int = 0


class Network:
    """Ordered layer stack. Masks are passed per call, keyed by layer index."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers = layers

    # -- structure -----------------------------------------------------

    def prunable_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.prunable]

    def copy(self) -> "Network":
        return _copy.deepcopy(self)

    def param_hash(self) -> str:
        h = hashlib.sha256()
        for layer in self.layers:
            for name in sorted(layer.params()):
                h.update(np.ascontiguousarray(layer.params()[name]).tobytes())
        return h.hexdigest()

    # -- execution -----------------------------------------------------

    def _check_masks(self, masks):
        if not masks:
            return
        for idx, m in masks.items():
            if not 0 <= idx < len(self.layers) or not self.layers[idx].prunable:
                raise ShapeMismatchError(idx, "mask given for non-prunable layer")
            if m.shape != self.layers[idx].weight.shape:
                raise ShapeMismatchError(
                    idx, f"mask shape {m.shape} != weight shape {self.layers[idx].weight.shape}")

    def as_input(self, x) -> np.ndarray:
        """x the way layer 0 reads it: an NCHW batch becomes (N, C*H*W) rows
        (a view of contiguous x) when layer 0 is Dense, and stays as it is
        otherwise. The one place where the input layout is decided."""
        x = np.asarray(x, dtype=np.float64)
        return x.reshape(len(x), -1) if isinstance(self.layers[0], Dense) else x

    def forward_layers(self, x, masks: dict | None = None, mode: str = "eval"):
        """(index, output, cache) of each layer in turn: the one forward loop.
        The layers get a 4-D NCHW input batch last, (C, H, W, N); Flatten turns
        it into (N, C*H*W) rows. A consumer that keeps neither the output nor
        the cache lets both go once the next layer has run."""
        self._check_masks(masks)
        h = self.as_input(x)
        h = h.transpose(1, 2, 3, 0) if h.ndim == 4 else h
        for i, layer in enumerate(self.layers):
            weff = None
            if layer.prunable and masks and i in masks:
                weff = layer.weight * masks[i]
            try:
                h, cache = layer.forward(h, mode=mode, weff=weff)
            except ValueError as exc:
                raise ShapeMismatchError(i, str(exc)) from exc
            yield i, h, cache

    def forward(self, x, masks: dict | None = None, mode: str = "eval") -> ForwardTrace:
        trace = ForwardTrace(net_id=id(self))
        for _, logits, cache in self.forward_layers(x, masks, mode):
            trace.caches.append(cache)
        trace.logits = logits
        return trace

    def backward(self, trace: ForwardTrace, grad_logits: np.ndarray) -> dict[int, dict]:
        """Gradients per layer index, straight through any masks: pruned entries
        get the gradient of the effective weight too. Nothing reads the input
        gradient of layer 0, so it is not computed."""
        if trace.net_id != id(self) or len(trace.caches) != len(self.layers):
            raise ValueError("trace does not belong to this network")
        grads: dict[int, dict] = {}
        g = grad_logits
        for i in range(len(self.layers) - 1, -1, -1):
            g, pg = self.layers[i].backward(g, trace.caches[i], input_grad=i > 0)
            if pg:
                grads[i] = pg
        return grads

    def bn_recalibrate(self, batches, masks: dict | None = None) -> "Network":
        """Replace all BN statistics by exact streaming moments over batches.
        Each forward stops before the last BatchNorm, which folds its input's
        moments and computes no output, as no later layer changes a running
        statistic; as layer 0 (or with none), layer 0 runs a recal forward."""
        bns = [i for i, layer in enumerate(self.layers) if isinstance(layer, BatchNorm)]
        for i in bns:
            self.layers[i].reset_stats()
        last = bns[-1] if bns else 0
        seen = 0
        for seen, batch in enumerate(batches, 1):
            for _, h, _ in islice(self.forward_layers(batch, masks, "recal"), max(last, 1)):
                pass
            if last:
                try:
                    self.layers[last].fold_moments(h)
                except ValueError as exc:
                    raise ShapeMismatchError(last, str(exc)) from exc
        if not seen:
            raise ValueError("bn_recalibrate: empty batch stream")
        return self

    # -- inference helpers ----------------------------------------------

    def _eval_logits(self, x, masks):
        """(start row, eval-mode logits) per EVAL_CHUNK rows of x: one chunk
        loop for predict and accuracy, so no forward grows with len(x). No
        trace is kept: each layer's arrays go once the next one has run."""
        if len(x) == 0:
            raise ValueError("no rows to evaluate")
        for start in range(0, len(x), EVAL_CHUNK):
            for _, logits, _ in self.forward_layers(x[start:start + EVAL_CHUNK],
                                                    masks, "eval"):
                pass
            yield start, logits

    def predict(self, x, masks=None):
        return predict_distribution(np.concatenate(
            [logits for _, logits in self._eval_logits(x, masks)]))

    def accuracy(self, x, y, masks=None) -> float:
        """Top-1 share of the rows of x. Non-finite logits raise ValueError:
        a NaN column would otherwise win every argmax."""
        correct = 0
        for start, logits in self._eval_logits(x, masks):
            if not np.isfinite(logits).all():
                raise ValueError("non-finite logits")
            correct += int(np.sum(np.argmax(logits, axis=1) == y[start:start + EVAL_CHUNK]))
        return correct / len(x)


def predict_distribution(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shift-stabilized."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)
