"""Reference mask kernels: stable full sorts, kept as the oracle for the
linear-time kernels in ptsparse.sparsity."""

import math

import numpy as np


def topk_mask_reference(weights: np.ndarray, rate: float) -> np.ndarray:
    s = weights.size
    k = math.floor((1.0 - rate) * s)
    mask = np.zeros(s)
    if k > 0:
        order = np.argsort(-np.abs(weights).ravel(), kind="stable")
        mask[order[:k]] = 1.0
    return mask.reshape(weights.shape)


def nm_mask_reference(weights: np.ndarray, n: int, m: int) -> np.ndarray:
    rows = weights.reshape(weights.shape[0], -1)
    mask = np.zeros_like(rows)
    for start in range(0, rows.shape[1], m):
        block = rows[:, start:start + m]
        keep = min(n, block.shape[1])
        order = np.argsort(-np.abs(block), axis=1, kind="stable")[:, :keep]
        np.put_along_axis(mask[:, start:start + m], order, 1.0, axis=1)
    return mask.reshape(weights.shape)
