"""Mask algebra and per-layer sparsity distributions.

Masks are dense binary float64 tensors congruent to the weight tensors they
select from. All functions here are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .nn.network import Network


def topk_mask(weights: np.ndarray, rate: float) -> np.ndarray:
    """Keep the floor((1-rate)*S) largest-magnitude entries.

    Ties break stably by ascending flat index among equal magnitudes: every
    entry above the k-th largest magnitude is kept, and the remaining places
    go to the entries equal to it in ascending flat index. Linear in S.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate {rate} outside [0,1]")
    mag = _magnitudes(weights).ravel()
    s = mag.size
    k = math.floor((1.0 - rate) * s)
    if k == 0:
        return np.zeros(weights.shape)
    threshold = np.partition(mag, s - k)[s - k]
    keep = mag > threshold
    ties = np.flatnonzero(mag == threshold)
    keep[ties[:k - np.count_nonzero(keep)]] = True
    return keep.astype(np.float64).reshape(weights.shape)


def _magnitudes(weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    mag = np.abs(weights, out=out)
    if not np.isfinite(mag).all():
        raise ValueError("non-finite weights cannot be ranked by magnitude")
    return mag


@dataclass(frozen=True)
class NMPattern:
    """Keep n weights per group of m consecutive weights along the reduction
    axis (input-channel-major flattening of the weight tensor)."""

    n: int
    m: int

    def __post_init__(self):
        if not 1 <= self.n <= self.m or self.m < 2:
            raise ValueError(f"invalid N:M pattern {self.n}:{self.m}")

    @property
    def sparsity(self) -> float:
        return 1.0 - self.n / self.m

    @classmethod
    def parse(cls, text: str) -> "NMPattern":
        n, m = text.split(":")
        return cls(int(n), int(m))


def nm_mask(weights: np.ndarray, pattern: NMPattern) -> np.ndarray:
    """Per length-m group along the reduction axis, keep the n largest
    magnitudes, ties to the lower index. A short trailing group keeps
    min(n, len) weights.

    An entry's rank is the number of entries in its group that are larger
    plus the number that are equal and sit at a lower index; entries ranked
    below n are kept. The ranks are counted on a group-major copy of the
    magnitudes, whose row k holds entry k of every group, so each compare
    reads two contiguous rows. A row that m does not divide is padded with
    zeros: a pad sits after every real entry of its group, so it would have
    to be strictly larger to outrank one. Linear in the weight count for a
    fixed m.
    """
    n, m = pattern.n, pattern.m
    rows = weights.reshape(weights.shape[0], -1)
    r, c = rows.shape
    groups = -(-c // m)
    if c % m:
        padded = np.zeros((r, groups * m))
        padded[:, :c] = rows
        rows = padded
    mag = _magnitudes(rows.reshape(r * groups, m).T, out=np.empty((m, r * groups)))
    # rank[j] starts at j, as if every earlier entry outranked it; for each
    # pair i < j in which j is larger, rank[i] gains one and rank[j] drops one
    rank = np.empty(mag.shape, dtype=np.min_scalar_type(m - 1))
    rank[...] = np.arange(m, dtype=rank.dtype)[:, None]
    for i in range(m - 1):
        later_wins = mag[i + 1:] > mag[i]
        rank[i] += later_wins.sum(axis=0, dtype=rank.dtype)
        rank[i + 1:] -= later_wins
    keep = np.empty((r, groups * m))
    np.less(rank.T, n, out=keep.reshape(r * groups, m))
    if c % m:
        keep = np.ascontiguousarray(keep[:, :c])
    return keep.reshape(weights.shape)


def realized_sparsity(masks: dict[int, np.ndarray]) -> float:
    """1 - kept/total over the masked layers; 0.0 for no masks."""
    total = sum(m.size for m in masks.values())
    ones = sum(float(m.sum()) for m in masks.values())
    return 1.0 - ones / total if total else 0.0


@dataclass
class SparsityDistribution:
    """Per-layer sparsity rates realizing a global target: top-k masks at
    these rates, or, when nm is set, that N:M pattern on these layers."""

    rates: list[float]
    target: float
    layer_indices: list[int]
    nm: NMPattern | None = None

    def to_json(self) -> str:
        return json.dumps({"rates": self.rates, "target": self.target,
                           "layer_indices": self.layer_indices}, sort_keys=True)


def uniform_distribution(net: Network, p: float,
                         exclude: set[int] | None = None) -> SparsityDistribution:
    idxs = included_layers(net, exclude)
    return SparsityDistribution(rates=[p] * len(idxs), target=p, layer_indices=idxs)


def nm_distribution(net: Network, nm: NMPattern,
                    exclude: set[int] | None = None) -> SparsityDistribution:
    return replace(uniform_distribution(net, nm.sparsity, exclude), nm=nm)


def erk_distribution(net: Network, p: float,
                     exclude: set[int] | None = None) -> SparsityDistribution:
    """Per-layer density proportional to sum(dims)/prod(dims): every layer
    pruned fully, then (1-p) of the weights regrown in shares proportional
    to each weight shape's sum of dimensions, capped at dense."""
    idxs = included_layers(net, exclude)
    numels = np.array([net.layers[i].weight.size for i in idxs], dtype=float)
    sums = np.array([sum(net.layers[i].weight.shape) for i in idxs], dtype=float)
    return regrow_distribution(idxs, numels, sums / sums.sum(), p, 1.0)


def regrow_distribution(idxs: list[int], numels: np.ndarray, shares: np.ndarray,
                        p: float, p_e: float) -> SparsityDistribution:
    """Reducing-regrowing: prune every layer to p_e, then regrow the residual
    (p_e - p) * numel(W) as T = shares * residual, r_l = p_e - T_l / numel_l.
    Layers whose regrow share would push the rate below 0 get rate exactly 0
    (p_e - cap / numel can round to 2**-53), and the surplus is redistributed
    proportionally to the remaining shares, to a fixpoint."""
    residual = (p_e - p) * numels.sum()
    alloc = shares * residual
    cap = p_e * numels  # regrow beyond this would drive r_l below 0
    clamped = np.zeros(len(idxs), dtype=bool)
    for _ in range(len(idxs)):
        over = ~clamped & (alloc > cap + 1e-12)
        if not over.any():
            break
        surplus = float((alloc[over] - cap[over]).sum())
        alloc[over] = cap[over]
        clamped |= over
        free = ~clamped
        if not free.any():
            break
        share = shares[free] / shares[free].sum()
        alloc[free] += share * surplus
    rates = np.where(clamped, 0.0, np.clip(p_e - alloc / numels, 0.0, 1.0))
    return SparsityDistribution(rates=[float(r) for r in rates], target=p,
                                layer_indices=idxs)


def included_layers(net: Network, exclude: set[int] | None = None) -> list[int]:
    """Prunable layer indices not in `exclude`; raises when `exclude` names
    a layer that is not prunable, or when none are left."""
    exclude = exclude or set()
    prunable = net.prunable_indices()
    stray = sorted(set(exclude) - set(prunable))
    if stray:
        raise ValueError(f"exclude_layers {stray} name no prunable layer "
                         f"(prunable: {prunable})")
    idxs = [i for i in prunable if i not in exclude]
    if not idxs:
        raise ValueError("no prunable layers left after exclusion")
    return idxs


def mask_summary(masks: dict[int, np.ndarray]) -> str:
    lines = [f"{'layer':>6} {'shape':>18} {'nnz':>10} {'rate':>8}"]
    for i, m in sorted(masks.items()):
        lines.append(f"{i:>6} {str(tuple(m.shape)):>18} {int(m.sum()):>10} "
                     f"{realized_sparsity({i: m}):8.4f}")
    return "\n".join(lines)
