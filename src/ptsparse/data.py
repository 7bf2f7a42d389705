"""Dataset ingestion: IDX files, a seeded synthetic generator, calibration
sampling that is class-balanced and disjoint from the eval split."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig

IDX_DTYPES = {
    0x08: np.dtype(">u1"),
    0x09: np.dtype(">i1"),
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}


class IdxFormatError(ValueError):
    pass


def load_idx(path) -> np.ndarray:
    """Big-endian IDX: 0x00 0x00 <dtype> <ndims>, then uint32 dims, then data."""
    with open(path, "rb") as f:
        header = f.read(4)
        if len(header) < 4 or header[0] != 0 or header[1] != 0:
            raise IdxFormatError(f"{path}: bad IDX magic {header!r}")
        code, ndim = header[2], header[3]
        if code not in IDX_DTYPES:
            raise IdxFormatError(f"{path}: unknown IDX dtype code 0x{code:02x}")
        raw = f.read(4 * ndim)
        if len(raw) < 4 * ndim:
            raise IdxFormatError(f"{path}: header ends inside its {ndim} dimensions")
        dims = struct.unpack(f">{ndim}I", raw)
        data = f.read()
    dtype = IDX_DTYPES[code]
    expected = int(np.prod(dims)) * dtype.itemsize
    if len(data) != expected:
        raise IdxFormatError(f"{path}: payload {len(data)} bytes, expected {expected}")
    return np.frombuffer(data, dtype=dtype).reshape(dims).astype(
        dtype.newbyteorder("="))


@dataclass
class Splits:
    train_x: np.ndarray
    train_y: np.ndarray
    eval_x: np.ndarray
    eval_y: np.ndarray
    classes: int

    def __post_init__(self):
        for x, y, k in ((self.train_x, self.train_y, "train"),
                        (self.eval_x, self.eval_y, "eval")):
            if len(x) != len(y):
                raise ValueError(f"{k} split: {len(x)} images but {len(y)} labels")
            if y.ndim != 1:
                raise ValueError(f"{k} labels of shape {y.shape}: want one label per image")
            if len(y) and (y.min() < 0 or y.max() >= self.classes):
                raise ValueError(f"{k} labels outside [0, {self.classes})")


NOISE = 1.5  # pixel noise std of the synthetic images
OFFSET = 2.0  # and their background level


def synthetic_splits(cfg: ExperimentConfig) -> Splits:
    """Gaussian-blob one-channel images: each class owns a fixed template of
    cfg.data_blobs small isotropic blobs (sigma 0.5 to 1 px); samples add pixel
    noise. Fully seeded by cfg.data_seed, no downloads. Dense sharp templates keep
    classification sensitive to fine weight structure, so pruning damage is visible."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.data_seed, 0xDA7A)))
    h = w = cfg.image_size
    yy, xx = np.mgrid[0:h, 0:w]
    templates = np.zeros((cfg.classes, 1, h, w))
    for k in range(cfg.classes):
        for _ in range(cfg.data_blobs):
            cy, cx = rng.uniform(1, h - 1), rng.uniform(1, w - 1)
            sig = rng.uniform(0.5, 1.0)
            amp = rng.uniform(0.6, 1.4) * rng.choice([-1.0, 1.0])
            blob = amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sig ** 2))
            templates[k, 0] += blob

    def make(n, r):
        labels = r.integers(0, cfg.classes, size=n)
        # the constant background level mimics natural images' nonzero mean,
        # which makes stale BN statistics genuinely harmful after pruning
        x = OFFSET + templates[labels] + r.standard_normal((n, 1, h, w)) * NOISE
        return x, labels.astype(np.int64)

    train_x, train_y = make(cfg.train_size, rng)
    eval_x, eval_y = make(cfg.eval_size, rng)
    return Splits(train_x, train_y, eval_x, eval_y, cfg.classes)


def idx_splits(cfg: ExperimentConfig) -> Splits:
    """The splits of cfg's four IDX files, pixels divided by the train maximum if above 1."""
    tx = load_idx(cfg.idx_train_images).astype(np.float64)
    ty = load_idx(cfg.idx_train_labels).astype(np.int64)
    ex = load_idx(cfg.idx_eval_images).astype(np.float64)
    ey = load_idx(cfg.idx_eval_labels).astype(np.int64)
    if tx.ndim == 3:  # H x W images -> single channel
        tx = tx[:, None]
        ex = ex[:, None]
    scale = max(tx.max(), 1.0)
    tx, ex = tx / scale, ex / scale
    return Splits(tx, ty, ex, ey, cfg.classes)


@dataclass
class CalibrationSet:
    inputs: np.ndarray
    labels: np.ndarray


def _row_digests(x: np.ndarray) -> set:
    return {hashlib.sha1(np.ascontiguousarray(row).tobytes()).digest() for row in x}


def sample_calibration(splits: Splits, size: int, seed: int) -> CalibrationSet:
    """Draw the calibration set from the training split: size // classes rows
    of each class (fewer when a class is short), topped up uniformly from the
    rest; order is fixed by the seed. Disjointness from the eval split is
    asserted sample-by-sample."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xCA11B)))
    n = len(splits.train_x)
    if size > n:
        raise ValueError(f"calibration size {size} exceeds train split {n}")
    chosen = []
    per_class = size // splits.classes
    for k in range(splits.classes):
        pool = np.flatnonzero(splits.train_y == k)
        take = min(per_class, len(pool))
        chosen.append(rng.choice(pool, size=take, replace=False))
    chosen = np.concatenate(chosen) if chosen else np.array([], dtype=int)
    if len(chosen) < size:  # top up uniformly from the remainder
        rest = np.setdiff1d(np.arange(n), chosen)
        extra = rng.choice(rest, size=size - len(chosen), replace=False)
        chosen = np.concatenate([chosen, extra])
    chosen = chosen[rng.permutation(len(chosen))]
    inputs = splits.train_x[chosen].copy()
    labels = splits.train_y[chosen].copy()
    overlap = _row_digests(inputs) & _row_digests(splits.eval_x)
    if overlap:
        raise ValueError(f"calibration overlaps eval split ({len(overlap)} rows)")
    return CalibrationSet(inputs=inputs, labels=labels)
