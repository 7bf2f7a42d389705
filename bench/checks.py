"""Output checks written apart from ptsparse's own code paths.

The benchmark reads the program's artifacts with its own parser of the
``magic | u64 length | JSON | payload`` container and recomputes accuracy
with a small reference forward pass. Every check returns a list of problem
strings; an empty list means the job's outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

CKPT_MAGIC = b"PTSNET01"
MASK_MAGIC = b"PTSMSK01"
BN_EPS = 1e-5
TIE_GAP = 1e-9        # logits closer than this may order either way
SPARSITY_TOL = 0.005  # 0.5 percentage points


class ContainerError(ValueError):
    pass


def read_container(path, magic: bytes):
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != magic:
        raise ContainerError(f"{path}: magic {blob[:8]!r} != {magic!r}")
    if len(blob) < 16:
        raise ContainerError(f"{path}: truncated header")
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    if 16 + hlen > len(blob):
        raise ContainerError(f"{path}: header length {hlen} past end of file")
    header = json.loads(blob[16:16 + hlen].decode())
    return header, blob[16 + hlen:]


def _slice(payload: bytes, rec, path):
    start, nbytes = rec["offset"], rec["nbytes"]
    if start < 0 or start + nbytes > len(payload):
        raise ContainerError(f"{path}: array at {start}+{nbytes} past payload end")
    return payload[start:start + nbytes]


def read_checkpoint(path):
    """Layer specs and per-layer parameter dicts of a network checkpoint."""
    header, payload = read_container(path, CKPT_MAGIC)
    specs = header["layers"]
    params = [{} for _ in specs]
    for rec in header["arrays"]:
        arr = np.frombuffer(_slice(payload, rec, path), dtype="<f8")
        if arr.size != math.prod(rec["shape"]):
            raise ContainerError(f"{path}: array size does not match its shape")
        params[rec["layer"]][rec["name"]] = arr.reshape(rec["shape"])
    return specs, params


def read_masks(path) -> dict[int, np.ndarray]:
    header, payload = read_container(path, MASK_MAGIC)
    masks = {}
    for rec in header["masks"]:
        size = math.prod(rec["shape"])
        bits = np.unpackbits(np.frombuffer(_slice(payload, rec, path), dtype=np.uint8))
        if bits.size < size:
            raise ContainerError(f"{path}: mask of layer {rec['layer']} is short")
        masks[rec["layer"]] = bits[:size].reshape(rec["shape"]).astype(bool)
    return masks


def prunable(specs) -> list[int]:
    return [i for i, s in enumerate(specs) if s["kind"] in ("Dense", "Conv2d")]


# -- reference forward ------------------------------------------------------

def _conv(x, w, b, stride, padding):
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    k = w.shape[2]
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    y = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3]))   # b, oh, ow, o
    return y.transpose(0, 3, 1, 2) + b[None, :, None, None]


def reference_logits(specs, params, x, batch: int = 256) -> np.ndarray:
    """Eval-mode forward of a checkpoint, one layer kind at a time."""
    if specs[0]["kind"] == "Dense":
        x = x.reshape(len(x), -1)
    out = []
    for start in range(0, len(x), batch):
        h = x[start:start + batch]
        for spec, p in zip(specs, params):
            kind = spec["kind"]
            if kind == "Dense":
                h = h @ p["weight"].T + p["bias"]
            elif kind == "Conv2d":
                h = _conv(h, p["weight"], p["bias"], spec["stride"], spec["padding"])
            elif kind == "BatchNorm":
                shape = (1, -1) if h.ndim == 2 else (1, -1, 1, 1)
                scale = p["gamma"] / np.sqrt(p["running_var"] + BN_EPS)
                h = (h - p["running_mean"].reshape(shape)) * scale.reshape(shape) \
                    + p["beta"].reshape(shape)
            elif kind == "ReLU":
                h = np.where(h > 0, h, 0.0)
            elif kind == "AvgPool":
                k = spec["kernel_size"]
                h = sliding_window_view(h, (k, k), axis=(2, 3))[:, :, ::k, ::k] \
                    .mean(axis=(4, 5))
            elif kind == "Flatten":
                h = h.reshape(len(h), -1)
            else:
                raise ContainerError(f"unknown layer kind {kind!r}")
        out.append(h)
    return np.concatenate(out)


def correct_and_ties(logits, labels) -> tuple[int, int]:
    """Correct predictions and the number of rows whose top two logits tie."""
    top2 = np.sort(logits, axis=1)[:, -2:]
    ties = int(np.sum(top2[:, 1] - top2[:, 0] <= TIE_GAP))
    return int(np.sum(np.argmax(logits, axis=1) == labels)), ties


def magnitude_masks(weights: dict[int, np.ndarray], rate: float | None,
                    nm: tuple[int, int] | None) -> dict[int, np.ndarray]:
    """One-shot magnitude masks: per-layer top-k at ``rate``, or n of every m
    along the reduction axis."""
    masks = {}
    for i, w in weights.items():
        mags = np.abs(w.reshape(w.shape[0], -1))
        keep = np.zeros(mags.shape, dtype=bool)
        if nm is not None:
            n, m = nm
            for start in range(0, mags.shape[1], m):
                block = mags[:, start:start + m]
                top = np.argsort(-block, axis=1, kind="stable")[:, :min(n, block.shape[1])]
                np.put_along_axis(keep[:, start:start + m], top, True, axis=1)
        else:
            k = math.floor((1.0 - rate) * mags.size)
            keep.ravel()[np.argsort(-mags.ravel(), kind="stable")[:k]] = True
        masks[i] = keep.reshape(w.shape)
    return masks


def oneshot_top1(teacher_ckpt, x, y, rate, nm) -> float:
    """Eval accuracy of the teacher pruned once by magnitude, no training."""
    specs, params = read_checkpoint(teacher_ckpt)
    weights = {i: params[i]["weight"] for i in prunable(specs)}
    for i, keep in magnitude_masks(weights, rate, nm).items():
        params[i] = dict(params[i], weight=np.where(keep, weights[i], 0.0))
    correct, _ = correct_and_ties(reference_logits(specs, params, x), y)
    return correct / len(y)


# -- per-job checks ---------------------------------------------------------

def check_job(job_dir, metrics_csv, eval_x, eval_y, target: float,
              nm: tuple[int, int] | None, searched: bool, baseline_top1: float) -> list[str]:
    try:
        return _check_job(job_dir, metrics_csv, eval_x, eval_y, target, nm,
                          searched, baseline_top1)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_job(job_dir, metrics_csv, eval_x, eval_y, target, nm, searched,
               baseline_top1):
    problems = []
    with open(metrics_csv, newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != 1:
        return [f"metrics.csv has {len(rows)} rows, expected 1"]
    row = rows[0]
    top1, realized = float(row["top1"]), float(row["realized_sparsity"])

    specs, params = read_checkpoint(os.path.join(job_dir, "student.ckpt"))
    masks = read_masks(os.path.join(job_dir, "masks.bin"))
    idxs = prunable(specs)
    if sorted(masks) != idxs:
        problems.append(f"masks for layers {sorted(masks)}, prunable are {idxs}")
        return problems
    zeros = sum(int(np.sum(params[i]["weight"] == 0.0)) for i in idxs)
    total = sum(params[i]["weight"].size for i in idxs)
    zero_rate = zeros / total
    if abs(zero_rate - realized) > 5e-7:
        problems.append(f"zero share {zero_rate:.6f} != realized_sparsity {realized:.6f}")
    if nm is None and abs(zero_rate - target) > SPARSITY_TOL:
        problems.append(f"zero share {zero_rate:.4f} not within 0.5pp of {target}")
    for i in idxs:
        if np.any(params[i]["weight"][~masks[i]] != 0.0):
            problems.append(f"layer {i}: weights outside the mask are not zero")
    if nm is not None:
        n, m = nm
        for i in idxs:
            rows2d = masks[i].reshape(masks[i].shape[0], -1)
            full = rows2d.shape[1] // m * m
            kept = rows2d[:, :full].reshape(rows2d.shape[0], -1, m).sum(axis=2)
            if np.any(kept != n):
                problems.append(f"layer {i}: a full group of {m} keeps != {n}")

    correct, ties = correct_and_ties(reference_logits(specs, params, eval_x), eval_y)
    reported = round(top1 * len(eval_y))
    if abs(correct - reported) > ties:
        problems.append(f"reference top1 {correct}/{len(eval_y)} != reported "
                        f"{reported}/{len(eval_y)} ({ties} near ties)")
    if not top1 > baseline_top1:
        problems.append(f"top1 {top1:.4f} does not beat one-shot {baseline_top1:.4f}")

    dist_path = os.path.join(job_dir, "distribution.json")
    if nm is None:
        with open(dist_path) as f:
            dist = json.load(f)
        rates = np.array(dist["rates"], dtype=float)
        numels = np.array([params[i]["weight"].size for i in dist["layer_indices"]])
        if np.any((rates < 0) | (rates > 1)):
            problems.append("distribution rate outside [0, 1]")
        weighted = float(rates @ numels / numels.sum())
        if abs(weighted - target) > SPARSITY_TOL:
            problems.append(f"weighted rate {weighted:.4f} not within 0.5pp of {target}")
    if searched:
        with open(os.path.join(job_dir, "search.log")) as f:
            best = [float(v) for v in re.findall(r"best=([0-9.]+)", f.read())]
        if not best:
            problems.append("search.log has no generations")
        if any(b < a for a, b in zip(best, best[1:])):
            problems.append(f"search best decreased: {best}")

    with open(os.path.join(job_dir, "train_metrics.csv"), newline="") as f:
        losses = [float(r["loss"]) for r in csv.DictReader(f)]
    if not losses:
        problems.append("train_metrics.csv has no rows")
    if not all(math.isfinite(v) for v in losses):
        problems.append("train_metrics.csv has a non-finite loss")
    return problems
