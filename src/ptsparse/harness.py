"""Experiment pipeline: teacher prep, distribution selection, sparse
training, evaluation, and CSV/report emission.

Every stage failure raises StageError tagged with the stage name (CLI exit
code 2); configuration problems raise ConfigError (exit code 1).
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .data import CalibrationSet, Splits, idx_splits, sample_calibration, synthetic_splits
from .nn import Network, build_preset, load_network, predict_distribution, save_network
from .objectives import cross_entropy
from .search import evolve
from .sparsity import (NMPattern, SparsityDistribution, erk_distribution, mask_summary,
                       save_masks, uniform_distribution)
from .training import build_masks, cosine_lr, mask_rates, run_training

METRICS_HEADER = ("method", "target_sparsity", "realized_sparsity", "top1",
                  "seed", "wall_time_s")


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


@dataclass
class MetricsRow:
    method: str
    target_sparsity: float
    realized_sparsity: float
    top1: float
    seed: int
    wall_time_s: float

    def as_list(self):
        return [self.method, f"{self.target_sparsity:.4f}",
                f"{self.realized_sparsity:.6f}", f"{self.top1:.6f}",
                str(self.seed), f"{self.wall_time_s:.3f}"]


def load_dataset(cfg: ExperimentConfig) -> Splits:
    try:
        if cfg.dataset == "synthetic":
            return synthetic_splits(classes=cfg.classes, image_size=cfg.image_size,
                                    channels=cfg.channels, train_size=cfg.train_size,
                                    eval_size=cfg.eval_size, noise=cfg.data_noise,
                                    blobs_per_class=cfg.data_blobs,
                                    sigma_min=cfg.data_sigma_min,
                                    sigma_max=cfg.data_sigma_max,
                                    offset=cfg.data_offset,
                                    seed=cfg.data_seed)
        return idx_splits(cfg.idx_train_images, cfg.idx_train_labels,
                          cfg.idx_eval_images, cfg.idx_eval_labels,
                          classes=cfg.classes)
    except (ValueError, OSError) as exc:
        raise StageError("data", str(exc)) from exc


def teacher_in_shape(cfg: ExperimentConfig, splits: Splits):
    if cfg.preset == "mlp3":
        return (int(np.prod(splits.train_x.shape[1:])),)
    return splits.train_x.shape[1:]


def prepare_teacher(cfg: ExperimentConfig, splits: Splits, seed: int = 0) -> Network:
    """Load a checkpoint, or train a preset on the full train split."""
    if cfg.teacher_checkpoint:
        try:
            return load_network(cfg.teacher_checkpoint)
        except (ValueError, OSError) as exc:
            raise StageError("teacher", str(exc)) from exc
    net = build_preset(cfg.preset, teacher_in_shape(cfg, splits), splits.classes,
                       seed=seed)
    x, y = splits.train_x, splits.train_y
    if cfg.preset == "mlp3":
        x = x.reshape(len(x), -1)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7EA)))
    total = cfg.teacher_epochs * ((len(x) + 63) // 64)
    it = 0
    for _ in range(cfg.teacher_epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), 64):
            sel = order[start:start + 64]
            trace = net.forward(x[sel], mode="train")
            z_hat = predict_distribution(trace.logits)
            _, grad = cross_entropy(z_hat, y[sel])
            grads = net.backward(trace, grad)
            lr = cosine_lr(it, total, cfg.teacher_lr)
            for i, pg in grads.items():
                layer = net.layers[i]
                for name, g in pg.items():
                    layer.params()[name] -= lr * g
            it += 1
    net.mode = "eval"
    return net


def _flatten_if_mlp(cfg, x):
    return x.reshape(len(x), -1) if cfg.preset == "mlp3" else x


def select_distribution(cfg: ExperimentConfig, teacher: Network,
                        calib: CalibrationSet, seed: int, out_dir=None):
    """Distribution per method; None for N:M runs. A ValueError, such as
    every prunable layer excluded, raises StageError("search")."""
    if cfg.nm_pattern:
        return None, None
    exclude = set(cfg.exclude_layers)
    try:
        if cfg.method == "unipts":
            log_path = os.path.join(out_dir, "search.log") if out_dir else None
            best, history = evolve(teacher, calib, cfg.search_config(seed),
                                   log_path=log_path)
            return best.distribution, history
        if cfg.method == "erk+dst":
            return erk_distribution(teacher, cfg.sparsity, exclude or None), None
        # uniform for uniform+dst, pot-baseline, and oneshot
        return uniform_distribution(teacher, cfg.sparsity, exclude or None), None
    except ValueError as exc:
        raise StageError("search", str(exc)) from exc


def oneshot_prune(cfg: ExperimentConfig, teacher: Network,
                  distribution: SparsityDistribution | None):
    """Magnitude-prune a teacher copy without training: the configured N:M
    pattern on every layer not excluded, or the distribution's top-k."""
    nm = NMPattern.parse(cfg.nm_pattern) if cfg.nm_pattern else None
    student = teacher.copy()
    masks = build_masks(student, mask_rates(student, distribution, nm,
                                            set(cfg.exclude_layers)), nm)
    for i, m in masks.items():
        student.layers[i].weight *= m
    return student, masks


def run_single(cfg: ExperimentConfig, splits: Splits, teacher: Network,
               seed: int, out_dir: str) -> MetricsRow:
    started = time.monotonic()
    os.makedirs(out_dir, exist_ok=True)
    calib = sample_calibration(splits, cfg.calib_size, seed,
                               balanced=cfg.calib_balanced)
    calib = CalibrationSet(inputs=_flatten_if_mlp(cfg, calib.inputs),
                           labels=calib.labels, seed=calib.seed)
    distribution, _ = select_distribution(cfg, teacher, calib, seed, out_dir)

    nm = NMPattern.parse(cfg.nm_pattern) if cfg.nm_pattern else None
    target = nm.sparsity if nm else cfg.sparsity
    try:
        if cfg.method == "oneshot":
            student, masks = oneshot_prune(cfg, teacher, distribution)
            history = []
        else:
            result = run_training(teacher, distribution, calib, cfg.train_config(seed),
                                  nm=nm, exclude=set(cfg.exclude_layers))
            student, masks, history = result.student, result.masks, result.history
    except ValueError as exc:
        raise StageError("train", str(exc)) from exc

    try:
        eval_x = _flatten_if_mlp(cfg, splits.eval_x)
        top1 = student.accuracy(eval_x, splits.eval_y, masks=masks)
    except ValueError as exc:
        raise StageError("eval", str(exc)) from exc

    realized = 1.0 - sum(float(m.sum()) for m in masks.values()) / \
        sum(m.size for m in masks.values())
    os.makedirs(out_dir, exist_ok=True)
    save_network(student, os.path.join(out_dir, "student.ckpt"))
    save_masks(masks, os.path.join(out_dir, "masks.bin"))
    with open(os.path.join(out_dir, "masks.txt"), "w") as f:
        f.write(mask_summary(masks) + "\n")
    if distribution is not None:
        with open(os.path.join(out_dir, "distribution.json"), "w") as f:
            f.write(distribution.to_json() + "\n")
    if history:
        with open(os.path.join(out_dir, "train_metrics.csv"), "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(history[0]))
            w.writeheader()
            w.writerows(history)
    elapsed = time.monotonic() - started
    with open(os.path.join(out_dir, "timing.txt"), "w") as f:
        f.write(f"wall_time_s={elapsed:.3f}\n")
    # CSV stays byte-deterministic unless timing is explicitly recorded
    wall = elapsed if cfg.record_timing else 0.0
    return MetricsRow(method=cfg.method, target_sparsity=target,
                      realized_sparsity=realized, top1=top1, seed=seed,
                      wall_time_s=wall)


def write_metrics(rows: list[MetricsRow], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(METRICS_HEADER)
        for row in rows:
            w.writerow(row.as_list())


def read_metrics(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def run_experiment(cfg: ExperimentConfig) -> list[MetricsRow]:
    """Full pipeline over all configured seeds; writes metrics.csv and
    per-seed artifacts under the output directory."""
    out_root = cfg.resolved_out_dir()
    os.makedirs(out_root, exist_ok=True)
    splits = load_dataset(cfg)
    teacher = prepare_teacher(cfg, splits, seed=cfg.data_seed)
    save_network(teacher, os.path.join(out_root, "teacher.ckpt"))
    rows = []
    for seed in cfg.seeds:
        out_dir = os.path.join(out_root, f"seed{seed}")
        rows.append(run_single(cfg, splits, teacher, seed, out_dir))
    write_metrics(rows, os.path.join(out_root, "metrics.csv"))
    with open(os.path.join(out_root, "config.json"), "w") as f:
        json.dump({k: list(v) if isinstance(v, tuple) else v
                   for k, v in vars(cfg).items()}, f, indent=2, sort_keys=True)
    return rows


def report(run_dirs: list[str]) -> tuple[str, str]:
    """Comparison table: rows = methods, columns = sparsity targets, cells =
    median top-1 over seeds. Returns (aligned text, CSV text)."""
    cells: dict[tuple[str, str], list[float]] = {}
    for d in run_dirs:
        path = os.path.join(d, "metrics.csv")
        if not os.path.exists(path):
            raise StageError("report", f"no metrics.csv under {d}")
        for rec in read_metrics(path):
            key = (rec["method"], rec["target_sparsity"])
            cells.setdefault(key, []).append(float(rec["top1"]))
    methods = sorted({m for m, _ in cells})
    targets = sorted({t for _, t in cells})
    table = {(m, t): float(np.median(cells[(m, t)]))
             for (m, t) in cells}

    width = max(12, max(len(m) for m in methods) + 2)
    lines = ["".join(["method".ljust(width)] + [t.rjust(12) for t in targets])]
    for m in methods:
        row = [m.ljust(width)]
        for t in targets:
            v = table.get((m, t))
            row.append((f"{v:.4f}" if v is not None else "-").rjust(12))
        lines.append("".join(row))
    text = "\n".join(lines)

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["method"] + targets)
    for m in methods:
        w.writerow([m] + [f"{table[(m, t)]:.6f}" if (m, t) in table else ""
                          for t in targets])
    return text, buf.getvalue()
