"""Experiment pipeline: teacher prep, distribution selection, sparse
training, evaluation, reports, and the writers of a job's artifacts.

Every stage failure raises StageError tagged with the stage name (CLI exit
code 2); configuration problems raise ConfigError (exit code 1).
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .config import ExperimentConfig
from .data import CalibrationSet, Splits, idx_splits, sample_calibration, synthetic_splits
from .nn import Network, build_preset, load_network, save_masks, save_network
from .nn.checkpoint import atomic_write
from .search import GenerationStats, evolve
from .sparsity import (NMPattern, SparsityDistribution, erk_distribution, mask_summary,
                       nm_distribution, realized_sparsity, uniform_distribution)
from .training import RunResult, run_training, train_teacher


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


@contextmanager
def stage(name: str):
    """Re-raise a ValueError or OSError from inside as StageError(name)."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise StageError(name, str(exc)) from exc


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


METRICS_HEADER = tuple(f.name for f in fields(MetricsRow))


def load_dataset(cfg: ExperimentConfig) -> Splits:
    """The configured splits, NCHW images as loaded: the network decides how
    its layer 0 reads them (Network.as_input), whatever the preset."""
    with stage("data"):
        return (synthetic_splits if cfg.dataset == "synthetic" else idx_splits)(cfg)


def check_fits(net: Network, splits: Splits) -> None:
    """Raise ValueError unless net takes one train row and returns one logit
    per class: a checkpoint made for other data fails before any stage runs it."""
    logits = net.forward(splits.train_x[:1]).logits
    if logits.shape != (1, splits.classes):
        raise ValueError(f"the network returns logits of shape {logits.shape} for one "
                         f"train row, not (1, {splits.classes})")


def prepare_teacher(cfg: ExperimentConfig, splits: Splits, seed: int) -> Network:
    """The checkpoint, if it fits the splits, or the preset trained on the train
    split by train_teacher; a failure, such as a shape the preset rejects or a
    checkpoint made for other data, raises StageError("teacher")."""
    with stage("teacher"):
        if cfg.teacher_checkpoint:
            net = load_network(cfg.teacher_checkpoint)
            check_fits(net, splits)
            return net
        net = build_preset(cfg.preset, splits.train_x.shape[1:], splits.classes, seed=seed)
        return train_teacher(net, splits.train_x, splits.train_y, cfg.teacher_epochs, seed)


def select_distribution(cfg: ExperimentConfig, teacher: Network, calib: CalibrationSet,
                        seed: int) -> tuple[SparsityDistribution, list[GenerationStats]]:
    """Which layers are pruned, how, and at what rate (the N:M pattern when
    one is set, else the method's distribution), and the search's generation
    stats, empty unless the method searched. A ValueError, such as an
    excluded index that names no prunable layer, raises StageError("search")."""
    exclude = set(cfg.exclude_layers)
    with stage("search"):
        if cfg.nm_pattern:
            return nm_distribution(teacher, NMPattern.parse(cfg.nm_pattern), exclude), []
        if cfg.searches:
            best, stats = evolve(teacher, calib, cfg, seed)
            return best.distribution, stats
        if cfg.method == "erk+dst":
            return erk_distribution(teacher, cfg.sparsity, exclude), []
        # uniform for uniform+dst, pot-baseline, and oneshot
        return uniform_distribution(teacher, cfg.sparsity, exclude), []


def calibration_set(cfg: ExperimentConfig, splits: Splits, seed: int) -> CalibrationSet:
    """The seed's calibration rows; a sampling failure, such as more rows
    than the train split holds, raises StageError("data")."""
    with stage("data"):
        return sample_calibration(splits, cfg.calib_size, seed)


def evaluate(net: Network, splits: Splits, masks=None) -> float:
    """Top-1 on the eval split; a failure raises StageError("eval")."""
    with stage("eval"):
        return net.accuracy(splits.eval_x, splits.eval_y, masks=masks)


def write_distribution(out_dir: str, distribution: SparsityDistribution,
                       stats: list[GenerationStats]) -> None:
    """distribution.json unless the masks are N:M, and search.log, one line
    per generation, when there are search stats."""
    if distribution.nm is None:
        with atomic_write(os.path.join(out_dir, "distribution.json")) as f:
            f.write(distribution.to_json() + "\n")
    if stats:
        with atomic_write(os.path.join(out_dir, "search.log")) as f:
            f.write("\n".join(st.format() for st in stats) + "\n")


def write_artifacts(out_dir: str, result: RunResult, distribution: SparsityDistribution,
                    stats: list[GenerationStats]) -> None:
    """student.ckpt, masks.bin and masks.txt, the write_distribution files,
    and train_metrics.csv when there is a history."""
    save_network(result.student, os.path.join(out_dir, "student.ckpt"))
    save_masks(result.masks, os.path.join(out_dir, "masks.bin"))
    with atomic_write(os.path.join(out_dir, "masks.txt")) as f:
        f.write(mask_summary(result.masks) + "\n")
    write_distribution(out_dir, distribution, stats)
    if result.history:
        with atomic_write(os.path.join(out_dir, "train_metrics.csv"), newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(result.history[0]))
            w.writeheader()
            w.writerows(result.history)


def run_single(cfg: ExperimentConfig, splits: Splits, teacher: Network,
               seed: int, out_dir: str) -> MetricsRow:
    """One job; its files are written only once every stage has succeeded."""
    started = time.monotonic()
    calib = calibration_set(cfg, splits, seed)
    distribution, stats = select_distribution(cfg, teacher, calib, seed)
    with stage("train"):
        result = run_training(teacher, distribution, calib, cfg, seed)
    top1 = evaluate(result.student, splits, result.masks)
    with stage("artifacts"):
        write_artifacts(out_dir, result, distribution, stats)
        elapsed = time.monotonic() - started
        with atomic_write(os.path.join(out_dir, "timing.txt")) as f:
            f.write(f"wall_time_s={elapsed:.3f}\n")
    # CSV stays byte-deterministic unless timing is explicitly recorded
    wall = elapsed if cfg.record_timing else 0.0
    return MetricsRow(method=cfg.method, target_sparsity=distribution.target,
                      realized_sparsity=realized_sparsity(result.masks), top1=top1, seed=seed,
                      wall_time_s=wall)


def write_metrics(rows: list[MetricsRow], path) -> None:
    with atomic_write(path, newline="") as f:
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
    out_root = cfg.out_dir
    splits = load_dataset(cfg)
    teacher = prepare_teacher(cfg, splits, seed=cfg.data_seed)
    with stage("artifacts"):
        save_network(teacher, os.path.join(out_root, "teacher.ckpt"))
    rows = []
    for seed in cfg.seeds:
        out_dir = os.path.join(out_root, f"seed{seed}")
        rows.append(run_single(cfg, splits, teacher, seed, out_dir))
    with stage("artifacts"):
        write_metrics(rows, os.path.join(out_root, "metrics.csv"))
        with atomic_write(os.path.join(out_root, "config.json")) as f:
            json.dump(vars(cfg), f, indent=2, sort_keys=True)
    return rows


def report(run_dirs: list[str]) -> tuple[str, str]:
    """Comparison table: rows = methods, columns = sparsity targets, cells =
    median top-1 over seeds. Returns (aligned text, CSV text). A missing or
    malformed metrics.csv (no rows, a missing column, a top-1 that is not a
    number) raises StageError("report")."""
    cells: dict[tuple[str, str], list[float]] = {}
    for d in run_dirs:
        path = os.path.join(d, "metrics.csv")
        if not os.path.exists(path):
            raise StageError("report", f"no metrics.csv under {d}")
        with stage("report"):
            recs = read_metrics(path)
            if not recs:
                raise ValueError(f"{path}: no rows")
            for line, rec in enumerate(recs, start=2):
                method, target, top1 = (rec.get(k) for k in ("method", "target_sparsity", "top1"))
                if None in (method, target, top1):
                    raise ValueError(f"{path} line {line}: needs method, target_sparsity "
                                     "and top1")
                try:
                    value = float(top1)
                except ValueError:
                    raise ValueError(f"{path} line {line}: top1 {top1!r} is not a "
                                     "number") from None
                cells.setdefault((method, target), []).append(value)
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
