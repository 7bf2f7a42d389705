"""Every parameter step: the dense teacher's SGD, and sparse training against it.

The student starts as a copy of the teacher, trains with a masked forward and
straight-through backward, and refreshes its magnitude masks every delta_t
iterations. Pruned entries receive an extra magnitude decay on every update,
which damps mask churn. The DST objective is the base-decayed KL; gamma = 1
makes it plain KL. The layerwise-MSE objective instead runs a sequential
per-layer reconstruction with static masks (POT-style baseline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .nn.network import Network, predict_distribution
from .objectives import base_decayed_kl, cross_entropy, layerwise_mse
from .sparsity import SparsityDistribution, nm_mask, realized_sparsity, topk_mask


@dataclass
class TrainState:
    student: Network
    masks: dict[int, np.ndarray]
    distribution: SparsityDistribution
    iteration: int = 0


def cosine_lr(iteration: int, total: int, lr0: float) -> float:
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * iteration / total))


def build_masks(net: Network, dist: SparsityDistribution) -> dict[int, np.ndarray]:
    """Magnitude masks on the distribution's layers: N:M or top-k."""
    if dist.nm is not None:
        return {i: nm_mask(net.layers[i].weight, dist.nm) for i in dist.layer_indices}
    return {i: topk_mask(net.layers[i].weight, r)
            for i, r in zip(dist.layer_indices, dist.rates)}


def mask_churn(old: dict[int, np.ndarray], new: dict[int, np.ndarray]) -> float:
    flipped = sum(np.count_nonzero(old[i] != new[i]) for i in old)
    total = sum(m.size for m in old.values())
    return flipped / total


def _objective_grad(gamma: float, z, logits_hat, t):
    """Base-decayed KL of z against the student's softmax; grad w.r.t. logits."""
    return base_decayed_kl(z, predict_distribution(logits_hat), t, gamma)


def train_step(state: TrainState, batch, cfg: ExperimentConfig, calib_size: int,
               with_churn: bool = False):
    """One update on batch = (x, teacher probability rows): masked forward,
    STE backward, decayed update of pruned entries, then a mask refresh when
    the interval divides. The loss scale's t counts epochs over calib_size
    rows; returns (loss, churn, lr), churn 0.0 unless with_churn and a refresh."""
    x, z = batch
    trace = state.student.forward(x, masks=state.masks, mode="train")
    t = (state.iteration * cfg.batch_size) // max(calib_size, 1)
    loss, grad_logits = _objective_grad(cfg.gamma, z, trace.logits, t)
    grads = state.student.backward(trace, grad_logits)
    lr = cosine_lr(state.iteration, cfg.steps, cfg.lr)
    _apply_update(state.student, grads, lr, state.masks, cfg.alpha)
    state.iteration += 1
    churn = 0.0
    if state.iteration % cfg.delta_t == 0:
        new_masks = build_masks(state.student, state.distribution)
        churn = mask_churn(state.masks, new_masks) if with_churn else 0.0
        state.masks = new_masks
    return loss, churn, lr


def _apply_update(net: Network, grads, lr: float, masks=None, alpha: float = 0.0):
    """One SGD step on every parameter in grads, in place: p -= lr * g.
    A weight with a mask also decays by alpha * p on its pruned entries."""
    masks = masks or {}
    for i, pg in grads.items():
        layer = net.layers[i]
        for name, g in pg.items():
            p = layer.params()[name]
            step = lr * g
            if name == "weight" and i in masks:
                # p -= step + decay * p, with one buffer: addition commutes
                buf = _decay_rates(masks[i], alpha)
                buf *= p
                buf += step
                p -= buf
            else:
                p -= step


def _decay_rates(mask: np.ndarray, alpha: float) -> np.ndarray:
    """(1 - mask) * alpha: the bytes of np.where(mask == 0, alpha, 0.0) with no
    data-dependent branch; + 0.0 makes an alpha of -0.0 decay kept entries by +0.0."""
    buf = 1.0 - mask
    buf *= alpha + 0.0
    return buf


@dataclass
class RunResult:
    student: Network
    masks: dict[int, np.ndarray]
    history: list          # dict rows: iter, loss, lr, churn, sparsity, calib_acc


def _writes_row(step: int, last: int, every: int) -> bool:
    """The history schedule of both loops: a row at every every-th step and the last."""
    return step % every == 0 or step == last


def _history_row(it, loss, lr, churn, student, masks, calib) -> dict:
    """One train_metrics.csv row."""
    return {"iter": it, "loss": loss, "lr": lr, "churn": churn,
            "sparsity": realized_sparsity(masks),
            "calib_acc": student.accuracy(calib.inputs, calib.labels, masks=masks)}


def _batch_stream(n, batch_size, iterations, rng):
    """Row selections cycling n rows, with a fresh permutation each epoch."""
    produced = 0
    while produced < iterations:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            if produced >= iterations:
                return
            yield order[start:start + batch_size]
            produced += 1


TEACHER_BATCH = 64
TEACHER_LR = 0.05


def train_teacher(net: Network, x, y, epochs: int, seed: int) -> Network:
    """Train net in place on (x, y) for epochs passes: cross-entropy SGD,
    batch TEACHER_BATCH, cosine learning rate from TEACHER_LR."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7EA)))
    total = epochs * -(-len(x) // TEACHER_BATCH)
    for it, sel in enumerate(_batch_stream(len(x), TEACHER_BATCH, total, rng)):
        trace = net.forward(x[sel], mode="train")
        _, grad = cross_entropy(predict_distribution(trace.logits), y[sel])
        _apply_update(net, net.backward(trace, grad), cosine_lr(it, total, TEACHER_LR))
    return net


def run_training(teacher: Network, distribution: SparsityDistribution,
                 calib, cfg: ExperimentConfig, seed: int) -> RunResult:
    """Train a sparse student from a teacher copy on the calibration set.

    The distribution selects the masks. With zero iterations this is
    one-shot magnitude pruning. The returned student has its final masks
    applied destructively, so exported weights are genuinely sparse. A
    ValueError raised by a DST step (a non-finite loss input or weight)
    names the step.

    The teacher is frozen and the calibration rows are fixed, so its
    probability rows are computed once, before the first step, in the
    EVAL_CHUNK-row blocks of Network.predict.
    """
    if cfg.steps and len(calib.inputs) == 0:
        raise ValueError("empty calibration set")
    student = teacher.copy()
    masks = build_masks(student, distribution)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7D)))  # batch order
    if cfg.reconstructs:
        history = _run_layerwise_reconstruction(teacher, student, masks, calib, cfg, rng)
    else:
        masks, history = _run_dst(teacher, student, masks, distribution, calib, cfg, rng)
    for i, m in masks.items():  # so exported weights are sparse
        student.layers[i].weight *= m
    return RunResult(student=student, masks=masks, history=history)


def _run_dst(teacher, student, masks, distribution, calib, cfg, rng):
    """run_training's DST steps; returns (final masks, history)."""
    state = TrainState(student=student, masks=masks, distribution=distribution)
    history = []
    n = len(calib.inputs)
    z = teacher.predict(calib.inputs) if cfg.steps else None
    for sel in _batch_stream(n, cfg.batch_size, cfg.steps, rng):
        step = state.iteration + 1
        row = _writes_row(step, cfg.steps, cfg.metrics_every)
        try:
            loss, churn, lr = train_step(state, (calib.inputs[sel], z[sel]), cfg, n, row)
        except ValueError as exc:
            raise ValueError(f"DST iteration {step}: {exc}") from exc
        if row:
            history.append(_history_row(step, loss, lr, churn, student, state.masks, calib))
    return state.masks, history


def _run_layerwise_reconstruction(teacher, student, masks, calib, cfg, rng) -> list:
    """POT-style baseline: static one-shot masks, then each prunable layer is
    tuned in order, for iterations // layers steps, to reconstruct the dense
    layer's output under MSE. The masked forward never reads a pruned entry,
    so pruned entries may drift; run_training's final masking clears them.
    The teacher's eval forward has no side effects, so it stops at the tuned
    layer; the student's train forward runs every layer, because train-mode
    BN updates its running statistics. Returns the history."""
    idxs = [i for i in student.prunable_indices() if i in masks]
    per_layer = cfg.steps // max(len(idxs), 1)
    history = []
    step_count = 0
    for li in idxs:
        layer = student.layers[li]
        for sel in _batch_stream(len(calib.inputs), cfg.batch_size, per_layer, rng):
            x = calib.inputs[sel]
            # reconstruct this layer's pre-activation output
            for i, y_dense, _ in teacher.forward_layers(x):
                if i == li:
                    break
            for i, y, cache in student.forward_layers(x, masks, mode="train"):
                if i == li:
                    y_sparse, s_cache = y, cache
            loss, gy = layerwise_mse(y_dense, y_sparse)
            gy = gy / y_dense.size  # per-element normalization keeps steps sane
            _, pg = layer.backward(gy, s_cache, input_grad=False)
            lr = cosine_lr(step_count, cfg.steps, cfg.lr)
            _apply_update(student, {li: pg}, lr)
            step_count += 1
            if _writes_row(step_count, per_layer * len(idxs), cfg.metrics_every):
                history.append(_history_row(step_count, loss / x.shape[0], lr, 0.0,
                                            student, masks, calib))
    return history
