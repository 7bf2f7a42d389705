"""Sparsity objectives with exact gradients.

KL-family losses take teacher/student probability rows and return the batch
mean together with the gradient w.r.t. the STUDENT LOGITS (softmax-composed
form), which is what the trainer backpropagates.
"""

from __future__ import annotations

import math

import numpy as np

PROB_FLOOR = 1e-12
CLAMP_MIN = 0.05
ROW_SUM_TOL = 1e-4


def decay_scale(t: float, gamma: float) -> float:
    """Loss scale from a decaying log base b(t) = e * gamma^t.

    Change of base gives log_{b(t)}(x) = ln(x) / (1 + t*ln gamma); the
    denominator is clamped from below at CLAMP_MIN so the scale stays
    positive and bounded once the base would cross 1. The trainer counts t
    in calibration epochs.
    """
    return 1.0 / max(1.0 + t * math.log(gamma), CLAMP_MIN)


def _check_rows(p: np.ndarray, name: str) -> None:
    if p.ndim != 2:
        raise ValueError(f"{name} must be batch x classes")
    if not np.isfinite(p).all():
        raise ValueError(f"{name} has non-finite entries")
    sums = p.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
        raise ValueError(f"{name} rows not normalized (max dev "
                         f"{np.max(np.abs(sums - 1.0)):.2e})")


def kl_loss(z: np.ndarray, z_hat: np.ndarray):
    """Batch-mean KL(Z || Z_hat) and its gradient w.r.t. student logits."""
    _check_rows(z, "Z")
    _check_rows(z_hat, "Z_hat")
    q = np.maximum(z_hat, PROB_FLOOR)
    terms = np.where(z > 0, z * np.log(np.maximum(z, PROB_FLOOR) / q), 0.0)
    loss = float(terms.sum(axis=1).mean())
    grad = (z_hat - z) / z.shape[0]
    return loss, grad


def base_decayed_kl(z: np.ndarray, z_hat: np.ndarray, t: float, gamma: float):
    """decay_scale(t, gamma) * kl_loss, gradient scaled identically."""
    s = decay_scale(t, gamma)
    loss, grad = kl_loss(z, z_hat)
    return s * loss, s * grad


def layerwise_mse(y: np.ndarray, y_hat: np.ndarray):
    """Squared L2 distance between dense and sparse layer outputs; gradient is
    w.r.t. the sparse output."""
    if y.shape != y_hat.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {y_hat.shape}")
    if not (np.isfinite(y).all() and np.isfinite(y_hat).all()):
        raise ValueError("layer outputs have non-finite entries")
    diff = y_hat - y
    return float(np.sum(diff * diff)), 2.0 * diff


def cross_entropy(z_hat: np.ndarray, labels: np.ndarray):
    """Mean NLL of the true labels; gradient w.r.t. student logits."""
    _check_rows(z_hat, "Z_hat")
    b = z_hat.shape[0]
    picked = np.maximum(z_hat[np.arange(b), labels], PROB_FLOOR)
    loss = float(-np.log(picked).mean())
    grad = z_hat.copy()
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b
