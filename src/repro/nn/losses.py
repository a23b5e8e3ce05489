"""Loss functions.

Each returns ``(loss_value, grad_wrt_logits)`` with the gradient already
scaled for a *mean* loss over the batch, matching the substrate's
backward convention.
"""

from __future__ import annotations

import numpy as np

__all__ = ["softmax_cross_entropy", "smooth_l1_loss"]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax_cross_entropy(
    logits: np.ndarray, targets: np.ndarray, *, ignore_index: int | None = None
) -> tuple[float, np.ndarray]:
    """Cross-entropy over the last axis; ``targets`` are integer class ids.

    Leading dims are flattened (so (N, T, V) logits with (N, T) targets
    work for language modelling).  ``ignore_index`` masks padding tokens
    out of both the loss and the gradient.
    """
    v = logits.shape[-1]
    flat_logits = logits.reshape(-1, v)
    flat_targets = targets.reshape(-1)
    if ignore_index is not None:
        keep = flat_targets != ignore_index
    else:
        keep = np.ones(flat_targets.size, dtype=bool)
    n_eff = max(int(keep.sum()), 1)
    logp = _log_softmax(flat_logits)
    rows = np.arange(flat_targets.size)
    safe_targets = np.where(keep, flat_targets, 0)
    losses = -logp[rows, safe_targets] * keep
    loss = float(losses.sum() / n_eff)
    grad = np.exp(logp)
    grad[rows, safe_targets] -= 1.0
    grad *= keep[:, None] / n_eff
    return loss, grad.reshape(logits.shape).astype(np.float32)


def smooth_l1_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Huber / smooth-L1 with its knee at 1, the box-regression loss of
    detection heads."""
    diff = pred - target
    absd = np.abs(diff)
    quad = absd < 1.0
    losses = np.where(quad, 0.5 * diff**2, absd - 0.5)
    n = diff.size
    grad = np.where(quad, diff, np.sign(diff)) / n
    return float(losses.mean()), grad.astype(np.float32)
