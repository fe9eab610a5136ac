"""Softmax and cross-entropy loss with analytic logit gradient."""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteError, ShapeMismatch
from .activations import check_finite


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    check_finite(logits, "softmax logits")
    # The row max as a loop of np.maximum over the columns: the same
    # values as logits.max(axis=-1), several times faster on the short
    # rows of a class axis.
    row_max = logits[..., 0].copy()
    for k in range(1, logits.shape[-1]):
        np.maximum(row_max, logits[..., k], out=row_max)
    e = logits - row_max[..., np.newaxis]
    np.exp(e, out=e)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray]:
    """Return (probs, loss, grad wrt logits) for one-hot targets.

    For a single logit vector the loss is -log p_true and the gradient
    is ``probs - target``. For a (N, C) batch the loss is the mean over
    rows and the gradient is ``(probs - targets) / N`` so that it is the
    exact gradient of the returned scalar.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ShapeMismatch(
            f"logits shape {logits.shape} != targets shape {targets.shape}"
        )
    probs = softmax(logits)
    # Clip only inside the log; the returned probs stay exact.
    logp = np.log(np.maximum(probs, 1e-300))
    per_sample = -(targets * logp).sum(axis=-1)
    if logits.ndim == 1:
        loss = float(per_sample)
        grad = probs - targets
    else:
        n = logits.shape[0]
        loss = float(per_sample.mean())
        grad = (probs - targets) / n
    if not np.isfinite(loss):
        raise NonFiniteError("cross-entropy loss is non-finite")
    return probs, loss, grad
