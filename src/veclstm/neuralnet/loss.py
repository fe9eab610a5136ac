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
    """Return (probs, loss, grad wrt logits) for a batch of one-hot targets.

    logits and targets are (N, C). The loss is the mean of -log p_true
    over the rows and the gradient is ``(probs - targets) / N``, the
    exact gradient of the returned scalar. This is the one softmax of a
    training step: the probabilities it returns are the ones the step
    scores its batch with.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.ndim != 2 or logits.shape != targets.shape:
        raise ShapeMismatch(
            f"logits shape {logits.shape} and targets shape {targets.shape}"
            " must be the same (N, C)"
        )
    probs = softmax(logits)
    return probs, cross_entropy(probs, targets), (probs - targets) / logits.shape[0]


def cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean over the rows of -log p_true, for (N, C) probabilities and
    one-hot targets. Probabilities are clipped at 1e-300 inside the log
    only; a non-finite mean raises NonFiniteError.
    """
    logp = np.log(np.maximum(probs, 1e-300))
    loss = float(-(targets * logp).sum(axis=-1).mean())
    if not np.isfinite(loss):
        raise NonFiniteError("cross-entropy loss is non-finite")
    return loss
