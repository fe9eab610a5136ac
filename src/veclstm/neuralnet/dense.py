"""Fully connected layer: y = x @ W.T + b, computed in the dtype of W."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch


@dataclass
class DenseParams:
    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)


def dense_forward(x: np.ndarray, params: DenseParams) -> np.ndarray:
    """x: (N, in) or (in,). Returns matching (N, out) or (out,)."""
    x = np.asarray(x, dtype=params.w.dtype)
    if x.shape[-1] != params.w.shape[1]:
        raise ShapeMismatch(
            f"dense input width {x.shape[-1]} != weight width {params.w.shape[1]}"
        )
    return x @ params.w.T + params.b


def dense_backward(
    x: np.ndarray, params: DenseParams, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dW, db, dx) of sum(grad_out * forward(x))."""
    x = np.asarray(x, dtype=params.w.dtype)
    grad_out = np.asarray(grad_out, dtype=params.w.dtype)
    if grad_out.shape != x.shape[:-1] + (params.w.shape[0],):
        raise ShapeMismatch("dense upstream gradient shape mismatch")
    if x.ndim == 1:
        dw = np.outer(grad_out, x)
        db = grad_out.copy()
    else:
        dw = grad_out.T @ x
        db = grad_out.sum(axis=0)
    dx = grad_out @ params.w
    return dw, db, dx
