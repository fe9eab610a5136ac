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
    """x: (N, in). Returns (N, out)."""
    x = np.asarray(x, dtype=params.w.dtype)
    if x.ndim != 2 or x.shape[1] != params.w.shape[1]:
        raise ShapeMismatch(f"dense input must be (N, {params.w.shape[1]}), got {x.shape}")
    return x @ params.w.T + params.b


def dense_backward(
    x: np.ndarray, params: DenseParams, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dW, db, dx) of sum(grad_out * forward(x)) for an (N, in) x."""
    x = np.asarray(x, dtype=params.w.dtype)
    grad_out = np.asarray(grad_out, dtype=params.w.dtype)
    if x.ndim != 2 or grad_out.shape != (x.shape[0], params.w.shape[0]):
        raise ShapeMismatch("dense input must be (N, in) and its upstream gradient (N, out)")
    return grad_out.T @ x, grad_out.sum(axis=0), grad_out @ params.w
