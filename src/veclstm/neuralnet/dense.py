"""Fully connected layer: y = x @ W.T + b, computed in the dtype of W.

The backward pass writes the parameter gradients into the arrays of an
out DenseParams (a gradient arena's views), or into new arrays when out
is None.
"""

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
    x: np.ndarray, params: DenseParams, grad_out: np.ndarray,
    out: DenseParams | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dW, db, dx) of sum(grad_out * forward(x)) for an (N, in) x.

    dW and db are out's arrays, written in place, or new ones.
    """
    x = np.asarray(x, dtype=params.w.dtype)
    grad_out = np.asarray(grad_out, dtype=params.w.dtype)
    if x.ndim != 2 or grad_out.shape != (x.shape[0], params.w.shape[0]):
        raise ShapeMismatch("dense input must be (N, in) and its upstream gradient (N, out)")
    if out is None:
        out = DenseParams(np.empty(params.w.shape, params.w.dtype),
                          np.empty(params.b.shape, params.b.dtype))
    np.matmul(grad_out.T, x, out=out.w)
    grad_out.sum(axis=0, out=out.b)
    return out.w, out.b, grad_out @ params.w
