"""Elementwise activations and their derivatives.

All functions take and return float64 numpy arrays. Derivatives are
evaluated at the pre-activation input so a backward pass can be written
as ``grad_in = grad_out * deriv(kind, x)``.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteError

KINDS = ("sigmoid", "tanh", "relu")


def check_finite(x: np.ndarray, context: str = "") -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"non-finite values{': ' + context if context else ''}")
    return x


def sigmoid(x: np.ndarray) -> np.ndarray:
    return sigmoid_inplace(np.array(x, dtype=np.float64))


def sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    """Overwrite the float64 array x with sigmoid(x) and return it.

    Uses sigmoid(x) = 0.5 * (1 + tanh(x / 2)): one tanh, no mask, and
    nothing that can overflow.
    """
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5
    return x


def activation(kind: str, x: np.ndarray) -> np.ndarray:
    """Apply one of sigmoid / tanh / relu elementwise."""
    x = np.asarray(x, dtype=np.float64)
    check_finite(x, f"{kind} input")
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "relu":
        return np.maximum(x, 0.0)
    raise ValueError(f"unknown activation kind {kind!r}")


def activation_deriv(kind: str, x: np.ndarray) -> np.ndarray:
    """Derivative of the activation evaluated at x.

    relu uses the subgradient 0 at x == 0.
    """
    x = np.asarray(x, dtype=np.float64)
    if kind == "sigmoid":
        s = sigmoid(x)
        return s * (1.0 - s)
    if kind == "tanh":
        t = np.tanh(x)
        return 1.0 - t * t
    if kind == "relu":
        return (x > 0).astype(np.float64)
    raise ValueError(f"unknown activation kind {kind!r}")
