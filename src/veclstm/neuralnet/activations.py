"""Elementwise helpers for the layers: a finite-value check and sigmoid.

Both work in the dtype of the array they are given, float32 in training
and inference, float64 in the gradient checks.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteError


def check_finite(x: np.ndarray, context: str = "") -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"non-finite values{': ' + context if context else ''}")
    return x


def sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    """Overwrite the floating-point array x with sigmoid(x) and return it.

    Uses sigmoid(x) = 0.5 * (1 + tanh(x / 2)): one tanh, no mask, and
    nothing that can overflow.
    """
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5
    return x
