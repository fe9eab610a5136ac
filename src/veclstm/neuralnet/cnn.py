"""1D convolution (cross-correlation, valid padding) and max pooling.

The convolution is computed as im2col + one matrix product: the k-wide
windows of x, laid out as rows of length C_in*k, times the kernels
flattened to (K, C_in*k). The backward pass is two more products, one
for the kernel gradient and one for the input gradient, whose window
columns are folded back onto the input with k shifted adds. A caller
that needs only the parameter gradients can skip the second product.

Max pooling with pool = 1 is the identity: forward returns its input
and no cache, backward returns its upstream gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import InputTooShort, ShapeMismatch


@dataclass
class Conv1dParams:
    kernels: np.ndarray  # (K, C_in, k)
    biases: np.ndarray   # (K,)


def _columns(x: np.ndarray, width: int) -> np.ndarray:
    """im2col: (N, L, C_in) -> (N*W, C_in*k), one row per window."""
    n, length, c_in = x.shape
    windows = sliding_window_view(x, width, axis=1)  # (N, W, C_in, k)
    return windows.reshape(n * (length - width + 1), c_in * width)


def conv1d_forward(x: np.ndarray, params: Conv1dParams) -> np.ndarray:
    """x: (N, L, C_in) -> (N, L-k+1, K). No kernel flip, stride 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:  # single sample (L, C_in)
        x = x[np.newaxis]
    k_filters, c_in, width = params.kernels.shape
    if x.shape[2] != c_in:
        raise ShapeMismatch(f"input channels {x.shape[2]} != kernel channels {c_in}")
    if x.shape[1] < width:
        raise InputTooShort(f"input length {x.shape[1]} < kernel width {width}")
    out = _columns(x, width) @ params.kernels.reshape(k_filters, c_in * width).T
    out += params.biases
    return out.reshape(x.shape[0], x.shape[1] - width + 1, k_filters)


def conv1d_backward(
    x: np.ndarray, params: Conv1dParams, grad_out: np.ndarray,
    input_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gradients (d_kernels, d_biases, d_input) for conv1d_forward.

    With input_grad=False, d_input is not formed and is returned as None.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = x[np.newaxis]
    grad_out = np.asarray(grad_out, dtype=np.float64)
    k_filters, c_in, width = params.kernels.shape
    n, length, _ = x.shape
    n_windows = length - width + 1
    if grad_out.shape != (n, n_windows, k_filters):
        raise ShapeMismatch("conv1d upstream gradient shape mismatch")

    g = grad_out.reshape(n * n_windows, k_filters)
    flat_kernels = params.kernels.reshape(k_filters, c_in * width)
    d_kernels = (g.T @ _columns(x, width)).reshape(k_filters, c_in, width)
    d_biases = g.sum(axis=0)
    if not input_grad:
        return d_kernels, d_biases, None
    d_cols = (g @ flat_kernels).reshape(n, n_windows, c_in, width)
    d_input = np.zeros_like(x)
    for j in range(width):
        # tap j of window w touches input position w + j
        d_input[:, j:j + n_windows, :] += d_cols[:, :, :, j]
    return d_kernels, d_biases, d_input


def maxpool1d_forward(
    x: np.ndarray, pool: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """x: (N, L, C) -> (N, floor(L/pool), C), plus argmax cache.

    pool = 1 is the identity and returns x itself with no cache. A
    trailing remainder shorter than the pool window is dropped.
    """
    x = np.asarray(x, dtype=np.float64)
    if pool < 1:
        raise ValueError("pool size must be >= 1")
    if pool == 1:
        return x, None
    n, length, channels = x.shape
    n_windows = length // pool
    trimmed = x[:, : n_windows * pool, :].reshape(n, n_windows, pool, channels)
    # np.argmax picks the first index on ties
    argmax = trimmed.argmax(axis=2)
    out = trimmed.max(axis=2)
    return out, argmax


def maxpool1d_backward(
    x_shape: tuple[int, ...], pool: int, argmax: np.ndarray | None, grad_out: np.ndarray
) -> np.ndarray:
    """Route grad_out back to the argmax positions of each window."""
    n, length, channels = x_shape
    n_windows = length // pool
    if grad_out.shape != (n, n_windows, channels):
        raise ShapeMismatch("maxpool1d upstream gradient shape mismatch")
    if pool == 1:
        return grad_out
    d_input = np.zeros((n, length, channels), dtype=np.float64)
    n_idx, w_idx, c_idx = np.meshgrid(
        np.arange(n), np.arange(n_windows), np.arange(channels), indexing="ij"
    )
    positions = w_idx * pool + argmax
    d_input[n_idx, positions, c_idx] += grad_out
    return d_input
