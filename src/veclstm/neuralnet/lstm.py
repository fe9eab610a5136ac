"""LSTM sequence with hand-derived backpropagation through time.

Gate layout: the parameters are stored one weight matrix per gate, each
of shape (H, F+H), acting on the concatenation [x_t; h_{t-1}]. Forward
follows the standard sigmoid/tanh cell:

    i, f, o = sigmoid(W [x; h] + b)      g = tanh(W_g [x; h] + b_g)
    c_t = f * c_{t-1} + i * g            h_t = o * tanh(c_t)

The gates are computed together: each call stacks the four matrices
once into one (4H, F+H) matrix in i, f, o, g order, so a step is one
matrix product into a (4H, N) pre-activation buffer, whose gate
activations are applied in place. The batch is the last axis inside the
kernels so that each gate block is one contiguous (H, N) array. A
sequence computes the input projection W_x x_t + b for all T before the
time loop, and its first step, from the zero state, skips W_h h and
sets c = i * g. Backward runs the time loop for the gate gradients only
and forms the weight and input gradients after it, as products over
all T.

Everything operates on batches: a sequence is (N, T, F), and each
step's hidden output is (N, H).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeMismatch, StaleCacheError
from .activations import check_finite, sigmoid_inplace

GATES = ("i", "f", "o", "g")


@dataclass
class LstmParams:
    w_i: np.ndarray  # (H, F+H)
    w_f: np.ndarray
    w_o: np.ndarray
    w_g: np.ndarray
    b_i: np.ndarray  # (H,)
    b_f: np.ndarray
    b_o: np.ndarray
    b_g: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.w_i.shape[0]

    @property
    def input_size(self) -> int:
        return self.w_i.shape[1] - self.w_i.shape[0]

    def validate(self) -> None:
        h = self.hidden_size
        fin = self.w_i.shape[1]
        for name in ("w_i", "w_f", "w_o", "w_g"):
            if getattr(self, name).shape != (h, fin):
                raise ShapeMismatch(f"{name} shape inconsistent")
        for name in ("b_i", "b_f", "b_o", "b_g"):
            if getattr(self, name).shape != (h,):
                raise ShapeMismatch(f"{name} shape inconsistent")

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """The (4H, F+H) gate matrix and (4H,) bias, gates in i, f, o, g order."""
        return (np.concatenate([self.w_i, self.w_f, self.w_o, self.w_g]),
                np.concatenate([self.b_i, self.b_f, self.b_o, self.b_g]))


def _split(a: np.ndarray, hidden: int) -> list[np.ndarray]:
    """The i, f, o, g row blocks of a (4H, ...) array, as views."""
    return [a[k * hidden:(k + 1) * hidden] for k in range(4)]


def _cell(
    a: np.ndarray, c_prev: np.ndarray | None,
    c: np.ndarray, tanh_c: np.ndarray, h: np.ndarray,
) -> None:
    """Apply the gate activations in place on the (4H, N) pre-activations
    a, then write the new cell state, its tanh and the hidden state, each
    (H, N), into c, tanh_c and h. c_prev None is the zero state, where
    c = i * g."""
    hidden = c.shape[0]
    sigmoid_inplace(a[:3 * hidden])
    np.tanh(a[3 * hidden:], out=a[3 * hidden:])
    i, f, o, g = _split(a, hidden)
    np.multiply(i, g, out=c)
    if c_prev is not None:
        c += f * c_prev
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


@dataclass
class LstmSequenceCache:
    # Time- and gate-major, batch last, so each gate block of a step is
    # one contiguous (H, N) array.
    x: np.ndarray       # (T, F, N) inputs
    gates: np.ndarray   # (T, 4H, N) activated i, f, o, g
    c: np.ndarray       # (T, H, N) cell states
    tanh_c: np.ndarray  # (T, H, N)
    h: np.ndarray       # (T, H, N) hidden states
    input_shape: tuple[int, int, int]  # (N, T, F)
    return_sequences: bool
    consumed: bool = field(default=False)


def lstm_sequence(
    seq: np.ndarray, params: LstmParams, return_sequences: bool = False
) -> tuple[np.ndarray, LstmSequenceCache]:
    """Run the cell over seq (N, T, F) from a zero initial state.

    Returns (N, T, H) when return_sequences is set, else (N, H) for the
    final step only.
    """
    params.validate()
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim == 2:  # (T, F) single sample
        seq = seq[np.newaxis]
    if seq.ndim != 3:
        raise ShapeMismatch(f"sequence must be (N, T, F), got {seq.shape}")
    n, t_len, n_in = seq.shape
    if t_len < 1:
        raise ShapeMismatch("sequence length must be >= 1")
    if n_in != params.input_size:
        raise ShapeMismatch(f"input width {n_in} != expected {params.input_size}")

    hidden = params.hidden_size
    w, b = params.stacked()
    w_h = w[:, n_in:]
    xs = np.ascontiguousarray(seq.transpose(1, 2, 0))
    gates = np.matmul(w[:, :n_in], xs)
    gates += b[:, np.newaxis]
    c_all = np.empty((t_len, hidden, n), dtype=np.float64)
    tanh_all = np.empty_like(c_all)
    h_all = np.empty_like(c_all)
    for t in range(t_len):
        if t > 0:
            gates[t] += w_h @ h_all[t - 1]
        _cell(gates[t], c_all[t - 1] if t > 0 else None,
              c_all[t], tanh_all[t], h_all[t])
        check_finite(h_all[t], "lstm hidden state")

    seq_cache = LstmSequenceCache(
        x=xs, gates=gates, c=c_all, tanh_c=tanh_all, h=h_all,
        input_shape=seq.shape, return_sequences=return_sequences,
    )
    if return_sequences:
        return np.ascontiguousarray(h_all.transpose(2, 0, 1)), seq_cache
    return np.ascontiguousarray(h_all[-1].T), seq_cache


def lstm_backward(
    cache: LstmSequenceCache, params: LstmParams, grad_out: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Exact BPTT gradients for a completed lstm_sequence pass.

    grad_out is (N, T, H) when the forward returned sequences, else
    (N, H) against the last hidden state. Returns (param grads keyed
    like LstmParams fields, input grads of shape (N, T, F)).
    """
    if cache.consumed:
        raise StaleCacheError("lstm cache already consumed by a backward pass")
    cache.consumed = True

    n, t_len, n_in = cache.input_shape
    h = params.hidden_size
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if cache.return_sequences:
        if grad_out.shape != (n, t_len, h):
            raise ShapeMismatch("upstream gradient shape mismatch (sequences)")
        grad_h = np.ascontiguousarray(grad_out.transpose(1, 2, 0))  # (T, H, N)
    else:
        if grad_out.shape != (n, h):
            raise ShapeMismatch("upstream gradient shape mismatch (last state)")
        grad_last = np.ascontiguousarray(grad_out.T)

    w, _ = params.stacked()
    w_h_t = w[:, n_in:].T
    d_gates = np.empty_like(cache.gates)
    dh_next = dc_next = None
    for t in range(t_len - 1, -1, -1):
        if cache.return_sequences:
            dh = grad_h[t]
        else:
            dh = grad_last if t == t_len - 1 else None
        if dh_next is not None:
            dh = dh_next if dh is None else dh + dh_next
        i, f, o, g = _split(cache.gates[t], h)
        tanh_c = cache.tanh_c[t]
        dc = dh * o * (1.0 - tanh_c * tanh_c)
        if dc_next is not None:
            dc += dc_next
        da_i, da_f, da_o, da_g = _split(d_gates[t], h)
        np.multiply(dc * g, i * (1.0 - i), out=da_i)
        if t > 0:
            np.multiply(dc * cache.c[t - 1], f * (1.0 - f), out=da_f)
        else:
            da_f.fill(0.0)  # c_{-1} = 0
        np.multiply(dh * tanh_c, o * (1.0 - o), out=da_o)
        np.multiply(dc * i, 1.0 - g * g, out=da_g)
        if t > 0:
            dh_next = w_h_t @ d_gates[t]
            dc_next = dc * f

    # Contract over time and batch at once: one product per weight block.
    d_w = np.empty_like(w)
    d_w[:, :n_in] = np.tensordot(d_gates, cache.x, axes=([0, 2], [0, 2]))
    # h_{-1} = 0: step 0 adds nothing to the recurrent weight gradient
    d_w[:, n_in:] = np.tensordot(d_gates[1:], cache.h[:-1], axes=([0, 2], [0, 2]))
    d_b = d_gates.sum(axis=(0, 2))
    dx = np.matmul(w[:, :n_in].T, d_gates)  # (T, F, N)

    grads = {}
    for k, gate in enumerate(GATES):
        grads[f"w_{gate}"] = d_w[k * h:(k + 1) * h]
        grads[f"b_{gate}"] = d_b[k * h:(k + 1) * h]
    return grads, np.ascontiguousarray(dx.transpose(2, 0, 1))
