"""LSTM sequence with hand-derived backpropagation through time.

Gate layout: the parameters are one weight matrix per gate, each of
shape (H, F+H), acting on the concatenation [x_t; h_{t-1}]. Forward
follows the standard sigmoid/tanh cell:

    i, f, o = sigmoid(W [x; h] + b)      g = tanh(W_g [x; h] + b_g)
    c_t = f * c_{t-1} + i * g            h_t = o * tanh(c_t)

The gates are computed together: a step is one matrix product of the
stacked (4H, F+H) gate matrix, in i, f, o, g order, into a (4H, N)
pre-activation buffer, whose gate activations are applied in place.
Parameters made by LstmParams.gate_major (the training arena's) store
each group of gates as one block, biases in its first row and the
weights transposed below it, so stacking them is a view; other
parameters are stacked into new arrays on every call. The batch is the
last axis inside the kernels so that each gate block is one contiguous
(H, N) array. A sequence computes the input projection W_x x_t + b for
all T before the time loop, and its first step, from the zero state,
skips W_h h and sets c = i * g. Backward runs the time loop for the
gate gradients only, writing its elementwise products into a few
scratch arrays, and forms the weight and input gradients after it, as
products over all T. The parameter gradients are written into the
blocks of params.grad, which keeps the scratch arrays from call to
call, or of new gate-major parameters when that is None. A caller that
does not need the input gradient skips it with input_grad=False.

Sequences cross the API batch-first, (N, T, F) in and (N, T, H) out,
but the hidden sequence and the input gradient come back as transposed
views of the kernels' batch-last (T, H, N) and (T, F, N) buffers. A
second LSTM fed such a view, or the input gradient of one fed back to
the LSTM that produced the view, transposes it back to batch-last
without a copy. The last hidden state alone is returned as a
C-contiguous (N, H) array, the layout the dense layers after it
expect.

A one-step sequence (T = 1, every input of this pipeline) never reads
its forget gate or recurrent columns: both multiply the zero state. It
stacks only the input columns of i, o and g into a (3H, F) matrix, its
cache holds those three gates, and its forget-gate and recurrent-column
gradients are zero, so the optimizer never touches them
(LstmParams.read_entries). Gate-major parameters for one-step
sequences group i, o and g apart from f, so the bias row and input rows
of that group, the entries training moves, are one contiguous run.

The kernels compute in the dtype of the parameter arrays, to which
they cast their inputs and upstream gradients. Everything operates on
batches: a sequence is (N, T, F), and each step's hidden output is
(N, H).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import ShapeMismatch, StaleCacheError
from .activations import check_finite, sigmoid_inplace

GATES = ("i", "f", "o", "g")
FIELDS = tuple(f"{kind}_{gate}" for kind in "wb" for gate in GATES)


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
    # Set by gate_major: the blocks the fields are views of, by their gates.
    blocks: dict[tuple[str, ...], np.ndarray] = field(
        default_factory=dict, repr=False, compare=False)
    # Gate-major parameters that lstm_backward writes this layer's
    # gradients into, or None for new ones on every call.
    grad: LstmParams | None = field(default=None, repr=False, compare=False)
    # lstm_backward's scratch arrays, by name, when these are its grad.
    scratch: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def gate_major(cls, blocks: dict[tuple[str, ...], np.ndarray],
                   grad: LstmParams | None = None) -> LstmParams:
        """Parameters whose fields are views of gate-major blocks.

        blocks maps groups of gates, together the four (gate_groups), to
        one (1 + F + H, len(gates) * H) array each: row 0 holds the
        group's biases side by side, and the rows below its weight
        matrices transposed, the F input rows first.
        """
        views = {}
        for gates, block in blocks.items():
            hidden = block.shape[1] // len(gates)
            for k, gate in enumerate(gates):
                cols = slice(k * hidden, (k + 1) * hidden)
                views[f"w_{gate}"], views[f"b_{gate}"] = block[1:, cols].T, block[0, cols]
        return cls(**views, blocks=blocks, grad=grad)

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

    @staticmethod
    def read_entries(t_len: int, input_size: int) -> dict[str, Any]:
        """The entries of each field that a t_len-step sequence reads.

        Maps a field name to a basic index into that field; a field that
        is never read is absent. For t_len = 1 these are the input
        columns of w_i, w_o and w_g and all of b_i, b_o and b_g; a
        longer sequence reads every entry. Only these entries can get a
        nonzero gradient, so they are the ones training updates.
        """
        if t_len == 1:
            cols = np.s_[:, :input_size]
            return {"w_i": cols, "w_o": cols, "w_g": cols,
                    "b_i": np.s_[:], "b_o": np.s_[:], "b_g": np.s_[:]}
        return {name: np.s_[...] for name in FIELDS}

    @staticmethod
    @functools.cache
    def gate_groups(t_len: int) -> tuple[tuple[str, ...], ...]:
        """The groups of gates that gate-major parameters for t_len-step
        sequences store together: the gates such a sequence reads, in
        i, f, o, g order, then the others, if any."""
        read = LstmParams.read_entries(t_len, 0)
        groups = (tuple(gate for gate in GATES if f"b_{gate}" in read),
                  tuple(gate for gate in GATES if f"b_{gate}" not in read))
        return tuple(gates for gates in groups if gates)

    def stacked(self, t_len: int) -> tuple[np.ndarray, np.ndarray]:
        """The gate matrix and bias a t_len-step sequence uses.

        (4H, F+H) and (4H,), gates in i, f, o, g order; for t_len = 1,
        the input columns of i, o and g only: (3H, F) and (3H,). They are
        views of the block of those gates when there is one (gate_major),
        else new arrays.
        """
        read = self.read_entries(t_len, self.input_size)
        gates = self.gate_groups(t_len)[0]
        block = self.blocks.get(gates)
        if block is not None:
            n_cols = self.w_i[read["w_i"]].shape[1]
            return block[1:1 + n_cols].T, block[0]
        w = np.concatenate([getattr(self, f"w_{gate}")[read[f"w_{gate}"]] for gate in gates])
        b = np.concatenate([getattr(self, f"b_{gate}")[read[f"b_{gate}"]] for gate in gates])
        return w, b


def _split(a: np.ndarray, hidden: int) -> list[np.ndarray]:
    """The gate row blocks of a (4H, ...) or (3H, ...) array, as views:
    i, f, o, g or i, o, g."""
    return [a[k * hidden:(k + 1) * hidden] for k in range(a.shape[0] // hidden)]


def _cell(
    a: np.ndarray, c_prev: np.ndarray | None,
    c: np.ndarray, tanh_c: np.ndarray, h: np.ndarray,
) -> None:
    """Apply the gate activations in place on the (4H, N) or, without f,
    (3H, N) pre-activations a, then write the new cell state, its tanh
    and the hidden state, each (H, N), into c, tanh_c and h. c_prev None
    is the zero state, where c = i * g."""
    hidden = c.shape[0]
    sigmoid_inplace(a[:-hidden])
    np.tanh(a[-hidden:], out=a[-hidden:])
    gates = _split(a, hidden)
    i, o, g = gates[0], gates[-2], gates[-1]
    np.multiply(i, g, out=c)
    if c_prev is not None:
        c += gates[1] * c_prev
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def _scratch(kept: dict[str, np.ndarray], name: str, shape: tuple[int, ...],
             dtype: np.dtype) -> np.ndarray:
    """An uninitialized array for a value that dies inside one call: a
    view of the buffer kept under name, grown to the largest call so far."""
    size = math.prod(shape)
    buf = kept.get(name)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = kept[name] = np.empty(size, dtype=dtype)
    return buf[:size].reshape(shape)


def _sigmoid_slope(s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = s * (1 - s), the slope of a sigmoid whose output is s."""
    np.subtract(1.0, s, out=out)
    return np.multiply(s, out, out=out)


def _tanh_slope(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = 1 - t * t, the slope of a tanh whose output is t."""
    np.multiply(t, t, out=out)
    return np.subtract(1.0, out, out=out)


@dataclass
class LstmSequenceCache:
    # Time- and gate-major, batch last, so each gate block of a step is
    # one contiguous (H, N) array.
    x: np.ndarray       # (T, F, N) inputs
    gates: np.ndarray   # (T, 4H, N) activated i, f, o, g; (1, 3H, N) i, o, g
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

    Returns (N, T, H) when return_sequences is set, a transposed view of
    the cache's batch-last hidden states (cache.h), which the backward
    pass reads and the caller must not write to; else a C-contiguous
    (N, H) copy of the final step only.
    """
    params.validate()
    seq = np.asarray(seq, dtype=params.w_i.dtype)
    if seq.ndim != 3:
        raise ShapeMismatch(f"sequence must be (N, T, F), got {seq.shape}")
    n, t_len, n_in = seq.shape
    if t_len < 1:
        raise ShapeMismatch("sequence length must be >= 1")
    if n_in != params.input_size:
        raise ShapeMismatch(f"input width {n_in} != expected {params.input_size}")

    hidden = params.hidden_size
    w, b = params.stacked(t_len)
    w_h = w[:, n_in:]
    xs = np.ascontiguousarray(seq.transpose(1, 2, 0))
    if t_len == 1:
        # np.dot: at F = 1, np.matmul takes several times as long
        gates = np.dot(w, xs[0])[np.newaxis]
    else:
        gates = np.matmul(w[:, :n_in], xs)
    gates += b[:, np.newaxis]
    c_all = np.empty((t_len, hidden, n), dtype=gates.dtype)
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
        return h_all.transpose(2, 0, 1), seq_cache
    return np.ascontiguousarray(h_all[-1].T), seq_cache


def lstm_backward(
    cache: LstmSequenceCache, params: LstmParams, grad_out: np.ndarray,
    input_grad: bool = True,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Exact BPTT gradients for a completed lstm_sequence pass.

    grad_out is (N, T, H) when the forward returned sequences, else
    (N, H) against the last hidden state. Returns (param grads keyed
    like LstmParams fields, input grads of shape (N, T, F)). The param
    grads are the fields of params.grad, or of new zeroed gate-major
    parameters when that is None; only the entries that a t_len-step
    sequence reads are written. The input grads are a transposed view
    of a batch-last (T, F, N) array. With input_grad=False they are not
    formed and are returned as None.
    """
    if cache.consumed:
        raise StaleCacheError("lstm cache already consumed by a backward pass")
    cache.consumed = True

    n, t_len, n_in = cache.input_shape
    h = params.hidden_size
    grad_out = np.asarray(grad_out, dtype=params.w_i.dtype)
    if cache.return_sequences:
        if grad_out.shape != (n, t_len, h):
            raise ShapeMismatch("upstream gradient shape mismatch (sequences)")
        grad_h = np.ascontiguousarray(grad_out.transpose(1, 2, 0))  # (T, H, N)
    else:
        if grad_out.shape != (n, h):
            raise ShapeMismatch("upstream gradient shape mismatch (last state)")
        grad_last = np.ascontiguousarray(grad_out.T)

    grad = params.grad
    if grad is None:
        grad = LstmParams.gate_major({
            gates: np.zeros((1 + n_in + h, len(gates) * h), dtype=params.w_i.dtype)
            for gates in LstmParams.gate_groups(t_len)})
    w, _ = params.stacked(t_len)
    w_h_t = w[:, n_in:].T
    dtype = cache.gates.dtype
    d_gates = _scratch(grad.scratch, "d_gates", cache.gates.shape, dtype)
    # The elementwise products go through out= into dc, tmp, the carried
    # dc_next and the gate gradient blocks, in the order of the plain
    # expressions: dc = dh * o * (1 - tanh_c^2) + dc_next, then
    # d_i = (dc * g) * (i * (1 - i)), d_f = (dc * c_{t-1}) * (f * (1 - f)),
    # d_o = (dh * tanh_c) * (o * (1 - o)) and d_g = (dc * i) * (1 - g^2).
    dc = _scratch(grad.scratch, "dc", (h, n), dtype)
    tmp = _scratch(grad.scratch, "tmp", (h, n), dtype)
    dh_next = dc_next = None
    for t in range(t_len - 1, -1, -1):
        if cache.return_sequences:
            dh = grad_h[t]
        else:
            dh = grad_last if t == t_len - 1 else None
        if dh_next is not None:
            dh = dh_next if dh is None else dh + dh_next
        gates, d_gates_t = _split(cache.gates[t], h), _split(d_gates[t], h)
        i, o, g = gates[0], gates[-2], gates[-1]
        d_i, d_o, d_g = d_gates_t[0], d_gates_t[-2], d_gates_t[-1]
        tanh_c = cache.tanh_c[t]
        np.multiply(dh, o, out=dc)
        dc *= _tanh_slope(tanh_c, tmp)
        if dc_next is not None:
            dc += dc_next
        np.multiply(dc, g, out=d_i)
        d_i *= _sigmoid_slope(i, tmp)
        if t > 0:
            f, d_f = gates[1], d_gates_t[1]
            np.multiply(dc, cache.c[t - 1], out=d_f)
            d_f *= _sigmoid_slope(f, tmp)
        elif t_len > 1:
            d_gates_t[1].fill(0.0)  # c_{-1} = 0
        np.multiply(dh, tanh_c, out=d_o)
        d_o *= _sigmoid_slope(o, tmp)
        np.multiply(dc, i, out=d_g)
        d_g *= _tanh_slope(g, tmp)
        if t > 0:
            dh_next = w_h_t @ d_gates[t]
            if dc_next is None:
                dc_next = np.empty_like(dc)
            np.multiply(dc, f, out=dc_next)

    # The gradient of stacked(t_len), written transposed into the rows
    # of its gate-major block: biases in row 0, then the weight rows.
    # h_{-1} = 0: step 0 adds nothing to the recurrent rows.
    block = grad.blocks[LstmParams.gate_groups(t_len)[0]]
    if t_len == 1:
        np.dot(cache.x[0], d_gates[0].T, out=block[1:1 + n_in])
    else:
        # Contract over time and batch at once: one product per part.
        block[1:1 + n_in] = np.tensordot(d_gates, cache.x, axes=([0, 2], [0, 2])).T
        block[1 + n_in:] = np.tensordot(d_gates[1:], cache.h[:-1], axes=([0, 2], [0, 2])).T
    d_gates.sum(axis=(0, 2), out=block[0])
    grads = {name: getattr(grad, name) for name in FIELDS}
    if not input_grad:
        return grads, None
    dx = np.matmul(w[:, :n_in].T, d_gates)  # (T, F, N)
    return grads, dx.transpose(2, 0, 1)
