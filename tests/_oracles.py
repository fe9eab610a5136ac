"""Independent oracles the tests check the library against.

Each oracle is written straight from the defining formula, without
using the library's tensor paths: scalar Python loops, explicit
enumeration, central finite differences, pair counting. Keeping these
separate from the implementation is the whole point; resist the urge
to "simplify" them by calling library code.
"""

from __future__ import annotations

import math

import numpy as np


def central_difference_grads(loss_fn, arrays: dict, h: float = 1e-5) -> dict:
    """Numerical d(loss)/d(array) for every array, by central differences.

    loss_fn() must read the arrays in place (they are perturbed and
    restored between evaluations).
    """
    grads = {}
    for key, arr in arrays.items():
        flat = arr.reshape(-1)
        out = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = loss_fn()
            flat[i] = orig - h
            minus = loss_fn()
            flat[i] = orig
            out[i] = (plus - minus) / (2.0 * h)
        grads[key] = out.reshape(arr.shape)
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max_i |a-n| / max(1, |a|, |n|), the gradient-check metric."""
    analytic = np.asarray(analytic, dtype=np.float64).reshape(-1)
    numeric = np.asarray(numeric, dtype=np.float64).reshape(-1)
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


def scalar_lstm_cell(x, h_prev, c_prev, w, b):
    """One LSTM step evaluated with plain Python floats.

    x, h_prev, c_prev: lists of floats. w: dict of gate name -> list of
    rows (each a list over [x; h]). b: dict of gate name -> list.
    Returns (h, c) lists.
    """
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = list(x) + list(h_prev)
    hidden = len(h_prev)

    def gate(name, squash):
        out = []
        for row_i in range(hidden):
            acc = b[name][row_i]
            for col_i, zv in enumerate(z):
                acc += w[name][row_i][col_i] * zv
            out.append(squash(acc))
        return out

    i = gate("i", sig)
    f = gate("f", sig)
    o = gate("o", sig)
    g = gate("g", math.tanh)
    c = [f[k] * c_prev[k] + i[k] * g[k] for k in range(hidden)]
    h = [o[k] * math.tanh(c[k]) for k in range(hidden)]
    return h, c


def einsum_conv1d(x, kernels, biases):
    """Valid cross-correlation by einsum over explicit windows.

    x: (N, L, C_in), kernels: (K, C_in, k) -> (N, L-k+1, K).
    """
    width = kernels.shape[2]
    windows = np.lib.stride_tricks.sliding_window_view(x, width, axis=1)
    return np.einsum("nwcj,ocj->nwo", windows, kernels) + biases


def einsum_conv1d_backward(x, kernels, grad_out):
    """(d_kernels, d_biases, d_input) of einsum_conv1d, tap by tap."""
    width = kernels.shape[2]
    n_windows = x.shape[1] - width + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, width, axis=1)
    d_kernels = np.einsum("nwo,nwcj->ocj", grad_out, windows)
    d_biases = grad_out.sum(axis=(0, 1))
    d_input = np.zeros_like(x)
    for j in range(width):
        # grad_out at window w touches input position w + j
        d_input[:, j:j + n_windows, :] += np.einsum(
            "nwo,oc->nwc", grad_out, kernels[:, :, j])
    return d_kernels, d_biases, d_input


def _split_sigmoid(x):
    # Split by sign so exp never overflows.
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def per_gate_lstm(seq, w, b, return_sequences):
    """LSTM over seq (N, T, F) from the zero state, one product per gate
    and step on the concatenation [x_t; h_{t-1}].

    w, b: dicts of gate name -> (H, F+H) matrix / (H,) bias. Returns the
    output ((N, T, H) or (N, H)) and the per-step caches for
    per_gate_lstm_backward.
    """
    n, t_len, _ = seq.shape
    hidden = b["i"].shape[0]
    h = np.zeros((n, hidden))
    c = np.zeros((n, hidden))
    steps, outputs = [], []
    for t in range(t_len):
        z = np.concatenate([seq[:, t, :], h], axis=1)
        i = _split_sigmoid(z @ w["i"].T + b["i"])
        f = _split_sigmoid(z @ w["f"].T + b["f"])
        o = _split_sigmoid(z @ w["o"].T + b["o"])
        g = np.tanh(z @ w["g"].T + b["g"])
        c_prev, c = c, f * c + i * g
        h = o * np.tanh(c)
        steps.append((z, i, f, o, g, c, c_prev))
        outputs.append(h)
    out = np.stack(outputs, axis=1)
    return (out if return_sequences else out[:, -1, :]), steps


def per_gate_lstm_backward(steps, w, grad_out, return_sequences):
    """BPTT through per_gate_lstm, one step and one gate at a time.

    Returns (grads keyed w_i ... b_g, input grads (N, T, F)).
    """
    t_len = len(steps)
    n, hidden = steps[0][1].shape
    n_in = w["i"].shape[1] - hidden
    totals = {f"{kind}_{gate}": 0.0 for kind in "wb" for gate in "ifog"}
    dx_all = np.zeros((n, t_len, n_in))
    dh_next = np.zeros((n, hidden))
    dc_next = np.zeros((n, hidden))
    for t in range(t_len - 1, -1, -1):
        z, i, f, o, g, c, c_prev = steps[t]
        dh = dh_next.copy()
        if return_sequences:
            dh += grad_out[:, t, :]
        elif t == t_len - 1:
            dh += grad_out
        tanh_c = np.tanh(c)
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
        da = {
            "i": dc * g * i * (1.0 - i),
            "f": dc * c_prev * f * (1.0 - f),
            "o": do * o * (1.0 - o),
            "g": dc * i * (1.0 - g * g),
        }
        dz = np.zeros_like(z)
        for gate, d in da.items():
            totals[f"w_{gate}"] = totals[f"w_{gate}"] + d.T @ z
            totals[f"b_{gate}"] = totals[f"b_{gate}"] + d.sum(axis=0)
            dz += d @ w[gate]
        dx_all[:, t, :] = dz[:, :n_in]
        dh_next = dz[:, n_in:]
        dc_next = dc * f
    return totals, dx_all


def brute_force_histogram(norm_lat, norm_lon, grid_size):
    """Per-point binning with explicit floor and clamp."""
    grid = [[0 for _ in range(grid_size)] for _ in range(grid_size)]
    for la, lo in zip(norm_lat, norm_lon):
        row = min(int(math.floor(la * grid_size)), grid_size - 1)
        col = min(int(math.floor(lo * grid_size)), grid_size - 1)
        grid[row][col] += 1
    return np.array(grid, dtype=np.float64)


def pair_counting_auc(scores, positives) -> float:
    """AUC as P(s_pos > s_neg) + 0.5 P(s_pos == s_neg) over all pairs."""
    pos = [s for s, p in zip(scores, positives) if p]
    neg = [s for s, p in zip(scores, positives) if not p]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def tally_confusion(pred, true, n_classes):
    matrix = [[0] * n_classes for _ in range(n_classes)]
    for p, t in zip(pred, true):
        matrix[t][p] += 1
    return np.array(matrix, dtype=np.int64)


def formula_weighted_f1(matrix) -> float:
    """Direct re-evaluation of the weighted-F1 definition."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n_classes = matrix.shape[0]
    total = matrix.sum()
    score = 0.0
    for c in range(n_classes):
        tp = matrix[c][c]
        colsum = sum(matrix[r][c] for r in range(n_classes))
        rowsum = sum(matrix[c])
        precision = tp / colsum if colsum > 0 else 0.0
        recall = tp / rowsum if rowsum > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        score += f1 * (rowsum / total)
    return score


def adam_scalar_recurrence(grads, alpha, beta1, beta2, eps, theta0=0.0):
    """The published update equations run on one scalar parameter."""
    m = v = 0.0
    theta = theta0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - alpha * m_hat / (math.sqrt(v_hat) + eps)
    return theta


def as_sorted_multiset(rows) -> list:
    """Canonical form for multiset equality of sample rows."""
    return sorted(tuple(np.asarray(r).reshape(-1).tolist()) for r in rows)
