"""Independent oracles the tests check the library against.

Each oracle is written straight from the defining formula, without
using the library's tensor paths: scalar Python loops, explicit
enumeration, central finite differences, pair counting. Keeping these
separate from the implementation is the whole point; resist the urge
to "simplify" them by calling library code.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone

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


def _copying_sigmoid_inplace(x):
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5


def _copying_cell(a, c_prev, c, tanh_c, h):
    hidden = c.shape[0]
    _copying_sigmoid_inplace(a[:-hidden])
    np.tanh(a[-hidden:], out=a[-hidden:])
    gates = [a[k * hidden:(k + 1) * hidden] for k in range(a.shape[0] // hidden)]
    i, o, g = gates[0], gates[-2], gates[-1]
    np.multiply(i, g, out=c)
    if c_prev is not None:
        c += gates[1] * c_prev
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def copying_lstm_sequence(seq, params, return_sequences=False):
    """The LSTM forward as it was before the batch-last handoff: the same
    float32 arithmetic, with every output copied back to batch-first.

    Returns the output and a cache for copying_lstm_backward. Uses only
    the parameter layout helpers LstmParams.stacked and read_entries
    from the library.
    """
    seq = np.asarray(seq, dtype=params.w_i.dtype)
    n, t_len, n_in = seq.shape
    hidden = params.hidden_size
    w, b = params.stacked(t_len)
    w_h = w[:, n_in:]
    xs = np.ascontiguousarray(seq.transpose(1, 2, 0))
    if t_len == 1:
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
        _copying_cell(gates[t], c_all[t - 1] if t > 0 else None,
                      c_all[t], tanh_all[t], h_all[t])
    cache = {"x": xs, "gates": gates, "c": c_all, "tanh_c": tanh_all, "h": h_all,
             "input_shape": seq.shape, "return_sequences": return_sequences}
    if return_sequences:
        return np.ascontiguousarray(h_all.transpose(2, 0, 1)), cache
    return np.ascontiguousarray(h_all[-1].T), cache


def copying_lstm_backward(cache, params, grad_out, input_grad=True):
    """BPTT through copying_lstm_sequence as it was before the batch-last
    handoff: a new array for each elementwise product, tensordot for
    every weight gradient, and the input gradient always formed (and
    returned only when input_grad is set).
    """
    n, t_len, n_in = cache["input_shape"]
    h = params.hidden_size
    grad_out = np.asarray(grad_out, dtype=params.w_i.dtype)
    if cache["return_sequences"]:
        grad_h = np.ascontiguousarray(grad_out.transpose(1, 2, 0))
    else:
        grad_last = np.ascontiguousarray(grad_out.T)

    w, _ = params.stacked(t_len)
    w_h_t = w[:, n_in:].T
    d_gates = np.empty_like(cache["gates"])
    dh_next = dc_next = None
    for t in range(t_len - 1, -1, -1):
        if cache["return_sequences"]:
            dh = grad_h[t]
        else:
            dh = grad_last if t == t_len - 1 else None
        if dh_next is not None:
            dh = dh_next if dh is None else dh + dh_next
        blocks = [slice(k * h, (k + 1) * h) for k in range(d_gates.shape[1] // h)]
        gates = [cache["gates"][t][rows] for rows in blocks]
        d_gates_t = [d_gates[t][rows] for rows in blocks]
        i, o, g = gates[0], gates[-2], gates[-1]
        tanh_c = cache["tanh_c"][t]
        dc = dh * o * (1.0 - tanh_c * tanh_c)
        if dc_next is not None:
            dc += dc_next
        np.multiply(dc * g, i * (1.0 - i), out=d_gates_t[0])
        if t > 0:
            f = gates[1]
            np.multiply(dc * cache["c"][t - 1], f * (1.0 - f), out=d_gates_t[1])
        elif t_len > 1:
            d_gates_t[1].fill(0.0)
        np.multiply(dh * tanh_c, o * (1.0 - o), out=d_gates_t[-2])
        np.multiply(dc * i, 1.0 - g * g, out=d_gates_t[-1])
        if t > 0:
            dh_next = w_h_t @ d_gates[t]
            dc_next = dc * f

    d_wx = np.tensordot(d_gates, cache["x"], axes=([0, 2], [0, 2]))
    d_b = d_gates.sum(axis=(0, 2))
    dx = np.matmul(w[:, :n_in].T, d_gates)
    if t_len == 1:
        d_w = np.zeros((4 * h, n_in + h), dtype=d_wx.dtype)
        d_b_read, d_b = d_b, np.zeros(4 * h, dtype=d_b.dtype)
    else:
        d_w = np.empty_like(w)
        d_w[:, :n_in] = d_wx
        d_w[:, n_in:] = np.tensordot(d_gates[1:], cache["h"][:-1], axes=([0, 2], [0, 2]))

    grads = {}
    for k, gate in enumerate("ifog"):
        grads[f"w_{gate}"] = d_w[k * h:(k + 1) * h]
        grads[f"b_{gate}"] = d_b[k * h:(k + 1) * h]
    if t_len == 1:
        read = params.read_entries(t_len, n_in)
        for k, gate in enumerate(gate for gate in "ifog" if f"b_{gate}" in read):
            rows = slice(k * h, (k + 1) * h)
            grads[f"w_{gate}"][read[f"w_{gate}"]] = d_wx[rows]
            grads[f"b_{gate}"][read[f"b_{gate}"]] = d_b_read[rows]
    return grads, (np.ascontiguousarray(dx.transpose(2, 0, 1)) if input_grad else None)


def reduce_max_softmax(logits):
    """Softmax over the last axis, shifted by the max reduction."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def onehot_cross_entropy(probs, targets):
    """neuralnet.cross_entropy as it was, for (N, C) one-hot targets."""
    from veclstm.errors import NonFiniteError

    logp = np.log(np.maximum(probs, 1e-300))
    loss = float(-(targets * logp).sum(axis=-1).mean())
    if not np.isfinite(loss):
        raise NonFiniteError("cross-entropy loss is non-finite")
    return loss


def per_row_model_gradients(forward, backward, spec, params, batch, grad_logits):
    """Logits and parameter gradients of a batch, one row at a time.

    forward / backward are model_forward / model_backward; the logits
    are the training forward's first return. Each row runs as its own
    single-row batch, which has no repeated row to merge, and the
    gradients are summed over the rows.
    """
    parts = batch if isinstance(batch, tuple) else (batch,)
    logits, totals = [], {}
    for i in range(len(parts[0])):
        rows = tuple(part[i:i + 1] for part in parts)
        row_logits, cache = forward(spec, params, rows if len(rows) > 1 else rows[0],
                                    with_cache=True)
        logits.append(row_logits[0])
        for key, grad in backward(spec, params, cache, grad_logits[i:i + 1]).items():
            totals[key] = totals.get(key, 0.0) + grad
    return np.array(logits), totals


def brute_force_histogram(norm_lat, norm_lon, grid_size):
    """Per-point binning with explicit floor and clamp."""
    grid = [[0 for _ in range(grid_size)] for _ in range(grid_size)]
    for la, lo in zip(norm_lat, norm_lon):
        row = min(int(math.floor(la * grid_size)), grid_size - 1)
        col = min(int(math.floor(lo * grid_size)), grid_size - 1)
        grid[row][col] += 1
    return np.array(grid, dtype=np.float64)


def self_fitting_vectorize_metadata(lat, lon, alt, config=None):
    """The density feature as it was computed before the caller passed in
    the cells: fit the stats, normalize and index the cells itself."""
    from veclstm.errors import EmptyInput
    from veclstm.vectorizer import VectorizationConfig, cell_indices, fit_stats

    config = VectorizationConfig() if config is None else config
    if len(lat) == 0:
        raise EmptyInput("cannot vectorize metadata of an empty dataset")
    stats = fit_stats(lat, lon, alt)
    norm = []
    for values, dim in ((lat, "lat"), (lon, "lon")):
        lo, hi = stats.bounds(dim)
        values = np.asarray(values, dtype=np.float64)
        if hi == lo:
            col = np.zeros_like(values)
        else:
            col = np.clip((values - lo) / (hi - lo), 0.0, 1.0)
        norm.append(np.where(np.isnan(values), config.missing_default, col))
    cells = cell_indices(norm[0], norm[1], config.grid_size)
    counts = np.bincount(cells)
    return counts[cells] / counts.max()


def add_at_histogram(norm_lat, norm_lon, grid_size, value_mode):
    """The (G, G) heatmap as np.add.at scatters (row, column) pairs,
    divided by the point count in density mode."""
    norm_lat = np.asarray(norm_lat, dtype=np.float64)
    norm_lon = np.asarray(norm_lon, dtype=np.float64)
    top = grid_size - 1
    rows = np.minimum((norm_lat * grid_size).astype(np.int64), top)
    cols = np.minimum((norm_lon * grid_size).astype(np.int64), top)
    grid = np.zeros((grid_size, grid_size), dtype=np.float64)
    np.add.at(grid, (rows, cols), 1.0)
    if value_mode == "density" and norm_lat.size > 0:
        grid /= norm_lat.size
    return grid


def add_at_logit_sum(inverse, grad_logits, n_distinct):
    """Row k of grad_logits summed onto row inverse[k] by np.add.at."""
    summed = np.zeros((n_distinct, grad_logits.shape[1]))
    np.add.at(summed, inverse, np.asarray(grad_logits, dtype=np.float64))
    return summed


def argsort_binary_roc(scores: np.ndarray, positive: np.ndarray):
    """ROC by sweeping thresholds over the distinct scores, descending.

    Tied scores advance TP and FP together, producing the diagonal
    segment whose trapezoidal area gives ties half credit.
    """
    from veclstm.errors import DegenerateClass
    from veclstm.metrics import RocCurve

    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClass(f"{n_pos} positives, {n_neg} negatives")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = positive[order].astype(np.float64)

    tp_cum = np.cumsum(sorted_pos)
    fp_cum = np.cumsum(1.0 - sorted_pos)
    # Keep only the last index of each tied-score group.
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    boundaries = np.concatenate([distinct, [scores.size - 1]])

    tpr = np.concatenate([[0.0], tp_cum[boundaries] / n_pos])
    fpr = np.concatenate([[0.0], fp_cum[boundaries] / n_neg])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(fpr=fpr, tpr=tpr, auc=auc)


def sliding_window_columns(x, width):
    """im2col: (N, L, C_in) -> (N*W, C_in*k) by reshaping a
    sliding_window_view, one row per window."""
    from numpy.lib.stride_tricks import sliding_window_view

    n, length, c_in = x.shape
    windows = sliding_window_view(x, width, axis=1)  # (N, W, C_in, k)
    return windows.reshape(n * (length - width + 1), c_in * width)


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


def per_block_adam_step(params, grads, m, v, t, alpha, beta1, beta2, eps):
    """One Adam update of every block at step t, each result a new array.

    The update equations written block by block in numpy, whose dtype
    rules decide the precision: with float32 gradients the two
    (1 - beta) products round in float32 and the rest runs in float64.
    m and v are dicts of moments, replaced block by block; returns the
    new parameter dict.
    """
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    new = {}
    for key, p in params.items():
        g = grads[key]
        m[key] = beta1 * m[key] + (1.0 - beta1) * g
        v[key] = beta2 * v[key] + (1.0 - beta2) * (g * g)
        m_hat = m[key] / bc1
        v_hat = v[key] / bc2
        new[key] = p - alpha * m_hat / (np.sqrt(v_hat) + eps)
    return new


# --- init by per-layer initializers ----------------------------------------
# models.init_model_params as it was before one table of parameter
# blocks stated every shape: three per-layer initializers, each drawing
# its weights Glorot-uniform in turn and zeroing its biases, merged into
# the dict block by block. init_model_params must return the same
# arrays, in the same dtype and key order.

def _glorot_uniform(rng, shape, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float64)


def _init_lstm(rng, input_size, hidden):
    """Gate matrices (H, F+H) Glorot-initialized, biases zero."""
    from veclstm.neuralnet import LstmParams

    fan_in = input_size + hidden
    shape = (hidden, fan_in)
    return LstmParams(
        w_i=_glorot_uniform(rng, shape, fan_in, hidden),
        w_f=_glorot_uniform(rng, shape, fan_in, hidden),
        w_o=_glorot_uniform(rng, shape, fan_in, hidden),
        w_g=_glorot_uniform(rng, shape, fan_in, hidden),
        b_i=np.zeros(hidden, dtype=np.float64),
        b_f=np.zeros(hidden, dtype=np.float64),
        b_o=np.zeros(hidden, dtype=np.float64),
        b_g=np.zeros(hidden, dtype=np.float64),
    )


def _init_dense(rng, in_size, out_size):
    from veclstm.neuralnet import DenseParams

    return DenseParams(
        w=_glorot_uniform(rng, (out_size, in_size), in_size, out_size),
        b=np.zeros(out_size, dtype=np.float64),
    )


def _init_conv1d(rng, in_channels, n_filters, width):
    from veclstm.neuralnet import Conv1dParams

    # Receptive-field fans, as is conventional for convolutions.
    fan_in = in_channels * width
    fan_out = n_filters * width
    return Conv1dParams(
        kernels=_glorot_uniform(rng, (n_filters, in_channels, width), fan_in, fan_out),
        biases=np.zeros(n_filters, dtype=np.float64),
    )


def _merge(params, prefix, block):
    for name in ("w_i", "w_f", "w_o", "w_g", "b_i", "b_f", "b_o", "b_g"):
        params[f"{prefix}.{name}"] = getattr(block, name)


def per_layer_init_model_params(spec, seed):
    """Seeded Glorot init; same seed always yields identical arrays."""
    rng = np.random.default_rng(seed)
    h1, h2 = spec.lstm_units
    params = {}
    _merge(params, "lstm1", _init_lstm(rng, spec.n_features, h1))
    _merge(params, "lstm2", _init_lstm(rng, h1, h2))
    if spec.has_grid_branch:
        conv = _init_conv1d(rng, spec.grid_size, spec.conv_filters, spec.conv_kernel)
        params["conv.kernels"] = conv.kernels
        params["conv.biases"] = conv.biases
        fusion = _init_dense(rng, h2 + spec.grid_features, spec.fusion_units)
        params["fusion.w"] = fusion.w
        params["fusion.b"] = fusion.b
        head = _init_dense(rng, spec.fusion_units, spec.n_classes)
    else:
        head = _init_dense(rng, h2, spec.n_classes)
    params["head.w"] = head.w
    params["head.b"] = head.b
    return params


def as_sorted_multiset(rows) -> list:
    """Canonical form for multiset equality of sample rows."""
    return sorted(tuple(np.asarray(r).reshape(-1).tolist()) for r in rows)


def first_occurrence_rows(*parts):
    """(first, inverse) over the distinct rows of the aligned arrays in
    parts, a row being all of its bytes: a dict from each row's bytes to
    the index where it first occurs, in the order rows first occur."""
    keys = [b"".join(np.ascontiguousarray(p[i]).tobytes() for p in parts)
            for i in range(len(parts[0]))]
    first: dict[bytes, int] = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    rank = {key: r for r, key in enumerate(first)}
    return np.array(list(first.values())), np.array([rank[key] for key in keys])


# --- predict that slices the split itself --------------------------------
# predict as it was before model_forward took over the slicing: it
# grouped the whole split's rows, then ran the distinct rows 512 at a
# time through model_forward without grouping them again, which is the
# layers and then one softmax per slice. predict must return the same
# bits.

def sliced_predict(spec, params, x, batch_size=512):
    from veclstm.models import _forward_rows, distinct_rows, normalize_batch
    from veclstm.neuralnet import softmax
    from veclstm.trainer import compute_params

    meta, grid = normalize_batch(spec, x)
    if meta.shape[0] == 0:
        return np.zeros((0, spec.n_classes))
    params = compute_params(params)
    distinct = distinct_rows(meta, grid)
    if distinct is not None:
        meta = meta[distinct[0]]
        grid = None if grid is None else grid[distinct[0]]
    parts = []
    for lo in range(0, meta.shape[0], batch_size):
        rows = slice(lo, lo + batch_size)
        logits, _ = _forward_rows(spec, params, meta[rows],
                                  None if grid is None else grid[rows])
        parts.append(softmax(logits))
    probs = np.concatenate(parts, axis=0)
    return probs if distinct is None else probs[distinct[1]]


# --- row-by-row readers and writer --------------------------------------
# The ingest readers as they were before the dataset became columnar:
# one row at a time, raising at the first bad row. The columnar readers
# must return the same columns or raise at the same line. The dataset
# CSV writer as it was before it formatted columns: the columnar writer
# must write the same bytes.

def _utc(text: str, fmt: str) -> int:
    return int(datetime.strptime(text, fmt).replace(tzinfo=timezone.utc).timestamp())


def row_parse_plt(data):
    """(time, lat, lon, alt) columns of a PLT file, parsed line by line."""
    from veclstm.errors import MalformedLine, TruncatedHeader

    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    lines = data.splitlines()
    if len(lines) < 6:
        raise TruncatedHeader(f"PLT file has {len(lines)} lines, expected at least 6")
    points = []
    prev_ts = None
    for line_no, line in enumerate(lines[6:], 7):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 7:
            raise MalformedLine(line_no, f"expected 7 fields, got {len(fields)}")
        try:
            lat = float(fields[0])
            lon = float(fields[1])
            alt_feet = float(fields[3])
            float(fields[4])
        except ValueError as exc:
            raise MalformedLine(line_no, f"non-numeric field: {exc}") from None
        try:
            ts = _utc(f"{fields[5]} {fields[6]}", "%Y-%m-%d %H:%M:%S")
        except ValueError:
            raise MalformedLine(line_no, f"bad date/time {fields[5]},{fields[6]}") from None
        if not (-90.0 <= lat <= 90.0):
            raise MalformedLine(line_no, f"latitude {lat} out of range")
        if not (-180.0 <= lon <= 180.0):
            raise MalformedLine(line_no, f"longitude {lon} out of range")
        if math.isinf(alt_feet):
            raise MalformedLine(line_no, f"altitude {alt_feet} out of range")
        if prev_ts is not None and ts < prev_ts:
            raise MalformedLine(line_no, "timestamp decreases within file")
        prev_ts = ts
        alt = math.nan if alt_feet == -777.0 else alt_feet * 0.3048
        points.append((ts, lat, lon, alt))
    return (np.array([p[0] for p in points], dtype=np.int64),
            *(np.array([p[k] for p in points], dtype=np.float64) for k in (1, 2, 3)))


def row_parse_labels(data):
    """LabelSpans of a labels.txt file, parsed line by line."""
    from veclstm.errors import InvertedSpan, MalformedLine, TruncatedHeader
    from veclstm.ingest import LabelSpan

    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    lines = data.splitlines()
    if not lines:
        raise TruncatedHeader("labels file is empty")
    spans = []
    for line_no, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLine(line_no, f"expected 3 tab-separated fields, got {len(fields)}")
        try:
            start = _utc(fields[0].strip(), "%Y/%m/%d %H:%M:%S")
            end = _utc(fields[1].strip(), "%Y/%m/%d %H:%M:%S")
        except ValueError:
            raise MalformedLine(line_no, "bad timestamp") from None
        if start > end:
            raise InvertedSpan(f"line {line_no}: span ends before it starts")
        spans.append(LabelSpan(start=start, end=end, mode=fields[2].strip()))
    return spans


def row_read_dataset_csv(path):
    """The seven columns of a dataset CSV, read record by record.

    As the row-by-row reader always did, except that an integer outside
    int64, a latitude outside [-90, 90] or longitude outside [-180, 180],
    a label outside [0, 7) and a metadata value outside [0, 1], which
    that reader passed on to crash a later stage, raise MalformedLine
    here as in the columnar reader.
    """
    import csv

    from veclstm.errors import EmptyDataset, MalformedLine

    columns = ("time", "lat", "lon", "alt", "label", "user", "metadata")

    def int64(text):
        value = int(text)
        if not -2**63 <= value < 2**63:
            raise ValueError(f"{value} outside int64")
        return value

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != columns:
            raise MalformedLine(1, f"expected header {','.join(columns)}")
        rows = []
        for line_no, row in enumerate(reader, 2):
            if len(row) != 7:
                raise MalformedLine(line_no, f"expected 7 columns, got {len(row)}")
            try:
                rows.append((int64(row[0]), float(row[1]), float(row[2]),
                             math.nan if row[3] == "" else float(row[3]),
                             int64(row[4]), row[5], float(row[6])))
            except ValueError as exc:
                raise MalformedLine(line_no, str(exc)) from None
            lat, lon = rows[-1][1:3]
            if not -90.0 <= lat <= 90.0:
                raise MalformedLine(line_no, f"latitude {lat} out of range")
            if not -180.0 <= lon <= 180.0:
                raise MalformedLine(line_no, f"longitude {lon} out of range")
            if not 0 <= rows[-1][4] < 7:
                raise MalformedLine(line_no, f"label {rows[-1][4]} outside [0, 7)")
            if not 0.0 <= rows[-1][6] <= 1.0:
                raise MalformedLine(line_no, f"metadata {rows[-1][6]} outside [0, 1]")
    if not rows:
        raise EmptyDataset(f"{path} contains a header but no rows")
    dtypes = (np.int64, np.float64, np.float64, np.float64, np.int64, object, np.float64)
    return {name: np.array([r[k] for r in rows], dtype=dtype)
            for k, (name, dtype) in enumerate(zip(columns, dtypes))}


def row_write_dataset_csv(dataset, path) -> None:
    """A dataset CSV written row by row through csv.writer, as the writer
    was before it formatted columns: floats as repr, missing alt empty."""
    import csv

    alt = ["" if math.isnan(a) else repr(a) for a in dataset.alt.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("time", "lat", "lon", "alt", "label", "user", "metadata"))
        writer.writerows(zip(
            dataset.time.tolist(),
            map(repr, dataset.lat.tolist()),
            map(repr, dataset.lon.tolist()),
            alt,
            dataset.label.tolist(),
            dataset.user.tolist(),
            map(repr, dataset.metadata.tolist()),
        ))


def bisect_assign_labels(times, spans) -> list[int]:
    """Span index per timestamp (-1 when uncovered), by a bisect walk.

    Among the spans containing a timestamp, the one with the latest
    start wins, and on equal starts the one later in the list.
    """
    import bisect

    order = sorted(range(len(spans)), key=lambda idx: (spans[idx].start, idx))
    starts = [spans[idx].start for idx in order]
    out = []
    for t in times:
        pos = bisect.bisect_right(starts, t) - 1
        while pos >= 0 and spans[order[pos]].end < t:
            pos -= 1
        out.append(order[pos] if pos >= 0 else -1)
    return out


# --- tuple-based split --------------------------------------------------
# The train command's set-up as it was before it split row indices: the
# feature arrays themselves, or the hybrid's (features, grids) tuple,
# are split, oversampled and scaled stage by stage. prepare_splits must
# return the same arrays.

def _take(x, idx):
    if isinstance(x, tuple):
        return tuple(part[idx] for part in x)
    return x[idx]


def _tuple_train_test_split(x, y, test_fraction, seed):
    """trainer.train_test_split as it was, taking an array or a tuple."""
    perm = np.random.default_rng(seed).permutation(len(y))
    n_test = int(round(len(y) * test_fraction))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return (_take(x, train_idx), y[train_idx]), (_take(x, test_idx), y[test_idx])


def _tuple_random_oversample(x, y, seed):
    """trainer.random_oversample as it was, taking an array or a tuple."""
    rng = np.random.default_rng(seed)
    classes, counts = np.unique(y, return_counts=True)
    extra = [rng.choice(np.nonzero(y == cls)[0], size=int(counts.max() - count),
                        replace=True)
             for cls, count in zip(classes, counts) if count < counts.max()]
    if not extra:
        return x, y
    idx = np.concatenate([np.arange(y.size)] + extra)
    return _take(x, idx), y[idx]


def tuple_prepare_splits(dataset, spec, config):
    """PreparedData for dataset, splitting the feature arrays themselves."""
    from veclstm.cli import PreparedData
    from veclstm.models import HYBRID
    from veclstm.trainer import StandardScaler, TrainData, encode_labels
    from veclstm.vectorizer import sample_cell_grids

    meta = dataset.metadata.reshape(-1, 1)
    labels = dataset.label
    seed = config.train.seed

    if spec.architecture == HYBRID:
        grids = sample_cell_grids(dataset.lat, dataset.lon, dataset.stats, config.vectorizer)
        features = (meta, grids)
    else:
        features = meta

    (x_rest, y_rest), (x_test, y_test) = _tuple_train_test_split(
        features, labels, config.train.test_fraction, seed)
    (x_train, y_train), (x_val, y_val) = _tuple_train_test_split(
        x_rest, y_rest, config.train.validation_fraction, seed + 1)
    x_train, y_train = _tuple_random_oversample(x_train, y_train, seed + 2)

    def split_meta(x):
        return x[0] if isinstance(x, tuple) else x

    scaler = StandardScaler.fit(split_meta(x_train))

    def assemble(x):
        scaled = scaler.transform(split_meta(x))
        scaled = scaled.reshape(scaled.shape[0], 1, scaled.shape[1])
        return (scaled, x[1]) if isinstance(x, tuple) else scaled

    data = TrainData(
        x_train=assemble(x_train),
        y_train=encode_labels(y_train, spec.n_classes),
        x_val=assemble(x_val) if len(y_val) else None,
        y_val=encode_labels(y_val, spec.n_classes) if len(y_val) else None,
    )
    return PreparedData(data=data, x_test=assemble(x_test), y_test_codes=y_test)


def record_loop_vlvs_fetch(store, user=None, label=None, id_range=None):
    """FileVectorStore.fetch as one pass over every record of the file.

    The header is read by the store; each record is then parsed with
    struct, filtered with Python compares and built one by one, with the
    structural errors and messages of the scan.
    """
    import struct

    from veclstm.errors import SchemaMismatch
    from veclstm.vecstore import VectorRecord

    data, header = store._read_all()
    path, end, n = store.path, header.end, store.grid_size ** 2
    out, offset = [], header.start
    for _ in range(header.count):
        if offset + 10 > end:
            raise SchemaMismatch(f"{path}: record at byte {offset} is cut short at byte {end}")
        record_id, user_len = struct.unpack_from("<QH", data, offset)
        tail_at = offset + 10 + user_len
        next_at = tail_at + 9 + 4 * n
        if next_at > end:
            raise SchemaMismatch(f"{path}: record at byte {offset} overruns the"
                                 f" committed data ending at byte {end}")
        rec_label, created_at = struct.unpack_from("<Bq", data, tail_at)
        raw_user = data[offset + 10:tail_at]
        if ((user is None or raw_user == user.encode("utf-8"))
                and (label is None or rec_label == label)
                and (id_range is None or id_range[0] <= record_id <= id_range[1])):
            out.append((offset, record_id, raw_user, rec_label,
                        data[tail_at + 9:next_at], created_at))
        offset = next_at
    if offset != end:
        raise SchemaMismatch(f"{path}: header counts {header.count} records, but"
                             f" {end - offset} bytes follow the last one at byte {offset}")
    records = []
    for offset, record_id, raw_user, rec_label, vector, created_at in out:
        try:
            name = raw_user.decode("utf-8")
        except UnicodeDecodeError:
            raise SchemaMismatch(
                f"{path}: user of record at byte {offset} is not UTF-8") from None
        records.append(VectorRecord(record_id, name, rec_label,
                                    np.frombuffer(vector, dtype="<f4").copy(), created_at))
    return sorted(records, key=lambda r: r.record_id)
