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


def per_row_model_gradients(forward, backward, spec, params, batch, grad_logits):
    """Probabilities and parameter gradients of a batch, one row at a time.

    forward / backward are model_forward / model_backward. Each row runs
    as its own single-row batch, which has no repeated row to merge, and
    the gradients are summed over the rows.
    """
    parts = batch if isinstance(batch, tuple) else (batch,)
    probs, totals = [], {}
    for i in range(len(parts[0])):
        rows = tuple(part[i:i + 1] for part in parts)
        row_probs, cache = forward(spec, params, rows if len(rows) > 1 else rows[0],
                                   with_cache=True)
        probs.append(row_probs[0])
        for key, grad in backward(spec, params, cache, grad_logits[i:i + 1]).items():
            totals[key] = totals.get(key, 0.0) + grad
    return np.array(probs), totals


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


# --- row-by-row readers -------------------------------------------------
# The ingest readers as they were before the dataset became columnar:
# one row at a time, raising at the first bad row. The columnar readers
# must return the same columns or raise at the same line.

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
        if prev_ts is not None and ts < prev_ts:
            raise MalformedLine(line_no, "timestamp decreases within file")
        prev_ts = ts
        alt = math.nan if alt_feet == -777.0 else alt_feet * 0.3048
        points.append((ts, lat, lon, alt))
    return (np.array([p[0] for p in points], dtype=np.int64),
            *(np.array([p[k] for p in points], dtype=np.float64) for k in (1, 2, 3)))


def row_read_dataset_csv(path):
    """The seven columns of a dataset CSV, read record by record.

    As the row-by-row reader always did, except that an integer outside
    int64, which that reader passed on to crash a later stage, raises
    MalformedLine here as in the columnar reader.
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
    if not rows:
        raise EmptyDataset(f"{path} contains a header but no rows")
    dtypes = (np.int64, np.float64, np.float64, np.float64, np.int64, object, np.float64)
    return {name: np.array([r[k] for r in rows], dtype=dtype)
            for k, (name, dtype) in enumerate(zip(columns, dtypes))}


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

def tuple_prepare_splits(dataset, spec, config):
    """PreparedData for dataset, splitting the feature arrays themselves."""
    from veclstm.cli import PreparedData
    from veclstm.models import HYBRID
    from veclstm.trainer import (StandardScaler, TrainData, encode_labels,
                                 random_oversample, train_test_split)
    from veclstm.vectorizer import sample_cell_grids

    meta = dataset.metadata.reshape(-1, 1)
    labels = dataset.label
    seed = config.train.seed

    if spec.architecture == HYBRID:
        grids = sample_cell_grids(dataset.lat, dataset.lon, dataset.alt,
                                  dataset.stats, config.vectorizer)
        features = (meta, grids)
    else:
        features = meta

    (x_rest, y_rest), (x_test, y_test) = train_test_split(
        features, labels, config.train.test_fraction, seed)
    (x_train, y_train), (x_val, y_val) = train_test_split(
        x_rest, y_rest, config.train.validation_fraction, seed + 1)
    x_train, y_train = random_oversample(x_train, y_train, seed + 2)

    def split_meta(x):
        return x[0] if isinstance(x, tuple) else x

    scaler = StandardScaler().fit(split_meta(x_train))

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
