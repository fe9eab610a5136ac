"""The three evaluated architectures and whole-model forward/backward.

LSTM_BASELINE and VECLSTM share one structure -- LSTM(100, sequences) ->
LSTM(50) -> Dense(7) -> softmax over a single-timestep feature input;
they differ only in which pipeline feeds them. HYBRID adds a parallel
convolution branch over the 10x10 grid heatmap (rows as the sequence
axis, columns as channels), concatenates both branches, and classifies
through a fusion dense layer.

Parameters live in a flat dict of named float64 arrays so the optimizer
and checkpoint code can stay generic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .errors import ShapeMismatch
from .neuralnet import (
    Conv1dParams,
    DenseParams,
    LstmParams,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    init_conv1d,
    init_dense,
    init_lstm,
    lstm_backward,
    lstm_sequence,
    maxpool1d_backward,
    maxpool1d_forward,
    softmax,
)

LSTM_BASELINE = "LSTM_BASELINE"
VECLSTM = "VECLSTM"
HYBRID = "HYBRID"
ARCHITECTURES = (LSTM_BASELINE, VECLSTM, HYBRID)

N_CLASSES = 7


@dataclass(frozen=True)
class ModelSpec:
    architecture: str
    n_features: int = 1
    timesteps: int = 1
    lstm_units: tuple[int, int] = (100, 50)
    n_classes: int = N_CLASSES
    # Hybrid grid branch; ignored by the two pure-LSTM architectures.
    grid_size: int = 10
    conv_filters: int = 64
    conv_kernel: int = 3
    pool_size: int = 1
    fusion_units: int = 64
    # "tanh" keeps the plain cell output; "relu" rectifies emitted
    # hidden states (the recurrent state itself stays tanh-wired).
    lstm_output_activation: str = "tanh"
    seed: int | None = None

    @property
    def has_grid_branch(self) -> bool:
        return self.architecture == HYBRID

    @property
    def grid_features(self) -> int:
        """Width of the flattened conv branch output that enters fusion."""
        conv_len = self.grid_size - self.conv_kernel + 1
        return (conv_len // self.pool_size) * self.conv_filters

    def layer_summary(self) -> list[dict[str, Any]]:
        """Structural description, comparable across specs."""
        act = self.lstm_output_activation
        layers: list[dict[str, Any]] = [
            {"kind": "lstm", "units": self.lstm_units[0],
             "return_sequences": True, "output_activation": act},
            {"kind": "lstm", "units": self.lstm_units[1],
             "return_sequences": False, "output_activation": act},
        ]
        if self.has_grid_branch:
            layers += [
                {"kind": "conv1d", "filters": self.conv_filters,
                 "kernel": self.conv_kernel, "activation": "relu"},
                {"kind": "maxpool1d", "pool": self.pool_size},
                {"kind": "flatten", "width": self.grid_features},
                {"kind": "concatenate"},
                {"kind": "dense", "units": self.fusion_units, "activation": "relu"},
            ]
        layers.append({"kind": "dense", "units": self.n_classes,
                       "activation": "softmax"})
        return layers

    def to_json(self) -> str:
        doc = {
            "architecture": self.architecture,
            "input": {"timesteps": self.timesteps, "features": self.n_features},
            "layers": self.layer_summary(),
            "seed": self.seed,
        }
        if self.has_grid_branch:
            doc["input"]["grid"] = [self.grid_size, self.grid_size]
        return json.dumps(doc, indent=2, sort_keys=True)


def build_lstm_stack(n_features: int = 1, **overrides) -> ModelSpec:
    """Baseline stack: LSTM(100, sequences) -> LSTM(50) -> Dense(7)."""
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    return ModelSpec(architecture=LSTM_BASELINE, n_features=n_features, **overrides)


def build_veclstm(n_features: int = 1, **overrides) -> ModelSpec:
    """Same stack as the baseline; inputs come from the vectorized pipeline."""
    spec = build_lstm_stack(n_features, **overrides)
    return replace(spec, architecture=VECLSTM)


def build_hybrid(n_features: int = 1, **overrides) -> ModelSpec:
    """Two-branch model: LSTM stack over features + Conv1d over the grid."""
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    return ModelSpec(architecture=HYBRID, n_features=n_features, **overrides)


# --- parameter blocks ---------------------------------------------------

def _block_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    h1, h2 = spec.lstm_units
    shapes: dict[str, tuple[int, ...]] = {}
    for gate in ("i", "f", "o", "g"):
        shapes[f"lstm1.w_{gate}"] = (h1, spec.n_features + h1)
        shapes[f"lstm1.b_{gate}"] = (h1,)
    for gate in ("i", "f", "o", "g"):
        shapes[f"lstm2.w_{gate}"] = (h2, h1 + h2)
        shapes[f"lstm2.b_{gate}"] = (h2,)
    head_in = h2
    if spec.has_grid_branch:
        shapes["conv.kernels"] = (spec.conv_filters, spec.grid_size, spec.conv_kernel)
        shapes["conv.biases"] = (spec.conv_filters,)
        shapes["fusion.w"] = (spec.fusion_units, h2 + spec.grid_features)
        shapes["fusion.b"] = (spec.fusion_units,)
        head_in = spec.fusion_units
    shapes["head.w"] = (spec.n_classes, head_in)
    shapes["head.b"] = (spec.n_classes,)
    return shapes


def param_count(spec: ModelSpec) -> int:
    """Total trainable parameter count (there are no frozen blocks)."""
    return sum(int(np.prod(shape)) for shape in _block_shapes(spec).values())


def init_model_params(spec: ModelSpec, seed: int) -> dict[str, np.ndarray]:
    """Seeded Glorot init; same seed always yields identical arrays."""
    rng = np.random.default_rng(seed)
    h1, h2 = spec.lstm_units
    params: dict[str, np.ndarray] = {}
    _merge(params, "lstm1", init_lstm(rng, spec.n_features, h1))
    _merge(params, "lstm2", init_lstm(rng, h1, h2))
    if spec.has_grid_branch:
        conv = init_conv1d(rng, spec.grid_size, spec.conv_filters, spec.conv_kernel)
        params["conv.kernels"] = conv.kernels
        params["conv.biases"] = conv.biases
        fusion = init_dense(rng, h2 + spec.grid_features, spec.fusion_units)
        params["fusion.w"] = fusion.w
        params["fusion.b"] = fusion.b
        head = init_dense(rng, spec.fusion_units, spec.n_classes)
    else:
        head = init_dense(rng, h2, spec.n_classes)
    params["head.w"] = head.w
    params["head.b"] = head.b

    expected = _block_shapes(spec)
    assert {k: v.shape for k, v in params.items()} == expected
    return params


def _merge(params: dict[str, np.ndarray], prefix: str, block: LstmParams) -> None:
    for name in ("w_i", "w_f", "w_o", "w_g", "b_i", "b_f", "b_o", "b_g"):
        params[f"{prefix}.{name}"] = getattr(block, name)


def _lstm_view(params: dict[str, np.ndarray], prefix: str) -> LstmParams:
    return LstmParams(**{
        name: params[f"{prefix}.{name}"]
        for name in ("w_i", "w_f", "w_o", "w_g", "b_i", "b_f", "b_o", "b_g")
    })


# --- forward / backward -------------------------------------------------

@dataclass
class ForwardCache:
    logits: np.ndarray
    probs: np.ndarray
    internals: dict[str, Any] = field(repr=False, default_factory=dict)


def normalize_batch(spec: ModelSpec, batch) -> tuple[np.ndarray, np.ndarray | None]:
    """(features, grids or None) of a model input as checked float64 arrays."""
    if spec.has_grid_branch:
        if not (isinstance(batch, (tuple, list)) and len(batch) == 2):
            raise ShapeMismatch("hybrid model expects (features, grids) inputs")
        meta, grid = batch
        grid = np.asarray(grid, dtype=np.float64)
        if grid.ndim != 3 or grid.shape[1:] != (spec.grid_size, spec.grid_size):
            raise ShapeMismatch(
                f"grid batch must be (N, {spec.grid_size}, {spec.grid_size})"
            )
    else:
        meta, grid = batch, None
    meta = np.asarray(meta, dtype=np.float64)
    if meta.ndim != 3 or meta.shape[1:] != (spec.timesteps, spec.n_features):
        raise ShapeMismatch(
            f"feature batch must be (N, {spec.timesteps}, {spec.n_features}),"
            f" got {meta.shape}"
        )
    if grid is not None and grid.shape[0] != meta.shape[0]:
        raise ShapeMismatch("feature and grid batches disagree on N")
    return meta, grid


def _emit(spec: ModelSpec, h: np.ndarray) -> np.ndarray:
    if spec.lstm_output_activation == "relu":
        return np.maximum(h, 0.0)
    return h


# A batch is deduplicated only when at least this share of its rows
# repeats. The gathers and the scatter-add cost about 1% of a step, so
# below this share the saving is lost in step-to-step noise, and the
# plain path keeps such batches bit-identical to a model that never
# deduplicates.
MIN_REPEAT_SHARE = 0.05

_MIX = np.uint64(0xBF58476D1CE4E5B9)
_ODD_WEIGHT = np.uint64(0x9E3779B97F4A7C15)
# Rows are hashed and compared this many at a time, so a whole dataset
# passed to predict is never copied at once.
_CHUNK_ROWS = 4096


def _row_keys(words: np.ndarray, first_column: int) -> np.ndarray:
    """A 64-bit hash of each row of a (N, D) uint64 array whose columns
    start at first_column of the whole row.

    Each word is mixed on its own (round floats keep all their bits at
    the top), then the words are summed with odd per-column weights.
    Integer sums wrap exactly in any order, so equal rows get equal
    keys wherever they sit in the batch.
    """
    mixed = words >> np.uint64(32)
    mixed ^= words
    mixed *= _MIX
    mixed ^= mixed >> np.uint64(29)
    start = 2 * first_column + 1
    mixed *= np.arange(start, start + 2 * words.shape[1], 2, dtype=np.uint64) * _ODD_WEIGHT
    return mixed.sum(axis=1)


def distinct_rows(
    meta: np.ndarray, grid: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray] | None:
    """(first, inverse) over the byte-distinct rows of a batch.

    A row is one sample's features together with its grid. ``first``
    indexes one occurrence of each distinct row and ``first[inverse]``
    maps every row to the occurrence it repeats. Returns None when fewer
    than MIN_REPEAT_SHARE of the rows repeat. Rows are keyed by a hash
    of their bytes, checked against the bytes themselves; where two
    different rows share a key, they are keyed by their bytes directly.
    """
    n = meta.shape[0]
    parts = [np.ascontiguousarray(p).reshape(n, -1).view(np.uint64)
             for p in (meta, grid) if p is not None]
    chunks = [slice(lo, lo + _CHUNK_ROWS) for lo in range(0, n, _CHUNK_ROWS)]

    def unique(keys):
        # A plain sort counts the repeats at a tenth of np.unique's cost,
        # so a batch that is not deduplicated pays only for the sort.
        ordered = np.sort(keys)
        repeats = np.count_nonzero(ordered[1:] == ordered[:-1])
        if repeats == 0 or repeats < MIN_REPEAT_SHARE * n:
            return None
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        return first, inverse

    keys = np.zeros(n, dtype=np.uint64)
    column = 0
    for words in parts:
        for rows in chunks:
            keys[rows] += _row_keys(words[rows], column)
        column += words.shape[1]
    found = unique(keys)
    if found is None:
        return None
    copy_of = found[0][found[1]]
    if all(np.array_equal(words[copy_of[rows]], words[rows])
           for words in parts for rows in chunks):
        return found
    rows = np.concatenate(parts, axis=1)
    return unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel())


def model_forward(
    spec: ModelSpec, params: dict[str, np.ndarray], batch,
    with_cache: bool = False,
):
    """Class probabilities for a batch; optionally return the backward cache.

    batch is (N, timesteps, features) for the LSTM architectures and a
    (features, grids) pair for the hybrid, grids being (N, G, G).

    Rows that repeat byte for byte run through the layers once: the
    model starts every row from a zero state, so equal rows give equal
    activations. Logits and probabilities are expanded back to N rows,
    so each sample keeps its own entry.
    """
    meta, grid = normalize_batch(spec, batch)
    distinct = distinct_rows(meta, grid)
    if distinct is not None:
        first, inverse = distinct
        meta = meta[first]
        grid = None if grid is None else grid[first]
    logits, internals = _forward_rows(spec, params, meta, grid)
    probs = softmax(logits)
    if distinct is not None:
        logits, probs = logits[inverse], probs[inverse]
        internals["inverse"] = inverse
    if not with_cache:
        return probs
    return probs, ForwardCache(logits=logits, probs=probs, internals=internals)


def _forward_rows(
    spec: ModelSpec, params: dict[str, np.ndarray], meta: np.ndarray,
    grid: np.ndarray | None,
) -> tuple[np.ndarray, dict[str, Any]]:
    """Logits for every row, and the internals _backward_rows needs."""
    internals: dict[str, Any] = {}

    lstm1 = _lstm_view(params, "lstm1")
    lstm2 = _lstm_view(params, "lstm2")
    h1_seq, cache1 = lstm_sequence(meta, lstm1, return_sequences=True)
    e1_seq = _emit(spec, h1_seq)
    h2, cache2 = lstm_sequence(e1_seq, lstm2, return_sequences=False)
    e2 = _emit(spec, h2)
    internals.update(h1_seq=h1_seq, cache1=cache1, h2=h2, cache2=cache2, e2=e2)

    if spec.has_grid_branch:
        conv = Conv1dParams(params["conv.kernels"], params["conv.biases"])
        pre_conv = conv1d_forward(grid, conv)
        act_conv = np.maximum(pre_conv, 0.0)
        pooled, argmax = maxpool1d_forward(act_conv, spec.pool_size)
        flat = pooled.reshape(pooled.shape[0], -1)
        fused_in = np.concatenate([e2, flat], axis=1)
        fusion = DenseParams(params["fusion.w"], params["fusion.b"])
        pre_fusion = dense_forward(fused_in, fusion)
        act_fusion = np.maximum(pre_fusion, 0.0)
        head_in = act_fusion
        internals.update(
            grid=grid, pre_conv=pre_conv, act_conv=act_conv, pooled_shape=pooled.shape,
            argmax=argmax, fused_in=fused_in, pre_fusion=pre_fusion,
        )
    else:
        head_in = e2
    internals["head_in"] = head_in

    head = DenseParams(params["head.w"], params["head.b"])
    return dense_forward(head_in, head), internals


def model_backward(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    cache: ForwardCache,
    grad_logits: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients for every parameter block given d(loss)/d(logits).

    For a deduplicated batch the N rows of grad_logits are first summed
    onto the distinct row each one repeats.
    """
    iv = cache.internals
    inverse = iv.get("inverse")
    if inverse is not None:
        grad_logits = np.asarray(grad_logits, dtype=np.float64)
        if grad_logits.shape != cache.logits.shape:
            raise ShapeMismatch("logit gradient shape does not match the batch")
        summed = np.zeros((iv["head_in"].shape[0], grad_logits.shape[1]))
        np.add.at(summed, inverse, grad_logits)
        grad_logits = summed
    return _backward_rows(spec, params, iv, grad_logits)


def _backward_rows(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    iv: dict[str, Any],
    grad_logits: np.ndarray,
) -> dict[str, np.ndarray]:
    grads: dict[str, np.ndarray] = {}

    head = DenseParams(params["head.w"], params["head.b"])
    dw, db, d_head_in = dense_backward(iv["head_in"], head, grad_logits)
    grads["head.w"], grads["head.b"] = dw, db

    if spec.has_grid_branch:
        d_pre_fusion = d_head_in * (iv["pre_fusion"] > 0)
        fusion = DenseParams(params["fusion.w"], params["fusion.b"])
        dw, db, d_fused = dense_backward(iv["fused_in"], fusion, d_pre_fusion)
        grads["fusion.w"], grads["fusion.b"] = dw, db
        h2_width = spec.lstm_units[1]
        d_e2 = d_fused[:, :h2_width]
        d_flat = d_fused[:, h2_width:]
        d_pooled = d_flat.reshape(iv["pooled_shape"])
        d_act_conv = maxpool1d_backward(
            iv["act_conv"].shape, spec.pool_size, iv["argmax"], d_pooled
        )
        d_pre_conv = d_act_conv * (iv["pre_conv"] > 0)
        conv = Conv1dParams(params["conv.kernels"], params["conv.biases"])
        dk, dbias, _ = conv1d_backward(iv["grid"], conv, d_pre_conv, input_grad=False)
        grads["conv.kernels"], grads["conv.biases"] = dk, dbias
    else:
        d_e2 = d_head_in

    if spec.lstm_output_activation == "relu":
        d_h2 = d_e2 * (iv["h2"] > 0)
    else:
        d_h2 = d_e2
    lstm2 = _lstm_view(params, "lstm2")
    lstm2_grads, d_e1_seq = lstm_backward(iv["cache2"], lstm2, d_h2)
    for name, grad in lstm2_grads.items():
        grads[f"lstm2.{name}"] = grad

    if spec.lstm_output_activation == "relu":
        d_h1_seq = d_e1_seq * (iv["h1_seq"] > 0)
    else:
        d_h1_seq = d_e1_seq
    lstm1 = _lstm_view(params, "lstm1")
    lstm1_grads, _ = lstm_backward(iv["cache1"], lstm1, d_h1_seq)
    for name, grad in lstm1_grads.items():
        grads[f"lstm1.{name}"] = grad

    return grads
