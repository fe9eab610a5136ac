"""The three evaluated architectures and whole-model forward/backward.

LSTM_BASELINE and VECLSTM share one structure -- LSTM(100, sequences) ->
LSTM(50) -> Dense(7) -> softmax over a single-timestep feature input;
they differ only in which pipeline feeds them. HYBRID adds a parallel
convolution branch over a 10x10 grid (rows as the sequence axis,
columns as channels), concatenates both branches, and classifies
through a fusion dense layer. Its grid input is either each sample's
cell as one flat index r * G + c, run as that cell's one-hot grid, or
a float (G, G) heatmap per sample.

Parameters live in a flat dict of named arrays so the optimizer and
checkpoint code can stay generic. The forward and backward passes
compute in the dtype of the dict they are given: the trainer keeps
float64 master weights and passes a float32 copy. Features and
heatmaps enter as float64, cell indices as int64, and each layer casts
its input; probabilities come out float64. Row deduplication groups
rows exactly by their bytes, in first-occurrence order.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .errors import NonFiniteError, OutOfRange, ShapeMismatch
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
LSTM_OUTPUT_ACTIVATIONS = ("tanh", "relu")

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


def trained_entries(spec: ModelSpec) -> dict[str, Any]:
    """The entries of each parameter block that training can move.

    Maps a block key to a basic index into the block; a block that is
    absent is never read. The LSTM blocks follow
    LstmParams.read_entries for spec.timesteps; the conv, fusion and
    head blocks are read whole.
    """
    entries = {}
    for prefix, n_in in (("lstm1", spec.n_features), ("lstm2", spec.lstm_units[0])):
        for name, index in LstmParams.read_entries(spec.timesteps, n_in).items():
            entries[f"{prefix}.{name}"] = index
    for key in _block_shapes(spec):
        if not key.startswith("lstm"):
            entries[key] = np.s_[...]
    return entries


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
    """(features, grid input or None) of a model input, checked.

    The features come back as float64. The hybrid's grid input is either
    an (N,) integer array of flat cell indices r * G + c, returned as
    int64, or an (N, G, G) heatmap, returned as float64.
    """
    if spec.has_grid_branch:
        if not (isinstance(batch, (tuple, list)) and len(batch) == 2):
            raise ShapeMismatch("hybrid model expects (features, cells or grids) inputs")
        meta, grid = batch
        grid = _grid_input(np.asarray(grid), spec.grid_size)
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


def _grid_input(grid: np.ndarray, grid_size: int) -> np.ndarray:
    """A checked int64 (N,) cell index or float64 (N, G, G) heatmap."""
    if grid.ndim == 1:
        if not np.issubdtype(grid.dtype, np.integer):
            raise ShapeMismatch(f"cell indices must be integers, got {grid.dtype}")
        n_cells = grid_size * grid_size
        if grid.size and (grid.min() < 0 or grid.max() >= n_cells):
            raise OutOfRange(f"cell index outside [0, {n_cells})")
        return grid.astype(np.int64, copy=False)
    if grid.ndim != 3 or grid.shape[1:] != (grid_size, grid_size):
        raise ShapeMismatch(
            f"grid batch must be (N,) cell indices or (N, {grid_size}, {grid_size})"
            f" heatmaps, got {grid.shape}"
        )
    return grid.astype(np.float64, copy=False)


def _conv_input(grid: np.ndarray, grid_size: int, dtype) -> np.ndarray:
    """The (N, G, G) conv input in dtype: a heatmap cast, or each cell's one-hot grid."""
    if grid.ndim == 3:
        return grid.astype(dtype, copy=False)
    out = np.zeros((grid.size, grid_size * grid_size), dtype=dtype)
    out[np.arange(grid.size), grid] = 1
    return out.reshape(grid.size, grid_size, grid_size)


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


def distinct_rows(
    meta: np.ndarray, grid: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray] | None:
    """(first, inverse) over the byte-distinct rows of a batch.

    A row is one sample's features together with its grid input, as
    normalize_batch returns them. ``first`` indexes the first occurrence
    of each distinct row, in ascending order, and ``first[inverse]``
    maps every row to the occurrence it repeats. Returns None when fewer
    than MIN_REPEAT_SHARE of the rows repeat.

    Rows are grouped exactly, by one sort over their 8-byte words. The
    groups come out in first-occurrence order, so a cell index gives the
    same result as its one-hot grid.
    """
    n = meta.shape[0]
    parts = [np.ascontiguousarray(p).view(np.uint64).reshape(n, math.prod(p.shape[1:]))
             for p in (meta, grid) if p is not None]
    words = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    order = np.argsort(words[:, 0]) if words.shape[1] == 1 else np.lexsort(words.T)
    ordered = words[order]
    new_row = np.ones(n, dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new_row[1:])
    if n - np.count_nonzero(new_row) < max(1, MIN_REPEAT_SHARE * n):
        return None
    starts = np.flatnonzero(new_row)
    first = np.minimum.reduceat(order, starts)
    # Number the groups by where they first occur, not by sort order.
    by_first = np.argsort(first)
    group = np.empty_like(by_first)
    group[by_first] = np.arange(first.size)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.repeat(group, np.diff(starts, append=n))
    return first[by_first], inverse


def model_forward(
    spec: ModelSpec, params: dict[str, np.ndarray], batch,
    with_cache: bool = False, deduplicate: bool = True,
):
    """Class probabilities for a batch; optionally return the backward cache.

    batch is (N, timesteps, features) for the LSTM architectures and a
    (features, grid input) pair for the hybrid, the grid input being
    (N,) integer cell indices r * G + c or (N, G, G) heatmaps. A cell
    index runs as its one-hot grid, built for the distinct rows only.

    Rows that repeat byte for byte run through the layers once, in the
    order they first occur (distinct_rows): the model starts every row
    from a zero state, so equal rows give equal activations. Logits and
    probabilities are expanded back to N rows, so each sample keeps its
    own entry. A caller whose rows are distinct already passes
    deduplicate=False, and every row runs as it is.
    """
    meta, grid = normalize_batch(spec, batch)
    distinct = distinct_rows(meta, grid) if deduplicate else None
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


@contextmanager
def _named_block(name: str):
    """Prefix a NonFiniteError raised inside with its parameter block's name."""
    try:
        yield
    except NonFiniteError as exc:
        exc.args = (f"{name}: {exc}",)
        raise


def _forward_rows(
    spec: ModelSpec, params: dict[str, np.ndarray], meta: np.ndarray,
    grid: np.ndarray | None,
) -> tuple[np.ndarray, dict[str, Any]]:
    """Logits for every row, and the internals _backward_rows needs."""
    internals: dict[str, Any] = {}

    lstm1 = _lstm_view(params, "lstm1")
    lstm2 = _lstm_view(params, "lstm2")
    with _named_block("lstm1"):
        h1_seq, cache1 = lstm_sequence(meta, lstm1, return_sequences=True)
    e1_seq = _emit(spec, h1_seq)
    with _named_block("lstm2"):
        h2, cache2 = lstm_sequence(e1_seq, lstm2, return_sequences=False)
    e2 = _emit(spec, h2)
    internals.update(h1_seq=h1_seq, cache1=cache1, h2=h2, cache2=cache2, e2=e2)

    if spec.has_grid_branch:
        conv = Conv1dParams(params["conv.kernels"], params["conv.biases"])
        # Built once here, so that the backward pass reuses the conv input.
        grid = _conv_input(grid, spec.grid_size, conv.kernels.dtype)
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
