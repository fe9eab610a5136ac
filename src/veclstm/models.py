"""The three evaluated architectures and whole-model forward/backward.

LSTM_BASELINE and VECLSTM share one structure -- LSTM(100, sequences) ->
LSTM(50) -> Dense(7) -> softmax over a single-timestep feature input;
they differ only in which pipeline feeds them. HYBRID adds a parallel
convolution branch over a 10x10 grid (rows as the sequence axis,
columns as channels), concatenates both branches, and classifies
through a fusion dense layer. Its grid input is either each sample's
cell as one flat index r * G + c, run as that cell's one-hot grid, or
a float (G, G) heatmap per sample.

Parameters are a dict of named arrays, one per param_blocks key, so the
checkpoint code can stay generic. Training keeps each of its parameter
sets in a ParamArena: a dict whose blocks are views into one flat
buffer, laid out so that each LSTM's stacked gate matrix is a view and
the entries training moves lie in a few contiguous runs. Any other dict
works too; its LSTM gates are then stacked into new arrays on every
call. The forward and backward passes compute in the dtype of the
dict they are given: the trainer keeps float64 master weights and
passes a float32 copy. model_backward writes the gradients into the
arena the dict names as its grad, or into new arrays. Features and
heatmaps enter as float64, cell indices as int64, and each layer casts
its input; probabilities come out float64. model_forward is the one
place that merges a batch's repeated rows, grouping rows exactly by
their bytes in first-occurrence order, and that slices it: a training
batch runs as one slice and ends at the logits, whose softmax the loss
takes; a whole split given for prediction runs in slices of
FORWARD_SLICE_ROWS and comes back as probabilities.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .errors import ConfigError, NonFiniteError, OutOfRange, ShapeMismatch
from .neuralnet import (
    Conv1dParams,
    DenseParams,
    LstmParams,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    glorot_uniform,
    lstm_backward,
    lstm_sequence,
    maxpool1d_backward,
    maxpool1d_forward,
    softmax,
)
from .neuralnet.lstm import FIELDS as _LSTM_FIELDS

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

    def __post_init__(self):
        for name in ("n_features", "timesteps", "grid_size", "conv_filters",
                     "conv_kernel", "pool_size", "fusion_units"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if len(self.lstm_units) != 2 or min(self.lstm_units) < 1:
            raise ConfigError(f"lstm_units must be two sizes >= 1, got {self.lstm_units}")
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.has_grid_branch and self.grid_features < 1:
            raise ConfigError(f"conv_kernel {self.conv_kernel} and pool_size {self.pool_size}"
                              f" leave no conv output on grid_size {self.grid_size}")
        if self.lstm_output_activation not in LSTM_OUTPUT_ACTIVATIONS:
            raise ConfigError(f"lstm_output_activation must be one of"
                              f" {', '.join(LSTM_OUTPUT_ACTIVATIONS)},"
                              f" got {self.lstm_output_activation!r}")

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
    return ModelSpec(architecture=LSTM_BASELINE, n_features=n_features, **overrides)


def build_veclstm(n_features: int = 1, **overrides) -> ModelSpec:
    """Same stack as the baseline; inputs come from the vectorized pipeline."""
    spec = build_lstm_stack(n_features, **overrides)
    return replace(spec, architecture=VECLSTM)


def build_hybrid(n_features: int = 1, **overrides) -> ModelSpec:
    """Two-branch model: LSTM stack over features + Conv1d over the grid."""
    return ModelSpec(architecture=HYBRID, n_features=n_features, **overrides)


# --- parameter blocks ---------------------------------------------------

def _lstm_layers(spec: ModelSpec) -> tuple[tuple[str, int, int], ...]:
    """(prefix, input size, hidden size) of each LSTM layer, in order."""
    h1, h2 = spec.lstm_units
    return ("lstm1", spec.n_features, h1), ("lstm2", h1, h2)


def param_blocks(spec: ModelSpec) -> dict[str, tuple[tuple[int, ...], Any]]:
    """Every parameter block: key -> (shape, Glorot (fan_in, fan_out)).

    The one statement of the model's parameter blocks. A weight is drawn
    Glorot-uniform from its fans, receptive-field fans for the conv; a
    bias has None and starts at zero. The weights draw in key order, so
    the order fixes what a seed gives. ParamArena lays the blocks out.
    """
    blocks = {}
    for prefix, n_in, hidden in _lstm_layers(spec):
        for name in _LSTM_FIELDS:
            blocks[f"{prefix}.{name}"] = (
                ((hidden, n_in + hidden), (n_in + hidden, hidden))
                if name.startswith("w_") else ((hidden,), None))
    head_in = spec.lstm_units[1]
    if spec.has_grid_branch:
        channels, width, filters = spec.grid_size, spec.conv_kernel, spec.conv_filters
        fusion_in = head_in + spec.grid_features
        blocks["conv.kernels"] = ((filters, channels, width), (channels * width, filters * width))
        blocks["conv.biases"] = ((filters,), None)
        blocks["fusion.w"] = ((spec.fusion_units, fusion_in), (fusion_in, spec.fusion_units))
        blocks["fusion.b"] = ((spec.fusion_units,), None)
        head_in = spec.fusion_units
    blocks["head.w"] = ((spec.n_classes, head_in), (head_in, spec.n_classes))
    blocks["head.b"] = ((spec.n_classes,), None)
    return blocks


def param_count(spec: ModelSpec) -> int:
    """Total trainable parameter count (there are no frozen blocks)."""
    return sum(math.prod(shape) for shape, _ in param_blocks(spec).values())


def trained_entries(spec: ModelSpec) -> dict[str, Any]:
    """The entries of each parameter block that training can move.

    Maps a block key to a basic index into the block, in param_blocks
    order; a block that is absent is never read. The LSTM blocks follow
    LstmParams.read_entries for spec.timesteps; the conv, fusion and
    head blocks are read whole.
    """
    reads = {prefix: LstmParams.read_entries(spec.timesteps, n_in)
             for prefix, n_in, _ in _lstm_layers(spec)}
    entries = {}
    for key in param_blocks(spec):
        prefix, name = key.split(".")
        read = reads.get(prefix, {name: np.s_[...]})
        if name in read:
            entries[key] = read[name]
    return entries


def init_model_params(spec: ModelSpec, seed: int) -> dict[str, np.ndarray]:
    """Seeded init of param_blocks; same seed always yields identical arrays."""
    rng = np.random.default_rng(seed)
    return {key: np.zeros(shape) if fans is None else glorot_uniform(rng, shape, *fans)
            for key, (shape, fans) in param_blocks(spec).items()}


class ParamArena(dict):
    """A parameter dict of a spec whose blocks are views into one flat
    buffer, flat, zeroed or holding a copy of values.

    The buffer holds first the blocks of the layers that are not LSTMs,
    each whole and in key order, then each LSTM layer as the blocks of
    LstmParams.gate_major, grouped by LstmParams.gate_groups for
    spec.timesteps. lstm maps each LSTM prefix to the LstmParams whose
    fields are this dict's own arrays and whose stacked() are views. So
    the entries training moves lie in one contiguous run per LSTM layer,
    the first one led by the other layers' blocks (trained_runs), at the
    same offsets in every arena of the spec. The keys keep param_blocks
    order. Write into the blocks: a key rebound to another array would
    leave the buffer.

    grad is the arena of the spec that model_backward writes this one's
    gradients into, or None for new arrays on every call; each layer's
    LstmParams.grad is its layer there.
    """

    def __init__(self, spec: ModelSpec, dtype, values: dict[str, np.ndarray] | None = None,
                 grad: ParamArena | None = None):
        blocks = param_blocks(spec)
        layers = {prefix: (n_in, hidden) for prefix, n_in, hidden in _lstm_layers(spec)}
        groups = LstmParams.gate_groups(spec.timesteps)
        shapes = {key: shape for key, (shape, _) in blocks.items()
                  if key.split(".")[0] not in layers}
        shapes.update(((prefix, gates), (1 + n_in + hidden, len(gates) * hidden))
                      for prefix, (n_in, hidden) in layers.items() for gates in groups)
        self.flat = np.zeros(sum(map(math.prod, shapes.values())), dtype=dtype)
        views, lo = {}, 0
        for name, shape in shapes.items():
            views[name] = self.flat[lo:lo + math.prod(shape)].reshape(shape)
            lo += math.prod(shape)
        self.lstm = {}
        for prefix in layers:
            layer = self.lstm[prefix] = LstmParams.gate_major(
                {gates: views[prefix, gates] for gates in groups},
                grad=None if grad is None else grad.lstm[prefix])
            views.update((f"{prefix}.{name}", getattr(layer, name)) for name in _LSTM_FIELDS)
        super().__init__((key, views[key]) for key in blocks)
        self.grad = grad
        if values is not None:
            for key, block in self.items():
                block[...] = values[key]


def trained_runs(spec: ModelSpec) -> tuple[slice, ...]:
    """The entries trained_entries selects, as the contiguous runs of a
    ParamArena's flat buffer that hold them, in buffer order."""
    mask = ParamArena(spec, bool)
    for key, index in trained_entries(spec).items():
        mask[key][index] = True
    edges = np.flatnonzero(np.diff(mask.flat, prepend=False, append=False)).tolist()
    return tuple(slice(lo, hi) for lo, hi in zip(edges[::2], edges[1::2]))


def _lstm_view(params: dict[str, np.ndarray], prefix: str) -> LstmParams:
    """The LstmParams of an LSTM layer, over the dict's own arrays."""
    if isinstance(params, ParamArena):
        return params.lstm[prefix]
    return LstmParams(**{name: params[f"{prefix}.{name}"] for name in _LSTM_FIELDS})


# --- forward / backward -------------------------------------------------

@dataclass
class ForwardCache:
    logits: np.ndarray
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


# A batch's repeated rows are merged only when at least this share of
# its rows repeats. The gathers and the scatter-add cost about 1% of a
# step, so below this share the saving is lost in step-to-step noise,
# and the plain path keeps such batches bit-identical to a model that
# never merges rows.
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


# Rows per _forward_rows call when model_forward keeps no cache. One
# slice's buffers (~1.2 MB in float32 at 512 rows) stay in the
# allocator's free lists between slices and calls. A slice of several MB
# may be handed back to the OS after each call, depending on what earlier
# work left in the heap, and page-faulted in again on the next: at 4,096
# rows that cost ~10 of ~38 ms per call on a 4,800-row split, in some
# runs and not others.
FORWARD_SLICE_ROWS = 512


def model_forward(
    spec: ModelSpec, params: dict[str, np.ndarray], batch, with_cache: bool = False,
):
    """Class probabilities for a batch, or its logits and backward cache.

    batch is (N, timesteps, features) for the LSTM architectures and a
    (features, grid input) pair for the hybrid, the grid input being
    (N,) integer cell indices r * G + c or (N, G, G) heatmaps. A cell
    index runs as its one-hot grid, built for the distinct rows only.

    Rows that repeat byte for byte run through the layers once, in the
    order they first occur (distinct_rows): the model starts every row
    from a zero state, so equal rows give equal activations. The output
    is expanded back to N rows, so each sample keeps its own entry.
    Without a cache, the distinct rows run as slices of
    FORWARD_SLICE_ROWS, of which only the float64 probabilities are
    kept, so a whole split can be given at once. With a cache (training),
    they run as one slice and the call returns (cache.logits, cache):
    the logits in the parameters' dtype, for softmax_cross_entropy.
    """
    meta, grid = normalize_batch(spec, batch)
    distinct = distinct_rows(meta, grid)
    if distinct is not None:
        first, inverse = distinct
        meta = meta[first]
        grid = None if grid is None else grid[first]
    if not with_cache:
        # One slice also for zero rows, so that the output keeps its width.
        slices = [slice(lo, lo + FORWARD_SLICE_ROWS)
                  for lo in range(0, max(meta.shape[0], 1), FORWARD_SLICE_ROWS)]
        probs = np.concatenate([
            softmax(_forward_rows(spec, params, meta[rows],
                                  None if grid is None else grid[rows])[0])
            for rows in slices])
        return probs if distinct is None else probs[inverse]
    logits, internals = _forward_rows(spec, params, meta, grid)
    if distinct is not None:
        logits = logits[inverse]
        internals["inverse"] = inverse
    return logits, ForwardCache(logits=logits, internals=internals)


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
    internals.update(h1_seq=h1_seq, cache1=cache1, h2=h2, cache2=cache2)

    if spec.has_grid_branch:
        conv = Conv1dParams(params["conv.kernels"], params["conv.biases"])
        # Built once here, so that the backward pass reuses the conv input.
        grid = _conv_input(grid, spec.grid_size, conv.kernels.dtype)
        pre_conv = conv1d_forward(grid, conv)
        act_conv = np.maximum(pre_conv, 0.0)
        pooled, argmax = maxpool1d_forward(act_conv, spec.pool_size)
        flat = pooled.reshape(pooled.shape[0], spec.grid_features)
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

    For a batch whose repeated rows were merged, the N rows of
    grad_logits are first summed onto the distinct row each one repeats.
    The returned dict is keyed and shaped like params. When params is a
    ParamArena with a grad arena, its blocks are that arena's views,
    written in place, so each call returns the same arrays; else they
    are new arrays.
    """
    iv = cache.internals
    inverse = iv.get("inverse")
    if inverse is not None:
        grad_logits = np.asarray(grad_logits, dtype=np.float64)
        if grad_logits.shape != cache.logits.shape:
            raise ShapeMismatch("logit gradient shape does not match the batch")
        n, c = iv["head_in"].shape[0], grad_logits.shape[1]
        # Row k adds into bin inverse[k] * C + class, in row order.
        flat = (inverse[:, None] * c + np.arange(c)).ravel()
        grad_logits = np.bincount(flat, weights=grad_logits.ravel(),
                                  minlength=n * c).reshape(n, c)
    return _backward_rows(spec, params, iv, grad_logits)


def _backward_rows(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    iv: dict[str, Any],
    grad_logits: np.ndarray,
) -> dict[str, np.ndarray]:
    grads: dict[str, np.ndarray] = {}
    grad = params.grad if isinstance(params, ParamArena) else None

    def out(cls, *keys):
        """cls over the gradient arena's views of keys, or None for new arrays."""
        return None if grad is None else cls(*(grad[key] for key in keys))

    head = DenseParams(params["head.w"], params["head.b"])
    dw, db, d_head_in = dense_backward(iv["head_in"], head, grad_logits,
                                       out=out(DenseParams, "head.w", "head.b"))
    grads["head.w"], grads["head.b"] = dw, db

    if spec.has_grid_branch:
        d_pre_fusion = d_head_in * (iv["pre_fusion"] > 0)
        fusion = DenseParams(params["fusion.w"], params["fusion.b"])
        dw, db, d_fused = dense_backward(iv["fused_in"], fusion, d_pre_fusion,
                                         out=out(DenseParams, "fusion.w", "fusion.b"))
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
        dk, dbias, _ = conv1d_backward(iv["grid"], conv, d_pre_conv, input_grad=False,
                                       out=out(Conv1dParams, "conv.kernels", "conv.biases"))
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
    lstm1_grads, _ = lstm_backward(iv["cache1"], lstm1, d_h1_seq, input_grad=False)
    for name, grad in lstm1_grads.items():
        grads[f"lstm1.{name}"] = grad

    return grads
