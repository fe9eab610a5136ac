"""Training pipeline: splits, scaling, class balancing, Adam, benchmarks.

Training is deterministic given (data, spec, config, seed): the split,
oversampling, initialization and batch order all derive from the
configured seed, and gradient sums accumulate in a fixed sample order.
Wall-clock timing wraps the epoch loop only.

benchmark_pipelines is the one comparison of the non-vectorized and
vectorized feature pipelines that the paper's efficiency claim rests
on; `veclstm bench` and the acceptance tests both run it.

Precision follows Micikevicius et al. 2018 ("Mixed Precision Training"):
the parameters and Adam's moments stay float64 master weights, while
training and each predict call run the model on a float32 copy of them.
predict hands model_forward the whole split, which groups and slices
its rows. Softmax, the loss and the metrics stay float64. Training
keeps one float32 copy for the whole run, and each step takes one
softmax: softmax_cross_entropy's, of the logits model_forward returns.
Labels are (N,) int64 class codes from the split to the loss
(encode_labels checks them); the (batch, C) one-hot target that
run_epochs builds for softmax_cross_entropy is the only one-hot.
Adam updates, in place, only the entries the model reads
(models.trained_entries), held as flat vectors, and then rewrites those
entries of the float32 copy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable

import numpy as np

from .errors import (
    ConfigError,
    EmptyClassSet,
    EmptyInput,
    NotFittedError,
    OutOfRange,
    ShapeMismatch,
    TooFewSamples,
    VecLstmError,
)
from .models import (
    ModelSpec,
    build_lstm_stack,
    build_veclstm,
    init_model_params,
    model_backward,
    model_forward,
    trained_entries,
)
from .neuralnet import cross_entropy, softmax_cross_entropy
from .vectorizer import (
    VectorizationConfig,
    cell_index,
    fit_stats,
    histogram2d,
    impute_missing,
    min_max_normalize,
    normalize_columns,
    vectorize_metadata,
)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 512
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    test_fraction: float = 0.2
    validation_fraction: float = 0.1  # of the training split
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.test_fraction < 1.0):
            raise ConfigError("test_fraction must be in (0, 1)")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ConfigError("validation_fraction must be in (0, 1)")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError("seed must be >= 0")
        for name in ("learning_rate", "epsilon"):  # epsilon: see adam_step
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")


# --- data plumbing -------------------------------------------------------

def _take(x, idx):
    if isinstance(x, (tuple, list)):
        return tuple(part[idx] for part in x)
    return x[idx]


def train_test_split(x: np.ndarray, y, test_fraction: float, seed: int):
    """Seeded uniform shuffle then split; test gets round(n * fraction).

    Returns ((x_train, y_train), (x_test, y_test)).
    """
    y = np.asarray(y)
    n = len(x)
    if n != len(y):
        raise ShapeMismatch(f"{n} samples but {len(y)} labels")
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = int(round(n * test_fraction))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return (x[train_idx], y[train_idx]), (x[test_idx], y[test_idx])


class StandardScaler:
    """Per-feature (x - mean) / std with population std.

    Features with std below 1e-12 map to 0 so constant columns stay
    finite.
    """

    def __init__(self):
        self.mean_: np.ndarray | None = None
        self.std_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        x = np.asarray(x, dtype=np.float64)
        self.mean_ = x.mean(axis=0)
        self.std_ = x.std(axis=0)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise NotFittedError("scaler used before fit")
        x = np.asarray(x, dtype=np.float64)
        safe = np.where(self.std_ < 1e-12, 1.0, self.std_)
        out = (x - self.mean_) / safe
        return np.where(self.std_ < 1e-12, 0.0, out)

    def transform_value(self, value: float, feature: int = 0) -> float:
        if self.mean_ is None:
            raise NotFittedError("scaler used before fit")
        std = self.std_[feature]
        if std < 1e-12:
            return 0.0
        return (value - self.mean_[feature]) / std


def encode_labels(labels, n_classes: int = 7) -> np.ndarray:
    """labels as (N,) int64 class codes: the one check of a label vector.

    Labels that are not 1-D, a one-hot array among them, raise
    ShapeMismatch; a code outside [0, n_classes) raises OutOfRange.
    """
    codes = np.asarray(labels, dtype=np.int64)
    if codes.ndim != 1:
        raise ShapeMismatch(f"labels must be (N,) class codes, got shape {codes.shape}")
    if codes.size and (codes.min() < 0 or codes.max() >= n_classes):
        raise OutOfRange(f"label codes outside [0, {n_classes})")
    return codes


def random_oversample(x: np.ndarray, y, seed: int):
    """Duplicate minority-class samples (with replacement, seeded) until
    every present class matches the majority count. Originals all stay,
    in their original order; duplicates follow, grouped by class code.
    """
    y = np.asarray(y)
    if y.size == 0:
        raise EmptyClassSet("nothing to oversample")
    rng = np.random.default_rng(seed)
    classes, counts = np.unique(y, return_counts=True)
    target = counts.max()
    extra: list[np.ndarray] = []
    for cls, count in zip(classes, counts):
        deficit = int(target - count)
        if deficit == 0:
            continue
        pool = np.nonzero(y == cls)[0]
        extra.append(rng.choice(pool, size=deficit, replace=True))
    if not extra:
        return x, y
    idx = np.concatenate([np.arange(y.size)] + extra)
    return x[idx], y[idx]


# --- Adam ----------------------------------------------------------------

class AdamState:
    """Adam's state over the entries of a parameter dict that training
    moves (trained: block key -> basic index, models.trained_entries).

    The float64 master values of those entries, m, v and adam_step's
    scratch are each one flat vector. work is the compute_params copy of
    every block that the model runs on for the whole of training;
    adam_step rewrites its trained entries in place. The gradients are
    staged in work's dtype.
    """

    def __init__(self, params: dict[str, np.ndarray], trained: dict[str, Any]):
        self._params = params
        self.work = compute_params(params)
        size = sum(params[key][index].size for key, index in trained.items())
        self.p = np.empty(size)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        work_dtype = np.result_type(*self.work.values())
        self.g = np.empty(size, dtype=work_dtype)
        self.g2 = np.empty(size, dtype=work_dtype)
        self.step = np.empty(size)
        self.denom = np.empty(size)
        # key, index, and the block's part of g, p and work, as views
        self.parts = []
        lo = 0
        for key, index in trained.items():
            block = params[key][index]
            part = slice(lo, lo + block.size)
            lo += block.size
            p_part = self.p[part].reshape(block.shape)
            p_part[...] = block
            self.parts.append((key, index, self.g[part].reshape(block.shape), p_part,
                               self.work[key][index]))

    def master(self) -> dict[str, np.ndarray]:
        """Float64 copies of the full blocks with the trained entries as
        trained; the dict given at construction is left as it was."""
        out = {key: p.astype(np.float64) for key, p in self._params.items()}
        for key, index, _, p_part, _ in self.parts:
            out[key][index] = p_part
        return out


def adam_step(grads: dict[str, np.ndarray], state: AdamState, config: TrainConfig) -> None:
    """One Adam update with bias correction (t increments first), in
    place over state's trained entries and then their work copies.

    The arithmetic and its dtypes are those of the per-block formula
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        p = p - lr * (m / bc1) / (sqrt(v / bc2) + eps)
    whose (1 - beta) products round in g's dtype. An entry whose
    gradient is always zero keeps its value exactly (eps > 0), so the
    entries outside the trained set can be left out.
    """
    if grads.keys() != state.work.keys():
        raise ShapeMismatch("gradient keys do not match parameter keys")
    for key, grad in grads.items():
        if grad.shape != state.work[key].shape:
            raise ShapeMismatch(f"gradient shape mismatch for {key}")
    for key, index, g_part, _, _ in state.parts:
        np.copyto(g_part, grads[key][index])
    state.t += 1
    bc1 = 1.0 - config.beta1 ** state.t
    bc2 = 1.0 - config.beta2 ** state.t
    g, g2, m, v, step, denom = state.g, state.g2, state.m, state.v, state.step, state.denom
    np.multiply(g, g, out=g2)
    np.multiply(g2, 1.0 - config.beta2, out=g2)
    np.multiply(g, 1.0 - config.beta1, out=g)
    m *= config.beta1
    m += g
    v *= config.beta2
    v += g2
    np.divide(m, bc1, out=step)
    step *= config.learning_rate
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += config.epsilon
    step /= denom
    state.p -= step
    for _, _, _, p_part, work_part in state.parts:
        np.copyto(work_part, p_part)


# --- training loop -------------------------------------------------------

@dataclass
class TrainData:
    """Preprocessed inputs ready for the loop: scaled features and (N,)
    class codes."""

    x_train: "np.ndarray | tuple"
    y_train: np.ndarray  # (N,) int64 class codes
    x_val: "np.ndarray | tuple | None" = None
    y_val: np.ndarray | None = None


@dataclass
class TrainReport:
    epochs: int
    seed: int
    initial_loss: float
    initial_accuracy: float
    epoch_losses: list[float]
    epoch_accuracies: list[float]
    val_accuracy: float | None
    train_seconds: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def compute_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The float32 copy of the master weights that the model runs on."""
    return {key: p.astype(np.float32) for key, p in params.items()}


def predict(spec: ModelSpec, params: dict, x) -> np.ndarray:
    """Probabilities over a dataset, on the float32 copy of params.

    model_forward groups the rows of the whole dataset, so equal rows
    get bit-identical probabilities, and runs the distinct rows in
    slices. Zero rows give a (0, n_classes) array.
    """
    return model_forward(spec, compute_params(params), x)


def evaluate_loss(spec: ModelSpec, params: dict, x,
                  labels: np.ndarray) -> tuple[float, float]:
    """(mean loss, accuracy) of predict's probabilities against (N,)
    class codes, checked by encode_labels, without updating anything."""
    probs = predict(spec, params, x)
    if probs.shape[0] == 0:
        raise EmptyInput("cannot evaluate the loss over no rows")
    if probs.shape[0] != len(labels):
        raise ShapeMismatch(f"{probs.shape[0]} samples but {len(labels)} labels")
    codes = encode_labels(labels, spec.n_classes)
    acc = float((probs.argmax(axis=1) == codes).mean())
    return cross_entropy(probs, codes), acc


def run_epochs(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    batch_features: Callable[[np.ndarray], object],
    labels: np.ndarray,
    config: TrainConfig,
) -> tuple[dict[str, np.ndarray], list[float], list[float], float]:
    """Shared minibatch-Adam loop.

    batch_features maps an index array to the model input for those
    samples; swapping it is the only difference between the vectorized
    and non-vectorized benchmark pipelines. The CLI bench command calls
    it with its own feature function. labels are (N,) class codes,
    checked by encode_labels. batch_features must cover every row of
    them: an index past the end of its inputs raises ShapeMismatch, and
    no labels at all raise EmptyInput.

    Every step runs the forward and backward passes on the same float32
    copy of the parameters, whose trained entries adam_step rewrites
    after updating the float64 master weights in place. The loss, its
    logit gradient and the probabilities that score the batch come from
    one softmax_cross_entropy call on the forward's logits, against the
    batch's (batch, C) one-hot targets, built here per batch. The
    caller's arrays are not written to.
    """
    codes = encode_labels(labels, spec.n_classes)
    n = codes.size
    if n == 0:
        raise EmptyInput("cannot train on no labels")
    one_hot = np.eye(spec.n_classes)
    state = AdamState(params, trained_entries(spec))
    work = state.work
    rng = np.random.default_rng(config.seed)
    losses: list[float] = []
    accuracies: list[float] = []

    start = time.perf_counter()
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            try:
                try:
                    x_batch = batch_features(idx)
                except IndexError as exc:
                    raise ShapeMismatch(f"{n} labels, more than the samples: {exc}") from exc
                y_batch = codes[idx]
                logits, cache = model_forward(spec, work, x_batch, with_cache=True)
                probs, loss, d_logits = softmax_cross_entropy(logits, one_hot[y_batch])
                grads = model_backward(spec, work, cache, d_logits)
                adam_step(grads, state, config)
            except VecLstmError as exc:
                exc.args = (f"epoch {epoch}, batch {lo // config.batch_size}: {exc}",)
                raise
            loss_sum += loss * idx.size
            correct += int((probs.argmax(axis=1) == y_batch).sum())
        losses.append(loss_sum / n)
        accuracies.append(correct / n)
    seconds = time.perf_counter() - start
    return state.master(), losses, accuracies, seconds


def train_model(
    spec: ModelSpec, data: TrainData, config: TrainConfig
) -> tuple[dict[str, np.ndarray], TrainReport]:
    """Minibatch Adam on softmax cross-entropy over preprocessed data."""
    params = init_model_params(spec, seed=config.seed)
    initial_loss, initial_acc = evaluate_loss(spec, params, data.x_train, data.y_train)
    params, losses, accs, seconds = run_epochs(
        spec, params, lambda idx: _take(data.x_train, idx), data.y_train, config
    )
    val_accuracy = None
    if data.y_val is not None and len(data.y_val) > 0:
        _, val_accuracy = evaluate_loss(spec, params, data.x_val, data.y_val)
    report = TrainReport(
        epochs=config.epochs,
        seed=config.seed,
        initial_loss=initial_loss,
        initial_accuracy=initial_acc,
        epoch_losses=losses,
        epoch_accuracies=accs,
        val_accuracy=val_accuracy,
        train_seconds=seconds,
    )
    return params, report


# --- pipeline benchmark --------------------------------------------------

@dataclass
class BenchmarkReport:
    """Timing comparison of the two feature-supply pipelines.

    features (every row's scaled feature, (N, 1, 1)) and the two trained
    parameter dicts are kept for scoring.
    """

    t_novec: float
    t_vec: float
    t_vectorization: float
    reduction_pct: float
    final_loss_novec: float
    final_loss_vec: float
    n_samples: int
    epochs: int
    seed: int
    features: np.ndarray = field(repr=False)
    params_novec: dict[str, np.ndarray] = field(repr=False)
    params_vec: dict[str, np.ndarray] = field(repr=False)


def benchmark_pipelines(
    lat: np.ndarray,
    lon: np.ndarray,
    alt: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    vec_config: VectorizationConfig = VectorizationConfig(),
    rows: np.ndarray | None = None,
) -> BenchmarkReport:
    """Train an LSTM with its density feature recomputed per sample every
    epoch (non-vectorized) and VecLSTM with the feature computed once for
    the whole dataset by vectorize_metadata (vectorized).

    labels hold every dataset row's class code. rows are the dataset rows
    trained on, in order, and may repeat as oversampled rows do; every
    row when omitted. The feature scaler is fit on them. The
    normalization bounds and count grid that the per-sample side reads
    are built outside either timer, favoring it.
    Both sides share the seed and the training loop and see bit-identical
    features, so they end with bit-identical parameters and losses.
    t_novec and t_vec cover the epoch loops; t_vectorization is the
    vectorized side's one-time cost.
    """
    rows = np.arange(len(lat)) if rows is None else np.asarray(rows)
    codes = np.asarray(labels)[rows]

    stats = fit_stats(lat, lon, alt)
    norm_lat, norm_lon, _ = normalize_columns(lat, lon, alt, stats, vec_config)
    grid = histogram2d(norm_lat, norm_lon, replace(vec_config, value_mode="count")).grid
    peak = grid.max()

    t0 = time.perf_counter()
    raw = vectorize_metadata(lat, lon, alt, vec_config).reshape(-1, 1)
    scaler = StandardScaler().fit(raw[rows])
    features = scaler.transform(raw).reshape(-1, 1, 1)
    t_vectorization = time.perf_counter() - t0
    x_vec = features[rows]

    lat_bounds, lon_bounds = stats.bounds("lat"), stats.bounds("lon")
    g = vec_config.grid_size

    def per_sample(idx: np.ndarray) -> np.ndarray:
        # deliberately unvectorized: the work the vectorized side does once
        out = np.empty((idx.size, 1, 1), dtype=np.float64)
        for slot, i in enumerate(idx):
            row = int(rows[i])
            nlat = impute_missing(min_max_normalize(float(lat[row]), *lat_bounds), vec_config)
            nlon = impute_missing(min_max_normalize(float(lon[row]), *lon_bounds), vec_config)
            density = grid[cell_index(nlat, g), cell_index(nlon, g)] / peak
            out[slot, 0, 0] = scaler.transform_value(density)
        return out

    novec_spec, vec_spec = build_lstm_stack(1), build_veclstm(1)
    params_novec, losses_novec, _, t_novec = run_epochs(
        novec_spec, init_model_params(novec_spec, seed=config.seed), per_sample,
        codes, config)
    params_vec, losses_vec, _, t_vec = run_epochs(
        vec_spec, init_model_params(vec_spec, seed=config.seed), lambda idx: x_vec[idx],
        codes, config)

    reduction = 100.0 * (t_novec - t_vec) / t_novec if t_novec > 0 else 0.0
    return BenchmarkReport(
        t_novec=t_novec,
        t_vec=t_vec,
        t_vectorization=t_vectorization,
        reduction_pct=reduction,
        final_loss_novec=losses_novec[-1],
        final_loss_vec=losses_vec[-1],
        n_samples=len(codes),
        epochs=config.epochs,
        seed=config.seed,
        features=features,
        params_novec=params_novec,
        params_vec=params_vec,
    )
