"""Training pipeline: splits, scaling, class balancing, Adam, benchmarks.

Training is deterministic given (data, spec, config, seed): the split,
oversampling, initialization and batch order all derive from the
configured seed, and gradient sums accumulate in a fixed sample order.
Wall-clock timing wraps the epoch loop only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import (
    EmptyClassSet,
    NotFittedError,
    OutOfRange,
    ShapeMismatch,
    TooFewSamples,
    VecLstmError,
)
from .models import (
    ModelSpec,
    build_veclstm,
    distinct_rows,
    init_model_params,
    model_backward,
    model_forward,
    normalize_batch,
)
from .neuralnet import softmax_cross_entropy
from .vectorizer import (
    VectorizationConfig,
    cell_index,
    fit_stats,
    histogram2d,
    impute_missing,
    min_max_normalize,
    normalize_columns,
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
            raise ValueError("test_fraction must be in (0, 1)")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, overrides: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown train config keys: {sorted(unknown)}")
        return cls(**overrides)


# --- data plumbing -------------------------------------------------------

def _take(x, idx):
    if isinstance(x, (tuple, list)):
        return tuple(part[idx] for part in x)
    return x[idx]


def _length(x) -> int:
    if isinstance(x, (tuple, list)):
        return len(x[0])
    return len(x)


def train_test_split(x, y, test_fraction: float, seed: int):
    """Seeded uniform shuffle then split; test gets round(n * fraction).

    x may be a single array or a tuple of aligned arrays. Returns
    ((x_train, y_train), (x_test, y_test)).
    """
    y = np.asarray(y)
    n = _length(x)
    if n != len(y):
        raise ShapeMismatch(f"{n} samples but {len(y)} labels")
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = int(round(n * test_fraction))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return (_take(x, train_idx), y[train_idx]), (_take(x, test_idx), y[test_idx])


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

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def transform_value(self, value: float, feature: int = 0) -> float:
        if self.mean_ is None:
            raise NotFittedError("scaler used before fit")
        std = self.std_[feature]
        if std < 1e-12:
            return 0.0
        return (value - self.mean_[feature]) / std


def one_hot(code: int, n_classes: int = 7) -> np.ndarray:
    if not 0 <= code < n_classes:
        raise OutOfRange(f"label code {code} outside [0, {n_classes})")
    vec = np.zeros(n_classes, dtype=np.float64)
    vec[code] = 1.0
    return vec


def encode_labels(codes: np.ndarray, n_classes: int = 7) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size and (codes.min() < 0 or codes.max() >= n_classes):
        raise OutOfRange(f"label codes outside [0, {n_classes})")
    out = np.zeros((codes.size, n_classes), dtype=np.float64)
    out[np.arange(codes.size), codes] = 1.0
    return out


def random_oversample(x, y, seed: int):
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
    return _take(x, idx), y[idx]


# --- Adam ----------------------------------------------------------------

@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def create(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One Adam update with bias correction; t increments first."""
    if set(grads) != set(params):
        raise ShapeMismatch("gradient keys do not match parameter keys")
    state.t += 1
    bc1 = 1.0 - config.beta1 ** state.t
    bc2 = 1.0 - config.beta2 ** state.t
    new_params: dict[str, np.ndarray] = {}
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ShapeMismatch(f"gradient shape mismatch for {key}")
        state.m[key] = config.beta1 * state.m[key] + (1.0 - config.beta1) * g
        state.v[key] = config.beta2 * state.v[key] + (1.0 - config.beta2) * (g * g)
        m_hat = state.m[key] / bc1
        v_hat = state.v[key] / bc2
        new_params[key] = p - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
    return new_params, state


# --- training loop -------------------------------------------------------

@dataclass
class TrainData:
    """Preprocessed tensors ready for the loop (scaled, one-hot)."""

    x_train: "np.ndarray | tuple"
    y_train: np.ndarray  # (N, C) one-hot
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
    vectorize_seconds: float | None = None

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "seed": self.seed,
            "initial_loss": self.initial_loss,
            "initial_accuracy": self.initial_accuracy,
            "epoch_losses": self.epoch_losses,
            "epoch_accuracies": self.epoch_accuracies,
            "val_accuracy": self.val_accuracy,
            "train_seconds": self.train_seconds,
            "vectorize_seconds": self.vectorize_seconds,
        }


def predict(spec: ModelSpec, params: dict, x, batch_size: int = 4096) -> np.ndarray:
    """Probabilities over a dataset, evaluated in batches.

    When enough rows repeat (models.MIN_REPEAT_SHARE), each distinct
    row is evaluated once over the whole dataset, so equal rows get
    bit-identical probabilities whichever batch they would fall in.
    """
    distinct = distinct_rows(*normalize_batch(spec, x))
    if distinct is not None:
        x = _take(x, distinct[0])
    n = _length(x)
    parts = [
        model_forward(spec, params, _take(x, np.arange(lo, min(lo + batch_size, n))))
        for lo in range(0, n, batch_size)
    ]
    probs = np.concatenate(parts, axis=0)
    return probs if distinct is None else probs[distinct[1]]


def evaluate_loss(spec: ModelSpec, params: dict, x, y_onehot: np.ndarray,
                  batch_size: int = 4096) -> tuple[float, float]:
    """(mean loss, accuracy) without updating anything."""
    probs = predict(spec, params, x, batch_size)
    logp = np.log(np.maximum(probs, 1e-300))
    loss = float(-(y_onehot * logp).sum(axis=1).mean())
    acc = float((probs.argmax(axis=1) == y_onehot.argmax(axis=1)).mean())
    return loss, acc


def run_epochs(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    batch_features: Callable[[np.ndarray], object],
    y_onehot: np.ndarray,
    config: TrainConfig,
) -> tuple[dict[str, np.ndarray], list[float], list[float], float]:
    """Shared minibatch-Adam loop.

    batch_features maps an index array to the model input for those
    samples; swapping it is the only difference between the vectorized
    and non-vectorized benchmark pipelines. The CLI bench command calls
    it with its own feature function.
    """
    n = y_onehot.shape[0]
    state = AdamState.create(params)
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
                x_batch = batch_features(idx)
                y_batch = y_onehot[idx]
                probs, cache = model_forward(spec, params, x_batch, with_cache=True)
                _, loss, d_logits = softmax_cross_entropy(cache.logits, y_batch)
                grads = model_backward(spec, params, cache, d_logits)
                params, state = adam_step(params, grads, state, config)
            except VecLstmError as exc:
                exc.args = (f"epoch {epoch}, batch {lo // config.batch_size}: {exc}",)
                raise
            loss_sum += loss * idx.size
            correct += int((probs.argmax(axis=1) == y_batch.argmax(axis=1)).sum())
        losses.append(loss_sum / n)
        accuracies.append(correct / n)
    seconds = time.perf_counter() - start
    return params, losses, accuracies, seconds


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
    if data.x_val is not None and _length(data.x_val) > 0:
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

class DensityFeaturePipeline:
    """The single-scalar feature pipeline in both of its forms.

    Shared state (normalization stats, the dataset-wide count grid, the
    feature scaler) is built once at construction. ``precompute`` runs
    the whole-column vectorized transformation; ``batch_fn`` returns an
    on-the-fly per-sample computation for the non-vectorized pipeline.
    """

    def __init__(self, lat, lon, alt, vec_config=None, fit_idx=None):
        self.vec_config = vec_config or VectorizationConfig()
        self.lat = np.asarray(lat, dtype=np.float64)
        self.lon = np.asarray(lon, dtype=np.float64)
        self.alt = np.asarray(alt, dtype=np.float64)
        self.stats = fit_stats(list(zip(self.lat, self.lon, self.alt)))
        norm_lat, norm_lon, _ = normalize_columns(
            self.lat, self.lon, self.alt, self.stats, self.vec_config
        )
        self._norm_lat = norm_lat
        self._norm_lon = norm_lon
        self.grid = histogram2d(norm_lat, norm_lon, self.vec_config).grid
        self.peak = self.grid.max()
        raw = self._raw_scalars()
        fit_rows = raw if fit_idx is None else raw[fit_idx]
        self.scaler = StandardScaler().fit(fit_rows.reshape(-1, 1))

    def _cells(self) -> tuple[np.ndarray, np.ndarray]:
        g = self.vec_config.grid_size
        rows = np.minimum((self._norm_lat * g).astype(np.int64), g - 1)
        cols = np.minimum((self._norm_lon * g).astype(np.int64), g - 1)
        return rows, cols

    def _raw_scalars(self) -> np.ndarray:
        rows, cols = self._cells()
        return self.grid[rows, cols] / self.peak

    def precompute(self) -> np.ndarray:
        """Vectorized one-shot features for every sample: (N, 1, 1)."""
        scaled = self.scaler.transform(self._raw_scalars().reshape(-1, 1))
        return scaled.reshape(-1, 1, 1)

    def batch_fn(self, source_rows: np.ndarray | None = None):
        """Per-sample scalar computation, evaluated batch by batch.

        source_rows maps loop indices to dataset rows (identity when
        omitted). Deliberately unvectorized: this is exactly the work
        the precomputed path avoids every epoch.
        """
        lat_bounds = self.stats.bounds("lat")
        lon_bounds = self.stats.bounds("lon")
        g = self.vec_config.grid_size

        def compute(idx: np.ndarray) -> np.ndarray:
            out = np.empty((idx.size, 1, 1), dtype=np.float64)
            for slot, i in enumerate(idx):
                row = int(i) if source_rows is None else int(source_rows[i])
                nlat = impute_missing(
                    min_max_normalize(float(self.lat[row]), *lat_bounds),
                    self.vec_config)
                nlon = impute_missing(
                    min_max_normalize(float(self.lon[row]), *lon_bounds),
                    self.vec_config)
                density = self.grid[cell_index(nlat, g), cell_index(nlon, g)] / self.peak
                out[slot, 0, 0] = self.scaler.transform_value(density)
            return out

        return compute


@dataclass
class BenchmarkReport:
    """Timing comparison of the two feature-supply pipelines."""

    t_novec: float
    t_vec: float
    t_vectorization: float
    reduction_pct: float
    final_loss_novec: float
    final_loss_vec: float
    n_samples: int
    epochs: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "t_novec": self.t_novec,
            "t_vec": self.t_vec,
            "t_vectorization": self.t_vectorization,
            "reduction_pct": self.reduction_pct,
            "final_loss_novec": self.final_loss_novec,
            "final_loss_vec": self.final_loss_vec,
            "n_samples": self.n_samples,
            "epochs": self.epochs,
            "seed": self.seed,
        }


def benchmark_pipelines(
    lat: np.ndarray,
    lon: np.ndarray,
    alt: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    spec: ModelSpec | None = None,
) -> BenchmarkReport:
    """Train the same model twice: features recomputed per batch every
    epoch (non-vectorized) vs. precomputed once (vectorized).

    Both pipelines share the normalization stats and the dataset-wide
    count grid (built outside either timer, favoring the non-vectorized
    side), the same seed, and the identical training loop; only the
    feature supply differs. Reported times cover the epoch loops;
    t_vectorization is the one-time cost of the precomputed path.
    """
    if spec is None:
        spec = build_veclstm(n_features=1)
    y_onehot = encode_labels(labels, spec.n_classes)

    pipeline = DensityFeaturePipeline(lat, lon, alt)

    t0 = time.perf_counter()
    x_vec = pipeline.precompute()
    t_vectorization = time.perf_counter() - t0

    params = init_model_params(spec, seed=config.seed)
    _, losses_novec, _, t_novec = run_epochs(
        spec, params, pipeline.batch_fn(), y_onehot, config
    )

    params = init_model_params(spec, seed=config.seed)
    _, losses_vec, _, t_vec = run_epochs(
        spec, params, lambda idx: x_vec[idx], y_onehot, config
    )

    reduction = 100.0 * (t_novec - t_vec) / t_novec if t_novec > 0 else 0.0
    return BenchmarkReport(
        t_novec=t_novec,
        t_vec=t_vec,
        t_vectorization=t_vectorization,
        reduction_pct=reduction,
        final_loss_novec=losses_novec[-1],
        final_loss_vec=losses_vec[-1],
        n_samples=y_onehot.shape[0],
        epochs=config.epochs,
        seed=config.seed,
    )
