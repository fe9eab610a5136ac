"""Grid-heatmap vectorization of trajectories.

Raw (lat, lon, alt) values are min-max normalized to [0, 1] per
dimension, missing values replaced by a configured default, and the
normalized (lat, lon) pairs binned into a G x G histogram. The
flattened histogram is the vector representation; the per-sample
"metadata" feature is a sample's cell density relative to the densest
cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyInput, LengthMismatch

MISSING = math.nan


def is_missing(value: float) -> bool:
    return math.isnan(value)


@dataclass(frozen=True)
class NormalizationStats:
    """Per-dimension (lat, lon, alt) min and max over non-missing values."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    alt_min: float
    alt_max: float

    def bounds(self, dim: str) -> tuple[float, float]:
        return {
            "lat": (self.lat_min, self.lat_max),
            "lon": (self.lon_min, self.lon_max),
            "alt": (self.alt_min, self.alt_max),
        }[dim]


@dataclass(frozen=True)
class VectorizationConfig:
    grid_size: int = 10
    missing_default: float = 0.5  # in normalized space
    value_mode: str = "count"     # "count" | "density"

    def __post_init__(self):
        if self.grid_size < 1:
            raise ValueError("grid_size must be >= 1")
        if self.value_mode not in ("count", "density"):
            raise ValueError(f"unknown value_mode {self.value_mode!r}")


@dataclass
class GridHeatmap:
    grid: np.ndarray  # (G, G), row index from lat, column from lon
    value_mode: str

    def flatten(self) -> np.ndarray:
        return self.grid.reshape(-1)

    def to_csv(self) -> str:
        return "\n".join(",".join(repr(v) for v in row) for row in self.grid.tolist())


def fit_stats(lat: np.ndarray, lon: np.ndarray, alt: np.ndarray) -> NormalizationStats:
    """Min/max per column, ignoring missing values.

    A dimension with no non-missing values falls back to (0, 1).
    """
    if len(lat) == 0:
        raise EmptyInput("cannot fit normalization stats on no points")
    bounds = []
    for values in (lat, lon, alt):
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        if values.size == 0:
            bounds.extend((0.0, 1.0))
        else:
            bounds.extend((float(values.min()), float(values.max())))
    return NormalizationStats(*bounds)


def min_max_normalize(value: float, lo: float, hi: float) -> float:
    """(v - min) / (max - min), clamped to [0, 1]; 0.0 when max == min.

    Missing values pass through unchanged (impute separately).
    """
    if is_missing(value):
        return value
    if hi == lo:
        return 0.0
    return min(max((value - lo) / (hi - lo), 0.0), 1.0)


def impute_missing(value: float, config: VectorizationConfig) -> float:
    return config.missing_default if is_missing(value) else value


def normalize_columns(
    lat: np.ndarray, lon: np.ndarray, alt: np.ndarray,
    stats: NormalizationStats, config: VectorizationConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized normalize-then-impute over whole columns."""
    out = []
    for values, dim in ((lat, "lat"), (lon, "lon"), (alt, "alt")):
        lo, hi = stats.bounds(dim)
        values = np.asarray(values, dtype=np.float64)
        if hi == lo:
            norm = np.zeros_like(values)
        else:
            norm = np.clip((values - lo) / (hi - lo), 0.0, 1.0)
        norm = np.where(np.isnan(values), config.missing_default, norm)
        out.append(norm)
    return out[0], out[1], out[2]


def cell_index(value: float, grid_size: int) -> int:
    """floor(v * G) clamped to G-1 so that 1.0 lands in the last bin."""
    return min(int(value * grid_size), grid_size - 1)


def cell_indices(
    norm_lat: np.ndarray, norm_lon: np.ndarray, grid_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """cell_index over whole columns: (row, column) of each pair."""
    top = grid_size - 1
    return (np.minimum((norm_lat * grid_size).astype(np.int64), top),
            np.minimum((norm_lon * grid_size).astype(np.int64), top))


def histogram2d(
    norm_lat: np.ndarray, norm_lon: np.ndarray, config: VectorizationConfig
) -> GridHeatmap:
    """Bin normalized (lat, lon) pairs into the G x G grid."""
    norm_lat = np.asarray(norm_lat, dtype=np.float64)
    norm_lon = np.asarray(norm_lon, dtype=np.float64)
    if norm_lat.shape != norm_lon.shape:
        raise LengthMismatch(
            f"lat count {norm_lat.size} != lon count {norm_lon.size}"
        )
    g = config.grid_size
    rows, cols = cell_indices(norm_lat, norm_lon, g)
    grid = np.zeros((g, g), dtype=np.float64)
    np.add.at(grid, (rows, cols), 1.0)
    if config.value_mode == "density" and norm_lat.size > 0:
        grid /= norm_lat.size
    return GridHeatmap(grid=grid, value_mode=config.value_mode)


def vectorize_trajectory(
    points: list[tuple[float, float, float]],
    config: VectorizationConfig = VectorizationConfig(),
    stats: NormalizationStats | None = None,
) -> np.ndarray:
    """Full pipeline: fit stats, normalize, impute, bin, flatten to G^2.

    points is a sequence of (lat, lon, alt) rows, or an (N, 3) array.
    Pass precomputed stats to bin against dataset-wide bounds instead of
    this trajectory's own.
    """
    if len(points) == 0:
        raise EmptyInput("cannot vectorize an empty trajectory")
    arr = np.asarray(points, dtype=np.float64)
    lat, lon, alt = arr[:, 0], arr[:, 1], arr[:, 2]
    if stats is None:
        stats = fit_stats(lat, lon, alt)
    norm_lat, norm_lon, _ = normalize_columns(lat, lon, alt, stats, config)
    return histogram2d(norm_lat, norm_lon, config).flatten()


def sample_cell_grids(
    lat: np.ndarray,
    lon: np.ndarray,
    alt: np.ndarray,
    stats: NormalizationStats,
    config: VectorizationConfig = VectorizationConfig(),
) -> np.ndarray:
    """One single-point heatmap per sample: (N, G, G) with a 1 at the
    sample's grid cell. These are the spatial inputs of the hybrid
    model's convolution branch.
    """
    norm_lat, norm_lon, _ = normalize_columns(lat, lon, alt, stats, config)
    g = config.grid_size
    rows, cols = cell_indices(norm_lat, norm_lon, g)
    grids = np.zeros((norm_lat.size, g, g), dtype=np.float64)
    grids[np.arange(norm_lat.size), rows, cols] = 1.0
    return grids


def vectorize_metadata(
    lat: np.ndarray,
    lon: np.ndarray,
    alt: np.ndarray,
    config: VectorizationConfig = VectorizationConfig(),
) -> np.ndarray:
    """Per-sample scalar: own-cell count over the max cell count.

    Built from the dataset-wide count heatmap, so all outputs lie in
    (0, 1] and at least one equals 1.0.
    """
    if len(lat) == 0:
        raise EmptyInput("cannot vectorize metadata of an empty dataset")
    stats = fit_stats(lat, lon, alt)
    norm_lat, norm_lon, _ = normalize_columns(lat, lon, alt, stats, config)
    heatmap = histogram2d(norm_lat, norm_lon, replace(config, value_mode="count"))
    rows, cols = cell_indices(norm_lat, norm_lon, config.grid_size)
    return heatmap.grid[rows, cols] / heatmap.grid.max()
