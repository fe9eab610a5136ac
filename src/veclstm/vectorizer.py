"""Grid-heatmap vectorization of trajectories.

Raw lat and lon values are min-max normalized to [0, 1] per column
against fitted bounds, missing values replaced by a configured default,
and the normalized (lat, lon) pairs binned into a G x G histogram. The
flattened histogram is the vector representation; the per-sample
"metadata" feature is a sample's cell density relative to the densest
cell. Altitude is fitted with the other columns but normalized only for
the `normalized_alt` metadata feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyInput, LengthMismatch

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
            raise ConfigError("grid_size must be >= 1")
        # Imputed values are binned like normalized ones, so they must lie
        # in [0, 1] too; NaN fails the comparison.
        if not 0.0 <= self.missing_default <= 1.0:
            raise ConfigError(f"missing_default must be in [0, 1], got {self.missing_default!r}")
        if self.value_mode not in ("count", "density"):
            raise ConfigError(f"unknown value_mode {self.value_mode!r}")


@dataclass
class GridHeatmap:
    grid: np.ndarray  # (G, G), row index from lat, column from lon

    def flatten(self) -> np.ndarray:
        return self.grid.reshape(-1)


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


def normalize_column(
    values: np.ndarray, bounds: tuple[float, float], config: VectorizationConfig,
) -> np.ndarray:
    """impute_missing(min_max_normalize(v, lo, hi), config) over a whole
    column, bit for bit."""
    lo, hi = bounds
    values = np.asarray(values, dtype=np.float64)
    if hi == lo:
        norm = np.zeros_like(values)
    else:
        norm = np.clip((values - lo) / (hi - lo), 0.0, 1.0)
    norm[np.isnan(values)] = config.missing_default
    return norm


def cell_index(value: float, grid_size: int) -> int:
    """floor(v * G) clamped to G-1 so that 1.0 lands in the last bin."""
    return min(int(value * grid_size), grid_size - 1)


def cell_indices(norm_lat: np.ndarray, norm_lon: np.ndarray, grid_size: int) -> np.ndarray:
    """cell_index over whole columns: the flat cell r * G + c of each pair."""
    top = grid_size - 1
    rows = np.minimum((norm_lat * grid_size).astype(np.int64), top)
    return rows * grid_size + np.minimum((norm_lon * grid_size).astype(np.int64), top)


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
    counts = np.bincount(cell_indices(norm_lat, norm_lon, g), minlength=g * g)
    grid = counts.reshape(g, g).astype(np.float64)
    if config.value_mode == "density" and norm_lat.size > 0:
        grid /= norm_lat.size
    return GridHeatmap(grid=grid)


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
    norm_lat = normalize_column(lat, stats.bounds("lat"), config)
    norm_lon = normalize_column(lon, stats.bounds("lon"), config)
    return histogram2d(norm_lat, norm_lon, config).flatten()


def sample_cell_grids(
    lat: np.ndarray,
    lon: np.ndarray,
    stats: NormalizationStats,
    config: VectorizationConfig = VectorizationConfig(),
) -> np.ndarray:
    """Each sample's grid cell as one int64 flat index r * G + c, shape
    (N,). These are the spatial inputs of the hybrid model's convolution
    branch, which runs each index as the one-hot (G, G) grid of its cell.
    """
    return cell_indices(normalize_column(lat, stats.bounds("lat"), config),
                        normalize_column(lon, stats.bounds("lon"), config),
                        config.grid_size)


def vectorize_metadata(cells: np.ndarray) -> np.ndarray:
    """Per-sample scalar: own-cell count over the peak cell count.

    cells are the whole dataset's, from sample_cell_grids, so all outputs
    lie in (0, 1] and at least one equals 1.0.
    """
    if len(cells) == 0:
        raise EmptyInput("cannot vectorize metadata of an empty dataset")
    counts = np.bincount(cells)
    return counts[cells] / counts.max()
