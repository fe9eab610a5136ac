"""Vectorizer tests: normalization, imputation, binning vs brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veclstm import vectorizer
from veclstm.errors import EmptyInput, LengthMismatch
from veclstm.vectorizer import (
    MISSING,
    NormalizationStats,
    VectorizationConfig,
    cell_index,
    column_bounds,
    fit_stats,
    histogram2d,
    impute_missing,
    min_max_normalize,
    normalize_column,
    sample_cell_grids,
    vectorize_metadata,
    vectorize_trajectory,
)

from _oracles import add_at_histogram, brute_force_histogram, self_fitting_vectorize_metadata


def columns(points):
    """(lat, lon) columns of a list of (lat, lon, alt) rows."""
    return np.asarray(points, dtype=np.float64).reshape(-1, 3).T[:2]


def own_cells(lat, lon, config=VectorizationConfig()):
    """Each sample's flat cell, binned against the samples' own bounds."""
    return sample_cell_grids(lat, lon, fit_stats(lat, lon), config)


def normalized(lat, lon, stats, config=VectorizationConfig()):
    """The normalized, imputed (lat, lon) columns."""
    return (normalize_column(lat, stats.bounds("lat"), config),
            normalize_column(lon, stats.bounds("lon"), config))


class TestFitStats:
    def test_basic_min_max(self):
        stats = fit_stats(*columns([(0, 0, 0), (1, 2, 3)]))
        assert stats.bounds("lat") == (0, 1)
        assert stats.bounds("lon") == (0, 2)

    def test_single_point(self):
        stats = fit_stats(*columns([(5.0, 6.0, 7.0)]))
        assert stats.bounds("lat") == (5.0, 5.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            fit_stats(*columns([]))


class TestColumnBounds:
    def test_basic_min_max(self):
        assert column_bounds(np.array([0.0, 3.0, MISSING, 1.0])) == (0.0, 3.0)

    def test_all_missing_falls_back(self):
        assert column_bounds(np.array([MISSING, MISSING])) == (0.0, 1.0)


class TestNormalize:
    def test_linear_map(self):
        assert [min_max_normalize(v, 1, 3) for v in (1, 2, 3)] == [0.0, 0.5, 1.0]

    def test_degenerate_range(self):
        assert min_max_normalize(5.0, 5, 5) == 0.0

    def test_clamping(self):
        assert min_max_normalize(4.0, 1, 3) == 1.0
        assert min_max_normalize(0.0, 1, 3) == 0.0

    def test_impute(self):
        config = VectorizationConfig()
        assert impute_missing(MISSING, config) == 0.5
        assert impute_missing(0.3, config) == 0.3
        assert impute_missing(MISSING, VectorizationConfig(missing_default=0.0)) == 0.0

    @pytest.mark.parametrize("value", [-0.5, 1.5, np.nan])
    def test_missing_default_outside_unit_range_rejected(self, value):
        # An imputed value outside [0, 1] would bin into a wrapped row.
        with pytest.raises(ValueError, match="missing_default"):
            VectorizationConfig(missing_default=value)


def column(n):
    """n floats: some missing, one constant value, or all missing."""
    return st.one_of(
        st.lists(st.one_of(st.just(MISSING), st.floats(-1e3, 1e3)), min_size=n, max_size=n),
        st.floats(-1e3, 1e3).map(lambda v: [v] * n),
        st.just([MISSING] * n))


# A (lat, lon) column pair, binned against its own fitted bounds (None:
# the extremes sit at the bounds) or against drawn (lo, hi) pairs that
# may clamp values or be degenerate.
LAT_LON = st.integers(1, 40).flatmap(lambda n: st.tuples(column(n), column(n)))
BOUNDS = st.one_of(st.none(), st.tuples(*[
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2).map(sorted) for _ in range(2)]))


def per_sample_normalized(values, bounds, config):
    """impute_missing(min_max_normalize(...)) a value at a time, as the
    bench's per-sample side computes it."""
    return np.array([impute_missing(min_max_normalize(float(v), *bounds), config)
                     for v in values], dtype=np.float64)


class TestColumnMatchesPerSample:
    """The column path the vectorized side bins with equals, bit for bit,
    the per-sample path the bench's non-vectorized side runs."""

    @staticmethod
    def stats(lat, lon, bounds):
        if bounds is None:
            return fit_stats(lat, lon)
        (lat_lo, lat_hi), (lon_lo, lon_hi) = bounds
        return NormalizationStats(lat_lo, lat_hi, lon_lo, lon_hi)

    @settings(max_examples=200, deadline=None)
    @given(cols=LAT_LON, bounds=BOUNDS, missing_default=st.sampled_from([0.0, 0.5, 1.0]))
    def test_normalize_column(self, cols, bounds, missing_default):
        lat, lon = (np.array(col, dtype=np.float64) for col in cols)
        stats = self.stats(lat, lon, bounds)
        config = VectorizationConfig(missing_default=missing_default)
        for values, dim in ((lat, "lat"), (lon, "lon")):
            # A drawn range far narrower than the values overflows to inf,
            # which both paths clamp to 1.0.
            with np.errstate(over="ignore"):
                got = normalize_column(values, stats.bounds(dim), config)
            want = per_sample_normalized(values, stats.bounds(dim), config)
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(cols=LAT_LON, bounds=BOUNDS, grid_size=st.sampled_from([1, 10, 37]),
           missing_default=st.sampled_from([0.0, 0.5, 1.0]))
    def test_sample_cell_grids(self, cols, bounds, grid_size, missing_default):
        lat, lon = (np.array(col, dtype=np.float64) for col in cols)
        stats = self.stats(lat, lon, bounds)
        config = VectorizationConfig(grid_size=grid_size, missing_default=missing_default)
        nlat = per_sample_normalized(lat, stats.bounds("lat"), config)
        nlon = per_sample_normalized(lon, stats.bounds("lon"), config)
        want = [cell_index(la, grid_size) * grid_size + cell_index(lo, grid_size)
                for la, lo in zip(nlat.tolist(), nlon.tolist())]
        with np.errstate(over="ignore"):
            cells = sample_cell_grids(lat, lon, stats, config)
        assert cells.dtype == np.int64
        assert cells.tolist() == want


class TestHistogram:
    def test_origin_point(self):
        heatmap = histogram2d([0.0], [0.0], VectorizationConfig())
        assert heatmap.grid[0, 0] == 1
        assert heatmap.grid.sum() == 1

    def test_max_point_clamps_to_last_bin(self):
        heatmap = histogram2d([1.0], [1.0], VectorizationConfig())
        assert heatmap.grid[9, 9] == 1

    def test_known_cells(self):
        lat = [0.05, 0.95, 0.5, 0.5]
        lon = [0.05, 0.95, 0.5, 0.5]
        heatmap = histogram2d(lat, lon, VectorizationConfig())
        assert heatmap.grid[0, 0] == 1
        assert heatmap.grid[9, 9] == 1
        assert heatmap.grid[5, 5] == 2
        assert heatmap.grid.sum() == 4

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            histogram2d([0.1], [0.1, 0.2], VectorizationConfig())

    def test_density_mode_sums_to_one(self):
        rng = np.random.default_rng(4)
        lat, lon = rng.uniform(size=50), rng.uniform(size=50)
        heatmap = histogram2d(lat, lon, VectorizationConfig(value_mode="density"))
        assert heatmap.grid.sum() == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 400))
    @settings(max_examples=30, deadline=None)
    def test_count_mode_matches_brute_force(self, seed, n):
        rng = np.random.default_rng(seed)
        lat, lon = rng.uniform(size=n), rng.uniform(size=n)
        heatmap = histogram2d(lat, lon, VectorizationConfig())
        expected = brute_force_histogram(lat, lon, 10)
        assert np.array_equal(heatmap.grid, expected)
        assert heatmap.grid.sum() == n

    @pytest.mark.parametrize("value_mode", ["count", "density"])
    @pytest.mark.parametrize("grid_size", [1, 10, 37])
    def test_matches_add_at_scatter(self, grid_size, value_mode):
        # Edges 0.0 and 1.0, and missing values imputed at the edges and
        # in between, binned as the (row, column) np.add.at scatter did.
        rng = np.random.default_rng(grid_size)
        lat = np.concatenate(([0.0, 1.0, np.nan, 0.0, 1.0], rng.uniform(size=300)))
        lon = np.concatenate(([1.0, 0.0, 0.0, np.nan, np.nan], rng.uniform(size=300)))
        lat[rng.choice(lat.size, 30)] = np.nan
        stats = fit_stats(lat, lon)
        for missing_default in (0.0, 0.5, 1.0):
            config = VectorizationConfig(grid_size, missing_default, value_mode)
            norm_lat, norm_lon = normalized(lat, lon, stats, config)
            grid = histogram2d(norm_lat, norm_lon, config).grid
            want = add_at_histogram(norm_lat, norm_lon, grid_size, value_mode)
            assert grid.dtype == np.float64
            assert np.array_equal(grid, want)


class TestVectorizeTrajectory:
    def test_single_point(self):
        vec = vectorize_trajectory([(39.9, 116.4, 50.0)])
        assert vec.shape == (100,)
        assert vec.sum() == 1
        # a degenerate one-point range normalizes to 0 -> cell (0, 0)
        assert vec[0] == 1

    def test_thousand_points_match_oracle(self):
        rng = np.random.default_rng(123)
        points = [(la, lo, al) for la, lo, al in zip(
            rng.uniform(30, 40, 1000), rng.uniform(110, 120, 1000),
            rng.uniform(0, 100, 1000))]
        vec = vectorize_trajectory(points)
        assert vec.sum() == 1000
        arr = np.asarray(points)
        stats = fit_stats(*columns(points))
        norm_lat, norm_lon = normalized(arr[:, 0], arr[:, 1], stats)
        expected = brute_force_histogram(norm_lat, norm_lon, 10).reshape(-1)
        assert np.array_equal(vec, expected)

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        points = [(la, lo, 0.0) for la, lo in zip(
            rng.uniform(0, 1, 200), rng.uniform(0, 1, 200))]
        shifted = [(la + 3.25, lo - 7.5, 0.0) for la, lo, _ in points]
        assert np.array_equal(vectorize_trajectory(points),
                              vectorize_trajectory(shifted))

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        points = [(la, lo, al) for la, lo, al in rng.uniform(size=(50, 3))]
        a = vectorize_trajectory(points)
        b = vectorize_trajectory(points)
        assert np.array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            vectorize_trajectory([])


class TestVectorizeMetadata:
    def test_single_cell_all_ones(self):
        points = [(0.5, 0.5, 0.0)] * 5
        assert vectorize_metadata(own_cells(*columns(points))).tolist() == [1.0] * 5

    def test_two_cell_ratio(self):
        # 4 points in one cell, 2 in another: scalars 1.0 and 0.5
        points = [(0.05, 0.05, 0.0)] * 4 + [(0.95, 0.95, 0.0)] * 2
        scalars = vectorize_metadata(own_cells(*columns(points))).tolist()
        assert scalars[:4] == [1.0] * 4
        assert scalars[4:] == [0.5] * 2

    def test_random_case_matches_oracle(self):
        rng = np.random.default_rng(55)
        points = [(la, lo, 0.0) for la, lo in zip(
            rng.uniform(size=200), rng.uniform(size=200))]
        scalars = vectorize_metadata(own_cells(*columns(points))).tolist()
        arr = np.asarray(points)
        stats = fit_stats(*columns(points))
        norm_lat, norm_lon = normalized(arr[:, 0], arr[:, 1], stats)
        grid = brute_force_histogram(norm_lat, norm_lon, 10)
        peak = grid.max()
        for scalar, la, lo in zip(scalars, norm_lat, norm_lon):
            row = min(int(la * 10), 9)
            col = min(int(lo * 10), 9)
            assert abs(scalar - grid[row, col] / peak) < 1e-12

    def test_range_and_peak(self):
        rng = np.random.default_rng(77)
        points = [(la, lo, 0.0) for la, lo in zip(
            rng.uniform(size=80), rng.uniform(size=80))]
        scalars = vectorize_metadata(own_cells(*columns(points))).tolist()
        assert all(0 < s <= 1.0 for s in scalars)
        assert max(scalars) == 1.0

    def test_no_cells_rejected(self):
        with pytest.raises(EmptyInput):
            vectorize_metadata(np.zeros(0, dtype=np.int64))

    def test_reads_the_cells_it_is_given(self, monkeypatch):
        # The caller fits the stats and bins once; the feature does neither.
        def unused(*args):
            raise AssertionError("vectorize_metadata refit or renormalized")

        cells = np.array([3, 3, 7, 3, 7, 0])
        monkeypatch.setattr(vectorizer, "fit_stats", unused)
        monkeypatch.setattr(vectorizer, "normalize_column", unused)
        assert vectorize_metadata(cells).tolist() == [1.0, 1.0, 2 / 3, 1.0, 2 / 3, 1 / 3]

    @settings(max_examples=200, deadline=None)
    @given(cols=st.integers(1, 40).flatmap(lambda n: st.tuples(*[st.one_of(
               st.lists(st.one_of(st.just(MISSING), st.floats(-1e3, 1e3)),
                        min_size=n, max_size=n),
               st.floats(-1e3, 1e3).map(lambda v: [v] * n),  # a constant column
               st.just([MISSING] * n)) for _ in range(2)])),
           grid_size=st.sampled_from([1, 10, 37]), missing_default=st.sampled_from([0.0, 1.0]))
    def test_composition_matches_the_self_fitting_oracle(self, cols, grid_size,
                                                         missing_default):
        lat, lon = (np.array(col, dtype=np.float64) for col in cols)
        config = VectorizationConfig(grid_size=grid_size, missing_default=missing_default)
        got = vectorize_metadata(own_cells(lat, lon, config))
        want = self_fitting_vectorize_metadata(lat, lon, config)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestSampleCellGrids:
    def test_one_hot_per_sample(self):
        lat = np.array([0.0, 10.0])
        lon = np.array([0.0, 10.0])
        stats = fit_stats(*columns([(0, 0, 0), (10, 10, 0)]))
        cells = sample_cell_grids(lat, lon, stats)
        # one flat index r * G + c per sample: the 1 of its one-hot grid
        assert cells.dtype == np.int64 and cells.shape == (2,)
        assert cells.tolist() == [0 * 10 + 0, 9 * 10 + 9]
