"""Each command fits the lat and lon bounds only where it bins points, and
an altitude bound only for the normalized_alt metadata feature; a Dataset
holds its seven columns and fits its stats at their first read."""

import dataclasses
import json

import numpy as np
import pytest

from veclstm import ingest, trainer, vectorizer
from veclstm.cli import main
from veclstm.ingest import DATASET_COLUMNS, Dataset, build_dataset, write_dataset_csv
from veclstm.vectorizer import NormalizationStats, VectorizationConfig

from conftest import separable_dataset


@pytest.fixture
def fits(monkeypatch):
    """The bounds fits made, by function, with what each returned: every
    name under which a module imports fit_stats or column_bounds, and
    fit_stats where it is defined, is wrapped."""
    made = {"fit_stats": [], "column_bounds": []}
    for module, name in ((ingest, "fit_stats"), (trainer, "fit_stats"),
                         (vectorizer, "fit_stats"), (ingest, "column_bounds")):
        def counted(*args, real=getattr(module, name), name=name):
            made[name].append(real(*args))
            return made[name][-1]
        monkeypatch.setattr(module, name, counted)
    return made


def counts(made):
    return {name: len(results) for name, results in made.items()}


@pytest.fixture
def dataset_csv(tmp_path):
    path = tmp_path / "separable.csv"
    write_dataset_csv(separable_dataset(300, seed=7), path)
    return path


def config_file(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("arch, want", [("lstm", 0), ("veclstm", 0), ("hybrid", 1)])
def test_train_fits_bounds_only_to_bin_cells(fits, dataset_csv, tmp_path, arch, want):
    config = config_file(tmp_path, {"train": {"epochs": 1, "batch_size": 64}})
    assert main(["train", str(dataset_csv), "--arch", arch, "--config", config,
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert counts(fits) == {"fit_stats": want, "column_bounds": 0}


def test_vectorize_fits_bounds_once_for_every_group(fits, dataset_csv, tmp_path):
    assert main(["vectorize", str(dataset_csv), "--store", str(tmp_path / "v.vlvs")]) == 0
    assert counts(fits) == {"fit_stats": 1, "column_bounds": 0}


@pytest.mark.parametrize("feature, want", [
    ("cell_density", {"fit_stats": 1, "column_bounds": 0}),
    ("normalized_speed", {"fit_stats": 0, "column_bounds": 0}),
    ("normalized_alt", {"fit_stats": 0, "column_bounds": 1}),
])
def test_ingest_fits_only_the_bounds_its_feature_reads(fits, geolife_tree, tmp_path,
                                                       feature, want):
    config = config_file(tmp_path, {"metadata_feature": feature})
    assert main(["ingest", str(geolife_tree), "--out", str(tmp_path / "d.csv"),
                 "--config", config]) == 0
    assert counts(fits) == want


def test_normalized_alt_of_an_all_missing_altitude_takes_0_1(fits):
    n = 5
    config = VectorizationConfig(missing_default=0.25)
    dataset = build_dataset(
        np.arange(n, dtype=np.int64), np.linspace(39.9, 40.0, n), np.linspace(116.3, 116.4, n),
        np.full(n, np.nan), np.zeros(n, dtype=np.int64), np.array(["u"] * n, dtype=object),
        config, "normalized_alt")
    assert fits["column_bounds"] == [(0.0, 1.0)]
    assert dataset.metadata.tolist() == [0.25] * n


def test_dataset_is_its_columns_and_fits_stats_at_first_read(fits):
    assert tuple(f.name for f in dataclasses.fields(Dataset)) == DATASET_COLUMNS
    assert [f.name for f in dataclasses.fields(NormalizationStats)] == [
        "lat_min", "lat_max", "lon_min", "lon_max"]
    dataset = separable_dataset(60, seed=2)
    assert counts(fits)["fit_stats"] == 0
    stats = dataset.stats
    assert dataset.stats is stats and counts(fits)["fit_stats"] == 1
    assert stats == NormalizationStats(dataset.lat.min(), dataset.lat.max(),
                                       dataset.lon.min(), dataset.lon.max())
