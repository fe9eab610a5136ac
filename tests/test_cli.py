"""End-to-end CLI tests over synthetic fixtures."""

import csv
import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from veclstm import cli
from veclstm.cli import (ARCH_BUILDERS, RunConfig, load_run_config, main,
                         prepare_splits, split_rows)
from veclstm.errors import ConfigError
from veclstm.ingest import read_dataset_csv, write_dataset_csv
from veclstm.neuralnet import load_checkpoint
from veclstm.trainer import TrainConfig, predict
from veclstm.vecstore import open_store
from veclstm.vectorizer import VectorizationConfig, vectorize_trajectory

from _oracles import tuple_prepare_splits
from conftest import labels_text, separable_dataset

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.generator import write_geolife_tree  # noqa: E402
from perfbench.workloads import TRAIN_TREE  # noqa: E402


@pytest.fixture
def sep_csv(tmp_path):
    path = tmp_path / "separable.csv"
    write_dataset_csv(separable_dataset(300, seed=7), path)
    return path


@pytest.fixture
def train_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "train": {"epochs": 20, "batch_size": 32, "learning_rate": 0.01, "seed": 3},
    }), encoding="utf-8")
    return path


class TestConfig:
    @pytest.mark.parametrize("text", [
        '{"train": {"epochs": 3,}',                      # invalid JSON
        '{"metdata_feature": "cell_density"}',           # unknown top-level key
        '{"vectorizer": {"grid": 12}}',                  # unknown nested key
        '{"train": {"epochs": "3"}}',                    # wrong type
        '{"modes": ["walk", "bike", "bus"]}',            # not 7 modes
        '{"lstm_output_activation": "sigmoid"}',         # unknown activation
        '{"regression_basis": "probs"}',                 # unknown basis
        '{"metadata_feature": "nope"}',                  # unknown feature
        '{"vectorizer": {"missing_default": -0.5}}',     # imputes below the grid
        '{"vectorizer": {"missing_default": 1.5}}',      # imputes above the grid
        '{"vectorizer": {"missing_default": NaN}}',      # json.loads parses NaN
    ], ids=["invalid_json", "unknown_key", "unknown_nested_key", "wrong_type",
            "six_modes_short", "unknown_activation", "unknown_basis",
            "unknown_feature", "missing_default_below", "missing_default_above",
            "missing_default_nan"])
    def test_bad_config_names_its_path(self, sep_csv, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        rc = main(["train", str(sep_csv), "--arch", "lstm",
                   "--out-dir", str(tmp_path / "o"), "--config", str(path)])
        assert rc == 1
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("learning_rate", 0.0), ("beta1", 1.0), ("beta2", -0.1),
        ("epsilon", 0.0),
    ])
    def test_out_of_range_optimizer_setting_names_path_and_field(
            self, sep_csv, tmp_path, capsys, field, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {field: value}}), encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {field} must be")):
            load_run_config(str(path), None)
        rc = main(["train", str(sep_csv), "--arch", "lstm",
                   "--out-dir", str(tmp_path / "o"), "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(path) in err and field in err

    @pytest.mark.parametrize("make", [
        lambda: TrainConfig(epochs=0),
        lambda: VectorizationConfig(grid_size=0),
        lambda: RunConfig(modes=("walk",)),
        lambda: RunConfig(regression_basis="probs"),
    ], ids=["train", "vectorizer", "run_modes", "run_basis"])
    def test_config_classes_raise_config_error(self, make):
        with pytest.raises(ConfigError):
            make()

    def test_hybrid_grid_narrower_than_kernel_fails_at_configuration(
            self, sep_csv, tmp_path, capsys):
        # It used to load and split the data, then fail in training with
        # "input length 2 < kernel width 3". The LSTM stacks ignore the grid.
        path = tmp_path / "grid2.json"
        path.write_text(json.dumps({"vectorizer": {"grid_size": 2},
                                    "train": {"epochs": 1}}), encoding="utf-8")
        args = [str(sep_csv), "--config", str(path), "--out-dir"]
        assert main(["train", *args, str(tmp_path / "h"), "--arch", "hybrid"]) == 1
        assert "stage configuration: conv_kernel 3" in capsys.readouterr().err
        assert main(["train", *args, str(tmp_path / "l"), "--arch", "lstm"]) == 0

    def test_every_documented_key_loads(self, tmp_path):
        doc = RunConfig().to_dict()
        doc["train"]["learning_rate"] = 1  # an int where a float is expected
        path = tmp_path / "full.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert load_run_config(str(path), None).to_dict() == doc


class TestIngest:
    def test_fixture_counts(self, geolife_tree, tmp_path, capsys):
        out = tmp_path / "dataset.csv"
        assert main(["ingest", str(geolife_tree), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "rows=7" in printed
        dataset = read_dataset_csv(out)
        assert len(dataset) == 7

    def test_empty_labels_everywhere(self, geolife_tree, tmp_path, capsys):
        for user in ("000", "001"):
            (geolife_tree / "Data" / user / "labels.txt").write_text(
                labels_text([]), encoding="utf-8")
        out = tmp_path / "empty.csv"
        assert main(["ingest", str(geolife_tree), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "rows=0" in captured.out
        assert "warning" in captured.err
        assert out.read_text().startswith("time,lat,lon,alt,label,user,metadata")

    def test_strict_fails_on_malformed(self, geolife_tree, tmp_path):
        bad = geolife_tree / "Data" / "000" / "Trajectory" / "bad.plt"
        bad.write_text("x\n", encoding="utf-8")
        out = tmp_path / "d.csv"
        assert main(["ingest", str(geolife_tree), "--out", str(out),
                     "--strict"]) == 1
        assert main(["ingest", str(geolife_tree), "--out", str(out)]) == 0

    def test_missing_tree(self, tmp_path):
        assert main(["ingest", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "d.csv")]) == 1


class TestVectorize:
    def test_groups_stored(self, geolife_tree, tmp_path, capsys):
        dataset_csv = tmp_path / "d.csv"
        main(["ingest", str(geolife_tree), "--out", str(dataset_csv)])
        store_path = tmp_path / "vectors.vlvs"
        rc = main(["vectorize", str(dataset_csv), "--store", str(store_path)])
        assert rc == 0
        printed = capsys.readouterr().out
        # fixture has trajectory groups (000,walk), (000,bus), (001,train)
        assert "groups=3" in printed
        assert "vectorize_seconds=" in printed
        with open_store(str(store_path)) as store:
            assert store.count() == 3
            # each group's heatmap counts its points
            totals = sorted(r.vector.sum() for r in store.fetch())
            assert totals == [1.0, 3.0, 3.0]

    def test_records_follow_sorted_group_order(self, tmp_path):
        # Record ids follow the sorted (user, label) order; each vector is
        # its group's heatmap against the dataset-wide bounds.
        dataset = separable_dataset(60, seed=5)
        dataset.user = np.array(["b", "a", "a"] * 20, dtype=object)
        dataset_csv = tmp_path / "d.csv"
        write_dataset_csv(dataset, dataset_csv)
        store_path = tmp_path / "v.vlvs"
        assert main(["vectorize", str(dataset_csv), "--store", str(store_path)]) == 0
        with open_store(str(store_path)) as store:
            records = sorted(store.fetch(), key=lambda r: r.record_id)
        keys = sorted(set(zip(dataset.user.tolist(), dataset.label.tolist())))
        assert [(r.user, r.label) for r in records] == keys
        for record, (user, label) in zip(records, keys):
            rows = (dataset.user == user) & (dataset.label == label)
            coords = list(zip(dataset.lat[rows], dataset.lon[rows], dataset.alt[rows]))
            expected = vectorize_trajectory(coords, stats=dataset.stats)
            assert np.array_equal(record.vector, expected.astype("<f4"))

    def test_store_from_environment(self, geolife_tree, tmp_path, monkeypatch,
                                    capsys):
        dataset_csv = tmp_path / "d.csv"
        main(["ingest", str(geolife_tree), "--out", str(dataset_csv)])
        store_path = tmp_path / "env.vlvs"
        monkeypatch.setenv("VECLSTM_STORE", str(store_path))
        assert main(["vectorize", str(dataset_csv)]) == 0
        assert store_path.exists()

    def test_latitude_out_of_range_is_reported(self, tmp_path, capsys):
        dataset = separable_dataset(10, seed=5)
        dataset.lat[1] = np.inf  # the third record, after the header
        dataset_csv = tmp_path / "d.csv"
        write_dataset_csv(dataset, dataset_csv)
        rc = main(["vectorize", str(dataset_csv), "--store", str(tmp_path / "v.vlvs")])
        assert rc == 1
        assert capsys.readouterr().err.strip() == (
            "vectorize failed at stage dataset load: line 3: latitude inf out of range")

    def test_no_store_given(self, sep_csv, monkeypatch):
        monkeypatch.delenv("VECLSTM_STORE", raising=False)
        assert main(["vectorize", str(sep_csv)]) == 1

    def test_sqlite_store(self, sep_csv, tmp_path):
        descriptor = f"sqlite:{tmp_path}/vec.db"
        assert main(["vectorize", str(sep_csv), "--store", descriptor]) == 0
        with open_store(descriptor) as store:
            assert store.count() == 3  # one (user, label) group per class

    def test_report_written(self, sep_csv, tmp_path):
        rc = main(["vectorize", str(sep_csv),
                   "--store", str(tmp_path / "v.vlvs"),
                   "--out-dir", str(tmp_path / "rep")])
        assert rc == 0
        doc = json.loads((tmp_path / "rep" / "vectorize_report.json").read_text())
        assert doc["groups"] == 3
        assert doc["vectorize_seconds"] >= 0
        assert "config" in doc


class TestSplit:
    # Classes of 150, 90 and 60 rows: oversampling adds training rows.
    @pytest.fixture
    def dataset(self):
        return separable_dataset(300, seed=7)

    def test_rows_partition_and_classes_balance(self, dataset):
        n = len(dataset)
        (train_rows, y_train), (val_rows, y_val), (test_rows, y_test) = split_rows(
            dataset.label, TrainConfig(seed=4))
        for rows, y in ((train_rows, y_train), (val_rows, y_val), (test_rows, y_test)):
            assert np.array_equal(dataset.label[rows], y)
        assert test_rows.size == round(n * 0.2)
        assert val_rows.size == round((n - test_rows.size) * 0.1)
        assert np.intersect1d(val_rows, test_rows).size == 0
        # Oversampling keeps the original rows first and draws only from them.
        originals = train_rows[:n - val_rows.size - test_rows.size]
        assert np.array_equal(np.sort(np.concatenate([originals, val_rows, test_rows])),
                              np.arange(n))
        assert train_rows.size > originals.size
        assert np.isin(train_rows, originals).all()
        _, counts = np.unique(y_train, return_counts=True)
        assert counts.size == 3 and (counts == counts[0]).all()

    def test_hybrid_splits_hold_cell_indices_not_grids(self):
        # One (10, 10) float64 grid per row would be 800 B, so the splits
        # of 100k rows (~130k after oversampling) would take over 100 MB.
        dataset = separable_dataset(100_000, seed=8)
        spec = ARCH_BUILDERS["hybrid"](n_features=1, seed=4)
        tracemalloc.start()
        try:
            prepare_splits(dataset, spec, RunConfig(train=TrainConfig(seed=4)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 30e6

    @pytest.mark.parametrize("arch", ["veclstm", "hybrid"])
    def test_prepare_splits_labels_are_class_codes(self, dataset, arch):
        config = RunConfig(train=TrainConfig(seed=4))
        data = prepare_splits(dataset, ARCH_BUILDERS[arch](n_features=1, seed=4), config).data
        (train_rows, _), (val_rows, _), _ = split_rows(dataset.label, config.train)
        for codes, rows in ((data.y_train, train_rows), (data.y_val, val_rows)):
            assert codes.dtype == np.int64 and codes.shape == rows.shape
            assert np.array_equal(codes, dataset.label[rows])

    @pytest.mark.parametrize("arch", ["veclstm", "hybrid"])
    def test_prepare_splits_matches_tuple_oracle(self, dataset, arch):
        config = RunConfig(train=TrainConfig(seed=4))
        spec = ARCH_BUILDERS[arch](n_features=1, seed=4)
        got = prepare_splits(dataset, spec, config)
        want = tuple_prepare_splits(dataset, spec, config)

        def parts(x):
            return x if isinstance(x, tuple) else (x,)

        pairs = [(got.data.y_train, want.data.y_train), (got.data.y_val, want.data.y_val),
                 (got.y_test_codes, want.y_test_codes)]
        for x_got, x_want in ((got.data.x_train, want.data.x_train),
                              (got.data.x_val, want.data.x_val),
                              (got.x_test, want.x_test)):
            assert len(parts(x_got)) == len(parts(x_want)) == (2 if arch == "hybrid" else 1)
            pairs += zip(parts(x_got), parts(x_want))
        for a, b in pairs:
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestTrain:
    def test_hybrid_reaches_90_pct_on_separable_fixture(self, sep_csv, tmp_path,
                                                        train_config):
        out_dir = tmp_path / "hybrid"
        rc = main(["train", str(sep_csv), "--arch", "hybrid",
                   "--out-dir", str(out_dir), "--config", str(train_config)])
        assert rc == 0
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert doc["metrics"]["accuracy"] >= 0.9
        for name in ("train_report.json", "confusion.csv", "model.vlnn",
                     "model_spec.json", "roc_micro.csv"):
            assert (out_dir / name).exists(), name

    @pytest.mark.parametrize("arch", ["veclstm", "hybrid"])
    def test_empty_test_split_fails_with_a_typed_error(self, sep_csv, tmp_path, capsys,
                                                       arch):
        # round(300 * 0.001) = 0 test rows: the split says so before
        # training, rather than scoring nothing after it.
        config = tmp_path / "tiny_test.json"
        config.write_text(json.dumps({"train": {"epochs": 1, "test_fraction": 0.001}}),
                          encoding="utf-8")
        rc = main(["train", str(sep_csv), "--arch", arch,
                   "--out-dir", str(tmp_path / arch), "--config", str(config)])
        assert rc == 1
        assert "train failed at stage preprocessing: test_fraction 0.001 of 300 rows" \
            in capsys.readouterr().err

    def test_unknown_arch_is_usage_error(self, sep_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", str(sep_csv), "--arch", "transformer",
                  "--out-dir", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_same_seed_identical_metrics_json(self, sep_csv, tmp_path,
                                              train_config):
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            rc = main(["train", str(sep_csv), "--arch", "veclstm",
                       "--out-dir", str(out_dir), "--config", str(train_config),
                       "--seed", "12"])
            assert rc == 0
            outputs.append((out_dir / "metrics.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_report_embeds_config_and_seed(self, sep_csv, tmp_path, train_config):
        out_dir = tmp_path / "echo"
        main(["train", str(sep_csv), "--arch", "lstm",
              "--out-dir", str(out_dir), "--config", str(train_config)])
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert doc["seed"] == 3
        assert doc["config"]["train"]["epochs"] == 20
        assert doc["config"]["train"]["batch_size"] == 32
        report = json.loads((out_dir / "train_report.json").read_text())
        assert report["config"] == doc["config"]
        assert report["report"]["train_seconds"] > 0

    def test_missing_dataset_fails_with_stage(self, tmp_path, capsys):
        rc = main(["train", str(tmp_path / "none.csv"), "--arch", "lstm",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert "dataset load" in capsys.readouterr().err

    def test_checkpoint_loads_back(self, sep_csv, tmp_path, train_config):
        out_dir = tmp_path / "ck"
        main(["train", str(sep_csv), "--arch", "lstm",
              "--out-dir", str(out_dir), "--config", str(train_config)])
        blocks = load_checkpoint(out_dir / "model.vlnn")
        assert sum(b.size for b in blocks.values()) == 71_357

    @pytest.mark.parametrize("arch", ["veclstm", "hybrid"])
    def test_checkpoint_reproduces_test_predictions(self, sep_csv, tmp_path, monkeypatch,
                                                    arch):
        # The checkpoint stores float32 values and predict runs the model
        # on a float32 copy of its parameters, so the blocks read back give
        # the in-process float64 master weights' probabilities bit for bit.
        seen = {}
        for name in ("prepare_splits", "train_model"):
            def keep(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                seen[_name] = (args, _fn(*args, **kwargs))
                return seen[_name][1]
            monkeypatch.setattr(cli, name, keep)
        config = tmp_path / "short.json"
        config.write_text(json.dumps({"train": {"epochs": 2, "batch_size": 32,
                                                "learning_rate": 0.01, "seed": 3}}))
        out_dir = tmp_path / arch
        assert main(["train", str(sep_csv), "--arch", arch, "--out-dir", str(out_dir),
                     "--config", str(config)]) == 0
        (spec, _, _), (params, _) = seen["train_model"]
        x_test = seen["prepare_splits"][1].x_test
        blocks = load_checkpoint(out_dir / "model.vlnn")
        assert blocks.keys() == params.keys()
        assert all(b.dtype == np.float64 for b in blocks.values())
        assert not all(np.array_equal(blocks[k], params[k]) for k in params)
        want = predict(spec, params, x_test)
        assert np.array_equal(predict(spec, blocks, x_test), want)


class TestBench:
    def test_csv_schema_and_json_twin(self, sep_csv, tmp_path, train_config):
        out_dir = tmp_path / "bench"
        rc = main(["bench", str(sep_csv), "--out-dir", str(out_dir),
                   "--config", str(train_config)])
        assert rc == 0
        with open(out_dir / "bench.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["variant"] for r in rows] == \
            ["lstm_novec", "veclstm_vec", "hybrid_vec"]
        assert set(rows[0]) == {"variant", "train_seconds", "vectorize_seconds",
                                "val_acc", "test_acc", "weighted_f1",
                                "rmse", "mae", "mse"}

        doc = json.loads((out_dir / "bench.json").read_text())
        t_novec = float(rows[0]["train_seconds"])
        t_vec = float(rows[1]["train_seconds"])
        recomputed = 100.0 * (t_novec - t_vec) / t_novec
        assert doc["reduction_pct"] == pytest.approx(recomputed, abs=1e-9)
        assert doc["config"]["train"]["seed"] == 3

    def test_store_workload_section(self, sep_csv, tmp_path, train_config):
        out_dir = tmp_path / "bench_store"
        rc = main(["bench", str(sep_csv), "--out-dir", str(out_dir),
                   "--config", str(train_config),
                   "--store", str(tmp_path / "bench.vlvs")])
        assert rc == 0
        doc = json.loads((out_dir / "bench.json").read_text())
        workload = doc["store_bench"]
        assert workload["records_inserted"] == workload["records_fetched"] == 3
        assert workload["insert_seconds"] >= 0
        assert workload["fetch_seconds"] >= 0
        assert "workload" in workload

    def test_empty_validation_split_writes_null(self, tmp_path):
        data_csv = tmp_path / "small.csv"
        write_dataset_csv(separable_dataset(12, seed=7), data_csv)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {
            "epochs": 1, "batch_size": 4, "validation_fraction": 0.01, "seed": 3}}))
        out_dir = tmp_path / "bench"
        rc = main(["bench", str(data_csv), "--out-dir", str(out_dir),
                   "--config", str(config)])
        assert rc == 0

        def reject(name):
            raise ValueError(f"bench.json holds {name}")

        doc = json.loads((out_dir / "bench.json").read_text(), parse_constant=reject)
        assert [row["val_acc"] for row in doc["rows"]] == [None] * 3
        with open(out_dir / "bench.csv", newline="") as fh:
            assert [row["val_acc"] for row in csv.DictReader(fh)] == [""] * 3

    def test_json_records_the_settings_it_trained_with(self, sep_csv, tmp_path):
        # The bench trains tanh specs on the cell-density feature whatever
        # the config names; bench.json used to record the configured names.
        train = {"epochs": 2, "batch_size": 32, "learning_rate": 0.01, "seed": 3}
        docs, scores = [], []
        for name, extra in (("default", {}), ("other", {
                "lstm_output_activation": "relu", "metadata_feature": "normalized_alt"})):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"train": train, **extra}), encoding="utf-8")
            out_dir = tmp_path / name
            assert main(["bench", str(sep_csv), "--out-dir", str(out_dir),
                         "--config", str(config)]) == 0
            doc = json.loads((out_dir / "bench.json").read_text())
            docs.append(doc["config"])
            scores.append([{k: v for k, v in row.items() if not k.endswith("seconds")}
                           for row in doc["rows"]])
        assert docs[1]["lstm_output_activation"] == "tanh"
        assert docs[1]["metadata_feature"] == "cell_density"
        assert docs[0] == docs[1]
        assert scores[0] == scores[1]

    def test_vec_and_novec_pair_learn_identically(self, sep_csv, tmp_path,
                                                  train_config):
        # identical seed and identical feature math: accuracy must agree
        out_dir = tmp_path / "pair"
        main(["bench", str(sep_csv), "--out-dir", str(out_dir),
              "--config", str(train_config)])
        doc = json.loads((out_dir / "bench.json").read_text())
        by_name = {r["variant"]: r for r in doc["rows"]}
        assert by_name["lstm_novec"]["test_acc"] == \
            pytest.approx(by_name["veclstm_vec"]["test_acc"], abs=1e-9)

    @pytest.mark.parametrize("grid", [5, 20])
    def test_hybrid_trains_on_the_configured_grid(self, tmp_path, monkeypatch, grid):
        # The benchmark's training tree: 24,000 points of 8 users.
        write_geolife_tree(tmp_path / "geolife", 3, TRAIN_TREE)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"vectorizer": {"grid_size": grid},
                                      "train": {"epochs": 1, "seed": 3}}))
        data_csv = tmp_path / "dataset.csv"
        assert main(["ingest", str(tmp_path / "geolife"), "--out", str(data_csv),
                     "--config", str(config)]) == 0
        trained = []

        def recording(spec, params, batch_features, *rest):
            if spec.has_grid_branch:
                _, cells = batch_features(slice(None))
                trained.append((spec.grid_size, int(cells.min()), int(cells.max())))
            return run_epochs(spec, params, batch_features, *rest)

        run_epochs = cli.run_epochs
        monkeypatch.setattr(cli, "run_epochs", recording)
        assert main(["bench", str(data_csv), "--out-dir", str(tmp_path / "bench"),
                     "--config", str(config)]) == 0
        ((spec_grid, low, high),) = trained
        assert spec_grid == grid
        assert 0 <= low <= high < grid * grid
