"""The CLI's one failure boundary: a failed command exits 1 after one
`<command> failed at stage <stage>: <error>` line on stderr, and never
raises. Covers the guard over the source, each known failure, and a
property test over damaged input files."""

import ast
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import veclstm
from veclstm import cli
from veclstm.cli import main
from veclstm.errors import VecLstmError
from veclstm.ingest import DEFAULT_MODES, write_dataset_csv
from veclstm.metrics import REGRESSION_BASES

from conftest import corrupt, flip_bit, separable_dataset, write_small_tree

SRC = Path(veclstm.__file__).parent


@pytest.fixture
def sep_csv(tmp_path):
    path = tmp_path / "separable.csv"
    write_dataset_csv(separable_dataset(300, seed=7), path)
    return path


def _run(argv: list[str]) -> tuple[int, str]:
    """main(argv)'s exit status and stderr, after checking the contract:
    exit 0 with no failure line, or exit 1 with exactly one."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(argv)
    failures = [line for line in err.getvalue().splitlines() if " failed at stage " in line]
    assert (rc, len(failures)) in ((0, 0), (1, 1)), (rc, err.getvalue())
    if failures:
        assert failures[0].startswith(f"{argv[0]} failed at stage "), failures[0]
    return rc, err.getvalue()


# --- guard over the source ------------------------------------------------

def _handlers(module: str) -> list[tuple[str, list[str], ast.ExceptHandler]]:
    """(enclosing function, names caught, handler) of each except clause."""
    found = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            if isinstance(child, ast.ExceptHandler):
                types = [] if child.type is None else (
                    child.type.elts if isinstance(child.type, ast.Tuple) else [child.type])
                found.append((where, [ast.unparse(t) for t in types], child))
            walk(child, inner)

    walk(ast.parse((SRC / module).read_text(encoding="utf-8")), "")
    return found


def _broad(name: str, module) -> bool:
    """Whether a caught name is bare-error territory: Exception, or a
    ValueError or KeyError (or a subclass) that is not a VecLstmError."""
    caught = eval(name, vars(module))  # names as the module itself resolves them
    return caught in (Exception, BaseException) or (
        issubclass(caught, (ValueError, KeyError)) and not issubclass(caught, VecLstmError))


class TestFailureGuard:
    def test_main_is_the_one_handler_that_reports_command_failures(self):
        handlers = _handlers("cli.py")
        reporting = [(where, names) for where, names, _ in handlers
                     if {"VecLstmError", "OSError"} & set(names)]
        assert reporting == [("main", ["VecLstmError", "OSError"])]
        # Every other handler re-raises: it adds context, it hides nothing.
        for where, names, handler in handlers:
            if where != "main":
                assert isinstance(handler.body[-1], ast.Raise), (where, names)

    @pytest.mark.parametrize("module, allowed", [
        # Its JSON-decode handler turns bad JSON into a ConfigError.
        ("cli", {"load_run_config"}),
        # float(), int() and strptime reject a cell only by ValueError;
        # each of these turns it into a MalformedLine at the cell's row.
        ("ingest", {"_utc_seconds", "_FirstFailure.convert", "_scan_dataset_csv"}),
    ])
    def test_no_handler_catches_bare_errors(self, module, allowed):
        mod = getattr(veclstm, module)
        handlers = _handlers(f"{module}.py")
        assert handlers and all(names for _, names, _ in handlers), "bare except"
        broad = {where for where, names, _ in handlers
                 if any(_broad(name, mod) for name in names)}
        assert broad == allowed


# --- known failures -------------------------------------------------------

class TestKnownFailures:
    def _undecodable_user(self, tree: Path) -> None:
        data = os.fsencode(tree / "Data")
        os.rename(data + b"/001", data + b"/\xff01")

    def test_user_directory_not_utf8_is_skipped_with_a_warning(self, tmp_path):
        tree = write_small_tree(tmp_path / "geolife")
        self._undecodable_user(tree)
        out = tmp_path / "d.csv"
        rc, err = _run(["ingest", str(tree), "--out", str(out)])
        assert rc == 0
        assert f"warning: {tree}/Data/\\xff01/labels.txt: directory name b'\\xff01'" \
               " is not UTF-8" in err
        assert "UndecodableName=1" in err
        # User 000's four labeled points only.
        assert out.read_text(encoding="utf-8").count("\n") == 1 + 4

    def test_user_directory_not_utf8_fails_strict_ingest(self, tmp_path):
        tree = write_small_tree(tmp_path / "geolife")
        self._undecodable_user(tree)
        out = tmp_path / "d.csv"
        rc, err = _run(["ingest", str(tree), "--out", str(out), "--strict"])
        assert rc == 1
        assert err.strip() == (f"ingest failed at stage parsing: {tree}/Data/\\xff01/labels.txt:"
                               " directory name b'\\xff01' is not UTF-8")
        assert not out.exists()

    @pytest.mark.parametrize("damaged, line, reason", [
        ("000/Trajectory/20090310.plt", "39.9,116.3,0", "line 12: expected 7 fields, got 3"),
        ("001/labels.txt", "2009/04/01 10:00:00\ttrain",
         "line 3: expected 3 tab-separated fields, got 2"),
    ])
    def test_strict_ingest_names_the_damaged_file(self, tmp_path, damaged, line, reason):
        tree = write_small_tree(tmp_path / "geolife")
        path = tree / "Data" / damaged
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        out = tmp_path / "d.csv"
        rc, err = _run(["ingest", str(tree), "--out", str(out)])
        assert rc == 0 and f"warning: {path}: {reason}" in err
        rc, err = _run(["ingest", str(tree), "--out", str(out), "--strict"])
        assert (rc, err.strip()) == (1, f"ingest failed at stage parsing: {path}: {reason}")

    def test_ingest_into_missing_directory(self, geolife_tree, tmp_path):
        out = tmp_path / "missing" / "d.csv"
        rc, err = _run(["ingest", str(geolife_tree), "--out", str(out)])
        assert rc == 1
        assert err.startswith("ingest failed at stage dataset writing: [Errno 2]")
        assert str(out) in err

    def test_vectorize_out_dir_at_a_file_fails_before_the_store(self, sep_csv, tmp_path):
        report = tmp_path / "report"
        report.write_text("", encoding="utf-8")
        store = tmp_path / "v.vlvs"
        rc, err = _run(["vectorize", str(sep_csv), "--store", str(store),
                        "--out-dir", str(report)])
        assert rc == 1
        assert err.startswith("vectorize failed at stage configuration: [Errno 17]")
        assert not store.exists()

    def test_vectorize_without_store_fails_at_configuration(self, sep_csv, monkeypatch):
        monkeypatch.delenv(cli.STORE_ENV_VAR, raising=False)
        rc, err = _run(["vectorize", str(sep_csv)])
        assert rc == 1
        assert err.strip() == ("vectorize failed at stage configuration:"
                               " no store given (--store or $VECLSTM_STORE)")

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_grid_narrower_than_kernel_names_file_and_key(self, sep_csv, tmp_path,
                                                          monkeypatch, command):
        def untouched(*args, **kwargs):
            raise AssertionError("trained before the spec was checked")

        monkeypatch.setattr(cli, "benchmark_pipelines", untouched)
        monkeypatch.setattr(cli, "run_epochs", untouched)
        monkeypatch.setattr(cli, "train_model", untouched)
        config = tmp_path / "grid2.json"
        config.write_text(json.dumps({"vectorizer": {"grid_size": 2}}), encoding="utf-8")
        argv = [command, str(sep_csv), "--out-dir", str(tmp_path / "o"),
                "--config", str(config)]
        rc, err = _run(argv + (["--arch", "hybrid"] if command == "train" else []))
        assert rc == 1
        assert err.strip() == (
            f"{command} failed at stage configuration: conv_kernel 3 and pool_size 1 leave"
            f" no conv output on grid_size 2 ({config}: 'vectorizer.grid_size')")

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_negative_seed_fails_at_configuration(self, sep_csv, tmp_path, command):
        # numpy's generators raised a bare ValueError on it, in the split.
        argv = [command, str(sep_csv), "--out-dir", str(tmp_path / "o")]
        argv += ["--arch", "lstm"] if command == "train" else []
        rc, err = _run(argv + ["--seed", "-1"])
        assert (rc, err.strip()) == (1, f"{command} failed at stage configuration:"
                                        " seed must be >= 0")
        config = tmp_path / "seed.json"
        config.write_text(json.dumps({"train": {"seed": -1}}), encoding="utf-8")
        rc, err = _run(argv + ["--config", str(config)])
        assert (rc, err.strip()) == (1, f"{command} failed at stage configuration:"
                                        f" {config}: seed must be >= 0")

    def test_bench_empty_test_split_fails_before_training(self, sep_csv, tmp_path,
                                                          monkeypatch):
        def untouched(*args, **kwargs):
            raise AssertionError("trained on a split with no test rows")

        monkeypatch.setattr(cli, "benchmark_pipelines", untouched)
        monkeypatch.setattr(cli, "run_epochs", untouched)
        config = tmp_path / "tiny_test.json"
        config.write_text(json.dumps({"train": {"epochs": 1, "test_fraction": 0.001}}),
                          encoding="utf-8")
        rc, err = _run(["bench", str(sep_csv), "--out-dir", str(tmp_path / "o"),
                        "--config", str(config)])
        assert rc == 1
        assert err.strip() == ("bench failed at stage preprocessing: test_fraction 0.001"
                               " of 300 rows leaves no test rows")

    @pytest.mark.parametrize("command", ["train", "bench"])
    @pytest.mark.parametrize("n, fractions, reason", [
        (40, {"test_fraction": 0.999},
         "test_fraction 0.999 of 40 rows leaves 0 rows for training and validation,"
         " need at least 2"),
        (3, {"test_fraction": 0.9},
         "test_fraction 0.9 of 3 rows leaves 0 rows for training and validation,"
         " need at least 2"),
        (4, {"test_fraction": 0.2, "validation_fraction": 0.9},
         "validation_fraction 0.9 of 3 rows leaves no training rows"),
    ])
    def test_split_without_training_rows_fails_at_preprocessing(
            self, tmp_path, monkeypatch, command, n, fractions, reason):
        def untouched(*args, **kwargs):
            raise AssertionError("trained on a split with no training rows")

        for name in ("benchmark_pipelines", "run_epochs", "train_model"):
            monkeypatch.setattr(cli, name, untouched)
        dataset = tmp_path / "small.csv"
        write_dataset_csv(separable_dataset(n, seed=7), dataset)
        config = tmp_path / "split.json"
        config.write_text(json.dumps({"train": {"epochs": 1, **fractions}}), encoding="utf-8")
        argv = [command, str(dataset), "--out-dir", str(tmp_path / "o"), "--config", str(config)]
        rc, err = _run(argv + (["--arch", "lstm"] if command == "train" else []))
        assert (rc, err.strip()) == (1, f"{command} failed at stage preprocessing: {reason}")


# --- property test over damaged inputs --------------------------------------

# Values per config key: valid ones first, then ones of the wrong type or
# out of range. Sizes stay small so that no example trains long or
# allocates a large grid.
CONFIG_VALUES = {
    "train.epochs": [2, 0, "1", 1.5],
    "train.batch_size": [16, 1, 0],
    "train.learning_rate": [0.01, 1e300, 0],
    "train.test_fraction": [0.5, 0.9, 0.001, 0.999, 1.0],
    "train.validation_fraction": [0.5, 0.001, 0.999],
    "train.seed": [3, 2**70, -1],
    "vectorizer.grid_size": [3, 1, 2, 0],
    "vectorizer.missing_default": [0.0, 1.0, -0.5],
    "vectorizer.value_mode": ["density", "log"],
    "metadata_feature": ["normalized_speed", "normalized_alt", "speed"],
    "regression_basis": [*REGRESSION_BASES, "logits"],
    "lstm_output_activation": ["relu", "sigmoid"],
    "modes": [list(DEFAULT_MODES), list(DEFAULT_MODES[:3]), [1] * 7],
    "vectorizer": [[]],
    "grid_size": [10],
}

SEEDS = st.sampled_from([[], [], ["--seed", "5"], ["--seed", "-1"]])


def _config(data, workdir: Path) -> list[str]:
    """--config options: none, or a config file of one epoch that sets up
    to two more keys, its text maybe truncated."""
    if not data.draw(st.booleans()):
        return []
    doc = {"train": {"epochs": 1}}
    for key in data.draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), max_size=2)):
        *parent, name = key.split(".")
        target = doc.setdefault(parent[0], {}) if parent else doc
        if isinstance(target, dict):  # not once "vectorizer" is a list
            target[name] = data.draw(st.sampled_from(CONFIG_VALUES[key]))
    text = json.dumps(doc)
    if data.draw(st.integers(0, 4)) == 0:
        text = text[:data.draw(st.integers(0, len(text)))]
    path = workdir / "config.json"
    path.write_text(text, encoding="utf-8")
    return ["--config", str(path)]


def _damage_bytes(raw: bytes, data) -> bytes:
    """raw, maybe truncated or with one bit flipped."""
    kind = data.draw(st.sampled_from(["none", "none", "truncate", "flip"]))
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, len(raw)))]
    if kind == "flip" and raw:
        return flip_bit(raw, data.draw(st.integers(0, 8 * len(raw) - 1)))
    return raw


def _damage(path: Path, data, header_lines: int, sep: str = ",") -> None:
    """The text file at path damaged as corrupt() does, then maybe as
    _damage_bytes() does; or, half the time, left whole."""
    if data.draw(st.booleans()):
        text = corrupt(path.read_text(encoding="utf-8"), data, header_lines, sep)
        path.write_bytes(_damage_bytes(text.encode("utf-8"), data))


def _dataset_csv(data, workdir: Path) -> Path:
    path = workdir / "dataset.csv"
    write_dataset_csv(separable_dataset(40, seed=7), path)
    _damage(path, data, header_lines=1)
    return path


def _store(data, workdir: Path) -> str:
    """A store descriptor: new or existing, file or sqlite, maybe damaged
    or at a path no store can take."""
    kind = data.draw(st.sampled_from(["new", "existing", "sqlite", "no directory",
                                      "a directory"]))
    if kind == "sqlite":
        return f"sqlite:{workdir / 'v.db'}"
    if kind == "no directory":
        return str(workdir / "missing" / "v.vlvs")
    if kind == "a directory":
        return str(workdir)
    path = workdir / "v.vlvs"
    if kind == "existing":
        setup = workdir / "setup.csv"
        write_dataset_csv(separable_dataset(12, seed=5), setup)
        assert _run(["vectorize", str(setup), "--store", str(path)])[0] == 0
        path.write_bytes(_damage_bytes(path.read_bytes(), data))
    return str(path)


def _out_dir(data, workdir: Path) -> str:
    """An output directory: new, or an existing file."""
    out = workdir / "out"
    if data.draw(st.integers(0, 9)) == 0:
        out.write_text("", encoding="utf-8")
    return str(out)


def _probe(argv: list[str]) -> None:
    """_run(argv), recording its outcome (ok, or the stage it failed at)."""
    with np.errstate(all="ignore"):  # a huge learning rate overflows on purpose
        rc, err = _run(argv)
    event(f"{argv[0]} ok" if rc == 0 else err[err.index(f"{argv[0]} failed"):].partition(":")[0])


class TestDamagedInputs:
    """Each command, on damaged inputs, exits 0 or exits 1 after one
    failure line; it never raises."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_ingest(self, tmp_path_factory, data):
        with TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            workdir = Path(tmp)
            tree = write_small_tree(workdir / "geolife")
            for path in sorted(tree.rglob("*.plt")):
                _damage(path, data, header_lines=6)
            for path in sorted(tree.rglob("labels.txt")):
                _damage(path, data, header_lines=1, sep="\t")
            out = workdir / ("missing/d.csv" if data.draw(st.integers(0, 9)) == 0
                             else "d.csv")
            strict = ["--strict"] if data.draw(st.booleans()) else []
            _probe(["ingest", str(tree), "--out", str(out), *strict,
                    *_config(data, workdir)])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_vectorize(self, tmp_path_factory, data):
        with TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            workdir = Path(tmp)
            _probe(["vectorize", str(_dataset_csv(data, workdir)),
                    "--store", _store(data, workdir), "--out-dir", _out_dir(data, workdir),
                    *_config(data, workdir)])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_train(self, tmp_path_factory, data):
        with TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            workdir = Path(tmp)
            arch = data.draw(st.sampled_from(sorted(cli.ARCH_BUILDERS)))
            _probe(["train", str(_dataset_csv(data, workdir)), "--arch", arch,
                    "--out-dir", _out_dir(data, workdir), *_config(data, workdir),
                    *data.draw(SEEDS)])

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_bench(self, tmp_path_factory, data):
        with TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            workdir = Path(tmp)
            store = ["--store", _store(data, workdir)] if data.draw(st.booleans()) else []
            _probe(["bench", str(_dataset_csv(data, workdir)),
                    "--out-dir", _out_dir(data, workdir), *store, *_config(data, workdir),
                    *data.draw(SEEDS)])
