"""Command-line entry point wiring the pipeline end to end.

Subcommands:
    ingest     GeoLife tree -> 7-column dataset CSV
    vectorize  dataset CSV -> heatmap records in a vector store
    train      dataset CSV -> trained model + metrics/ROC/report files
    bench      dataset CSV -> per-variant timing and metrics tables

Every report embeds the effective configuration and seed, so a report
suffices to reproduce its run. Timing values live only in files whose
name says so; metrics.json is byte-identical across same-seed runs.

Exit status is 0 on success and 2 on a usage error. A failed command
exits 1 after one line on stderr, `<command> failed at stage <stage>:
<error>`: each command records its stage on args.stage and lets
VecLstmError and OSError propagate to main, the one place that reports
them.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import ingest as ingest_mod
from . import metrics as metrics_mod
from .errors import ConfigError, TooFewSamples, VecLstmError
from .models import (
    HYBRID,
    LSTM_OUTPUT_ACTIVATIONS,
    ModelSpec,
    build_hybrid,
    build_lstm_stack,
    build_veclstm,
    init_model_params,
)
from .neuralnet import save_checkpoint
from .trainer import (
    TrainConfig,
    TrainData,
    StandardScaler,
    benchmark_pipelines,
    evaluate_loss,
    predict,
    random_oversample,
    run_epochs,
    train_model,
    train_test_split,
)
from .vecstore import VectorRecord, open_store
from .vectorizer import (
    VectorizationConfig,
    sample_cell_grids,
    vectorize_trajectory,
)

STORE_ENV_VAR = "VECLSTM_STORE"

ARCH_BUILDERS = {
    "lstm": build_lstm_stack,
    "veclstm": build_veclstm,
    "hybrid": build_hybrid,
}

BENCH_COLUMNS = (
    "variant", "train_seconds", "vectorize_seconds", "val_acc", "test_acc",
    "weighted_f1", "rmse", "mae", "mse",
)


@dataclass
class RunConfig:
    train: TrainConfig = field(default_factory=TrainConfig)
    vectorizer: VectorizationConfig = field(default_factory=VectorizationConfig)
    metadata_feature: str = "cell_density"
    regression_basis: str = "class_codes"
    lstm_output_activation: str = "tanh"
    modes: tuple[str, ...] = ingest_mod.DEFAULT_MODES

    def __post_init__(self):
        self.modes = tuple(self.modes)
        if len(self.modes) != 7 or not all(isinstance(m, str) for m in self.modes):
            raise ConfigError("modes must list exactly 7 transportation modes")
        for name, allowed in (("metadata_feature", ingest_mod.METADATA_FEATURES),
                              ("regression_basis", metrics_mod.REGRESSION_BASES),
                              ("lstm_output_activation", LSTM_OUTPUT_ACTIVATIONS)):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {', '.join(allowed)},"
                                  f" got {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return {**asdict(self), "modes": list(self.modes)}


def _check_keys(doc, defaults: dict, path: str, where: str = "") -> None:
    """Every key of doc must be in defaults, with a value of the default's
    JSON type (an int will do for a float, a bool never for an int);
    nested objects are checked the same way."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: {where or 'config '}must be a JSON object")
    for key, value in doc.items():
        if key not in defaults:
            raise ConfigError(f"{path}: unknown key '{where}{key}'")
        default = defaults[key]
        expected = (int, float) if isinstance(default, float) else type(default)
        if isinstance(value, bool) or not isinstance(value, expected):
            raise ConfigError(f"{path}: '{where}{key}' must be"
                              f" {type(default).__name__}, got {json.dumps(value)}")
        if isinstance(default, dict):
            _check_keys(value, default, path, f"{where}{key}.")


def load_run_config(path: str | None, seed: int | None) -> RunConfig:
    """Defaults, overridden by the JSON file at path, then by seed (>= 0).

    Invalid JSON, an unknown key at any level, a value of the wrong type
    or out of range, a metadata feature, regression basis or LSTM output
    activation that its module does not know, and a modes list without
    7 names raise ConfigError naming the path.
    """
    doc = {}
    if path:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    _check_keys(doc, RunConfig().to_dict(), path)
    top = {key: value for key, value in doc.items() if key not in ("train", "vectorizer")}
    try:
        config = RunConfig(train=TrainConfig(**doc.get("train", {})),
                           vectorizer=VectorizationConfig(**doc.get("vectorizer", {})),
                           **top)
    except ConfigError as exc:  # a value out of range
        raise ConfigError(f"{path}: {exc}") from None
    return config if seed is None else replace(config, train=replace(config.train, seed=seed))


def model_spec(arch: str, config: RunConfig, path: str | None) -> ModelSpec:
    """The arch's spec at the config's grid size, LSTM output activation
    and seed. A grid the spec cannot take (the hybrid's, narrower than
    its conv kernel) raises ConfigError naming path and the key."""
    try:
        return ARCH_BUILDERS[arch](
            n_features=1, grid_size=config.vectorizer.grid_size,
            lstm_output_activation=config.lstm_output_activation, seed=config.train.seed)
    except ConfigError as exc:
        raise ConfigError(f"{exc} ({path}: 'vectorizer.grid_size')") from None


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _resolve_store(arg: str | None) -> str | None:
    return arg or os.environ.get(STORE_ENV_VAR)


# --- ingest --------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, None)
    args.stage = "parsing"
    result = ingest_mod.ingest_geolife(
        Path(args.geolife_dir),
        config=config.vectorizer,
        strict=args.strict,
        metadata_feature=config.metadata_feature,
        mode_names=config.modes,
    )
    for warning in result.warnings:
        print(f"warning: {warning.path}: {warning.error}", file=sys.stderr)
    by_type = Counter(type(warning.error).__name__ for warning in result.warnings)
    if by_type:
        print("warnings: " + " ".join(f"{kind}={n}" for kind, n in sorted(by_type.items())),
              file=sys.stderr)

    args.stage = "dataset writing"
    out = Path(args.out)
    counts = (f"parsed_points={result.n_points} outside_spans={result.n_outside_spans}"
              f" unmapped={result.n_unmapped}")
    if result.dataset is None:
        print("warning: no labeled samples found; writing header-only CSV",
              file=sys.stderr)
        with open(out, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(ingest_mod.DATASET_COLUMNS)
        print(f"rows=0 labels=0 users=0 {counts}")
        return 0
    ingest_mod.write_dataset_csv(result.dataset, out)
    print(f"rows={len(result.dataset)} labels={np.unique(result.dataset.label).size}"
          f" users={np.unique(result.dataset.user).size} {counts}")
    return 0


# --- vectorize -----------------------------------------------------------

def _group_records(dataset: ingest_mod.Dataset, config: VectorizationConfig,
                  created_at: int) -> list[VectorRecord]:
    """One heatmap record per (user, label) group, in sorted group order.

    Each group is binned against the dataset-wide normalization bounds.
    Record ids follow this order once stored.
    """
    order = np.lexsort((dataset.label, dataset.user))
    user, label = dataset.user[order], dataset.label[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], (user[1:] != user[:-1]) | (label[1:] != label[:-1]))))
    coords = np.column_stack((dataset.lat, dataset.lon, dataset.alt))[order]
    return [
        VectorRecord(record_id=0, user=user[lo], label=int(label[lo]),
                     vector=vectorize_trajectory(coords[lo:hi], config,
                                                 stats=dataset.stats).astype("<f4"),
                     created_at=created_at)
        for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [order.size])
    ]


def cmd_vectorize(args: argparse.Namespace) -> int:
    descriptor = _resolve_store(args.store)
    if not descriptor:
        raise ConfigError(f"no store given (--store or ${STORE_ENV_VAR})")
    config = load_run_config(args.config, None)
    if args.out_dir:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)

    args.stage = "dataset load"
    dataset = ingest_mod.read_dataset_csv(Path(args.dataset))

    args.stage = "vectorization"
    started = time.perf_counter()
    records = _group_records(dataset, config.vectorizer, int(time.time()))
    vectorize_seconds = time.perf_counter() - started

    args.stage = "store"
    with open_store(descriptor, grid_size=config.vectorizer.grid_size) as store:
        store.init_schema()
        inserted = store.insert_batch(records)
        total = store.count()

    print(f"groups={len(records)} inserted={inserted} store_total={total}"
          f" vectorize_seconds={vectorize_seconds:.6f}")
    if args.out_dir:
        args.stage = "report writing"
        _write_json(Path(args.out_dir) / "vectorize_report.json", {
            "config": config.to_dict(),
            "store": descriptor,
            "groups": len(records),
            "inserted": inserted,
            "vectorize_seconds": vectorize_seconds,
        })
    return 0


# --- train ---------------------------------------------------------------

@dataclass
class PreparedData:
    data: TrainData
    x_test: "np.ndarray | tuple"
    y_test_codes: np.ndarray


def split_rows(labels: np.ndarray, train: TrainConfig):
    """The seeded split of row indices that train and bench share.

    The test rows come off first (seed), then the validation rows off
    the remainder (seed + 1), and the training rows left are oversampled
    (seed + 2). Returns ((train_rows, y_train), (val_rows, y_val),
    (test_rows, y_test)), the training rows oversampled. A split that
    leaves no test rows, fewer than 2 rows to take the validation rows
    from, or no training rows raises TooFewSamples naming its fraction
    and row counts; the validation split may be empty. The calls go
    through this module's names, which the traced benchmark run wraps.
    """
    (rest, y_rest), test = train_test_split(
        np.arange(labels.size), labels, train.test_fraction, train.seed)
    where = f"test_fraction {train.test_fraction} of {labels.size} rows"
    if not test[0].size:
        raise TooFewSamples(f"{where} leaves no test rows")
    if rest.size < 2:
        raise TooFewSamples(f"{where} leaves {rest.size} rows for training and"
                            " validation, need at least 2")
    (rows, y_rows), val = train_test_split(
        rest, y_rest, train.validation_fraction, train.seed + 1)
    if not rows.size:
        raise TooFewSamples(f"validation_fraction {train.validation_fraction}"
                            f" of {rest.size} rows leaves no training rows")
    return random_oversample(rows, y_rows, train.seed + 2), val, test


def prepare_splits(
    dataset: ingest_mod.Dataset,
    spec: ModelSpec,
    config: RunConfig,
) -> PreparedData:
    """split -> oversample (train only) -> scale; labels stay class codes.

    The rows come from split_rows, and each split's inputs are gathered
    once from them. The scaler is fit on the oversampled training rows
    only; the hybrid's grid input is each row's cell index, unscaled.
    """
    (train_rows, y_train), (val_rows, y_val), (test_rows, y_test) = split_rows(
        dataset.label, config.train)
    meta = dataset.metadata.reshape(-1, 1)
    scaler = StandardScaler().fit(meta[train_rows])
    scaled = scaler.transform(meta).reshape(-1, 1, 1)  # (N, T=1, F=1)
    cells = None
    if spec.architecture == HYBRID:
        cells = sample_cell_grids(dataset.lat, dataset.lon, dataset.alt,
                                  dataset.stats, config.vectorizer)

    def inputs(rows):
        return scaled[rows] if cells is None else (scaled[rows], cells[rows])

    data = TrainData(
        x_train=inputs(train_rows),
        y_train=y_train,
        x_val=inputs(val_rows) if len(y_val) else None,
        y_val=y_val if len(y_val) else None,
    )
    return PreparedData(data=data, x_test=inputs(test_rows), y_test_codes=y_test)


def _write_metrics_files(out_dir: Path, bundle: metrics_mod.MetricsBundle) -> None:
    with open(out_dir / "confusion.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"pred_{i}" for i in range(len(bundle.confusion))])
        writer.writerows(bundle.confusion)
    for key, curve in bundle.roc_curves.items():
        name = "roc_micro.csv" if key == "micro" else f"roc_class_{key}.csv"
        (out_dir / name).write_text(curve.to_csv() + "\n", encoding="utf-8")


def cmd_train(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, args.seed)
    spec = model_spec(args.arch, config, args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    args.stage = "dataset load"
    dataset = ingest_mod.read_dataset_csv(Path(args.dataset))

    args.stage = "preprocessing"
    prepared = prepare_splits(dataset, spec, config)

    args.stage = "training"
    params, report = train_model(spec, prepared.data, config.train)

    args.stage = "evaluation"
    probs = predict(spec, params, prepared.x_test)
    bundle = metrics_mod.evaluate_classifier(
        probs, prepared.y_test_codes, spec.n_classes,
        regression_basis=config.regression_basis,
    )

    args.stage = "report writing"
    config_doc = config.to_dict()
    _write_json(out_dir / "train_report.json", {
        "arch": args.arch,
        "config": config_doc,
        "report": report.to_dict(),
    })
    _write_json(out_dir / "metrics.json", {
        "arch": args.arch,
        "config": config_doc,
        "seed": config.train.seed,
        "metrics": bundle.to_dict(),
    })
    _write_metrics_files(out_dir, bundle)
    (out_dir / "model_spec.json").write_text(spec.to_json() + "\n", encoding="utf-8")
    save_checkpoint(out_dir / "model.vlnn", params)

    print(f"arch={args.arch} test_acc={bundle.accuracy:.4f}"
          f" weighted_f1={bundle.weighted_f1:.4f}"
          f" train_seconds={report.train_seconds:.3f}")
    return 0


# --- bench ---------------------------------------------------------------

def _bench_variants(dataset: ingest_mod.Dataset, config: RunConfig,
                    specs: dict[str, ModelSpec], splits):
    """Run the three Table-style variants over one shared split.

    lstm_novec and veclstm_vec are trainer.benchmark_pipelines' pair:
    the count-grid density of vectorizer.vectorize_metadata recomputed
    per sample every epoch vs. computed once, so they differ only in
    feature supply. hybrid_vec adds each row's grid cell to the
    precomputed feature. All three share seed, split (splits, from
    split_rows), oversampling and batch order, and are scored on the
    same rows. Returns the table rows and the pair's reduction_pct.
    """
    tcfg = config.train
    (train_rows, y_train), (val_rows, y_val), (test_rows, y_test) = splits
    report = benchmark_pipelines(dataset.lat, dataset.lon, dataset.alt, dataset.label,
                                 tcfg, config.vectorizer, train_rows)
    x_all = report.features

    t0 = time.perf_counter()
    cells = sample_cell_grids(dataset.lat, dataset.lon, dataset.alt,
                              dataset.stats, config.vectorizer)
    t_cells = time.perf_counter() - t0
    hybrid = specs["hybrid"]
    x_train, cells_train = x_all[train_rows], cells[train_rows]
    params_hybrid, _, _, t_hybrid = run_epochs(
        hybrid, init_model_params(hybrid, seed=tcfg.seed),
        lambda pos: (x_train[pos], cells_train[pos]), y_train, tcfg)

    variants = [
        ("lstm_novec", specs["lstm"], report.params_novec, report.t_novec, 0.0),
        ("veclstm_vec", specs["veclstm"], report.params_vec, report.t_vec,
         report.t_vectorization),
        ("hybrid_vec", hybrid, params_hybrid, t_hybrid, report.t_vectorization + t_cells),
    ]
    rows = []
    for name, spec, params, seconds, vec_seconds in variants:
        def inputs(idx):
            return (x_all[idx], cells[idx]) if spec.has_grid_branch else x_all[idx]

        val_acc = None
        if val_rows.size:
            _, val_acc = evaluate_loss(spec, params, inputs(val_rows), y_val)
        bundle = metrics_mod.evaluate_classifier(
            predict(spec, params, inputs(test_rows)), y_test,
            regression_basis=config.regression_basis)
        rows.append(dict(zip(BENCH_COLUMNS, (
            name, seconds, vec_seconds, val_acc, bundle.accuracy, bundle.weighted_f1,
            bundle.rmse, bundle.mae, bundle.mse))))
    return rows, report.reduction_pct


def _store_workload(dataset: ingest_mod.Dataset, config: RunConfig,
                    descriptor: str) -> dict:
    """Synthetic insert/fetch workload: store every (user, label) group's
    heatmap, then read everything back and once per user. Purely a
    throughput probe; the timings are workload-defined, not comparable
    across backends of different kinds.
    """
    records = _group_records(dataset, config.vectorizer, int(time.time()))
    with open_store(descriptor, grid_size=config.vectorizer.grid_size) as store:
        store.init_schema()
        t0 = time.perf_counter()
        inserted = store.insert_batch(records)
        insert_seconds = time.perf_counter() - t0
        users = sorted({record.user for record in records})
        t0 = time.perf_counter()
        fetched = len(store.fetch())
        for user in users:
            store.fetch(user=user)
        fetch_seconds = time.perf_counter() - t0
    return {
        "workload": "insert all (user, label) group heatmaps;"
                    " fetch all, then per user",
        "store": descriptor,
        "records_inserted": inserted,
        "records_fetched": fetched,
        "insert_seconds": insert_seconds,
        "fetch_seconds": fetch_seconds,
    }


def cmd_bench(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, args.seed)
    # The bench trains tanh specs on the cell-density feature, whatever
    # the config names.
    trained = replace(config, metadata_feature="cell_density", lstm_output_activation="tanh")
    specs = {arch: model_spec(arch, trained, args.config) for arch in ARCH_BUILDERS}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    args.stage = "dataset load"
    dataset = ingest_mod.read_dataset_csv(Path(args.dataset))

    args.stage = "preprocessing"
    splits = split_rows(dataset.label, config.train)

    args.stage = "benchmark"
    rows, reduction = _bench_variants(dataset, config, specs, splits)

    store_bench = None
    descriptor = _resolve_store(args.store)
    if descriptor:
        args.stage = "store workload"
        store_bench = _store_workload(dataset, config, descriptor)

    args.stage = "report writing"
    with open(out_dir / "bench.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})
    doc = {
        "config": trained.to_dict(),
        "seed": config.train.seed,
        "rows": rows,
        "reduction_pct": reduction,
    }
    if store_bench is not None:
        doc["store_bench"] = store_bench
    _write_json(out_dir / "bench.json", doc)

    for row in rows:
        print(f"{row['variant']}: train_seconds={row['train_seconds']:.3f}"
              f" test_acc={row['test_acc']:.4f}")
    print(f"reduction_pct={reduction:.2f}")
    return 0


# --- entry point ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veclstm",
        description="GPS trajectory activity recognition toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse a GeoLife tree into a dataset CSV")
    p_ingest.add_argument("geolife_dir")
    p_ingest.add_argument("--out", required=True, help="output dataset CSV")
    p_ingest.add_argument("--strict", action="store_true",
                          help="fail on the first malformed file")
    p_ingest.add_argument("--config", help="JSON config file")
    p_ingest.set_defaults(func=cmd_ingest)

    p_vec = sub.add_parser("vectorize", help="store per-trajectory heatmaps")
    p_vec.add_argument("dataset")
    p_vec.add_argument("--store", help=f"sqlite:<path> or file path"
                                       f" (default ${STORE_ENV_VAR})")
    p_vec.add_argument("--config", help="JSON config file")
    p_vec.add_argument("--out-dir", help="also write vectorize_report.json here")
    p_vec.set_defaults(func=cmd_vectorize)

    p_train = sub.add_parser("train", help="train and evaluate one architecture")
    p_train.add_argument("dataset")
    p_train.add_argument("--arch", required=True, choices=sorted(ARCH_BUILDERS))
    p_train.add_argument("--out-dir", required=True)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--config", help="JSON config file")
    p_train.set_defaults(func=cmd_train)

    p_bench = sub.add_parser("bench", help="vectorized vs non-vectorized benchmark")
    p_bench.add_argument("dataset")
    p_bench.add_argument("--out-dir", required=True)
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--config", help="JSON config file")
    p_bench.add_argument("--store", help="also time an insert/fetch store"
                                         f" workload (default ${STORE_ENV_VAR})")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.stage = "configuration"
    try:
        return args.func(args)
    except (VecLstmError, OSError) as exc:
        print(f"{args.command} failed at stage {args.stage}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
