"""The three workloads, driven through the functions the veclstm commands call.

A run repeats one cycle of the command order ``ingest`` -> ``vectorize``
-> ``train`` on fresh files, for as long as its time allows and at least
twice. A cycle ingests the generated GeoLife tree and writes the
dataset CSV (three times), reads it back, sets up (store open + init_schema,
read_dataset_csv, prepare_splits, init), vectorizes trajectory segments
into a VLVS file and a sqlite store in many batches, queries both
stores, then trains and evaluates with the run's seed. A run reports
medians over every sample of all its cycles. Cycles are kept to a few
seconds so that each figure samples many moments of the run: on a
shared 2-CPU virtual machine the same code ran up to 2x slower for
seconds at a time, and a median over many short windows moves less
than one over a few long ones. Slow spells that outlast a run are
cancelled by scaling every timing to a fixed host speed
(``hostspeed.py``). Every cycle trains the same model on the same
data, so the same-seed check always has pairs.

The scale of each stage is what differs between workloads: the train
workloads spend most of their time in training steps, ingest-store in
parsing and in the stores. Every run reports every end-to-end metric,
which is why no workload skips a stage.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .generator import TreeShape, write_geolife_tree
from .hostspeed import HostSpeed
from .layers import IoMeter, Probe, StepClock, layer_metrics
from .trace import Tracer, wrap_attributes


@dataclass(frozen=True)
class Workload:
    name: str
    tree: TreeShape
    metadata_feature: str
    arch: str
    epochs: int
    insert_batches: int
    # The calibration loop that scales training and evaluation times: the
    # one whose speed followed this model's training steps most closely.
    step_loop: str


TRAIN_TREE = TreeShape(users=8, spans_per_user=100, points_per_span=30, spans_per_file=10)

WORKLOADS = {w.name: w for w in (
    Workload("train-veclstm", TRAIN_TREE, "normalized_speed", "veclstm",
             epochs=3, insert_batches=20, step_loop="blas"),
    Workload("train-hybrid", TRAIN_TREE, "cell_density", "hybrid",
             epochs=1, insert_batches=20, step_loop="mixed"),
    Workload("ingest-store",
             TreeShape(users=6, spans_per_user=250, points_per_span=20, spans_per_file=25),
             "cell_density", "veclstm", epochs=1, insert_batches=100, step_loop="blas"),
)}

BATCH_SIZE = 512
MIN_CYCLES = 2
INGEST_REPEATS = 3
CSV_READS = 3
EVAL_REPEATS = 5
# Consecutive rows of one user and label belong to one segment unless
# this many seconds separate them; the generator leaves >= 120 s
# between label spans and 5 s between points.
SEGMENT_GAP_S = 60
# Fetch mix per backend and cycle, in queries. The counts put the median inside the per-user queries and the
# 95th percentile inside the full scans, so neither percentile sits on
# a boundary between kinds of query.
FETCH_MIX = (("range", 20), ("user", 44), ("label", 26), ("all", 10))
BACKENDS = ("vlvs", "sql")


def load_program() -> SimpleNamespace:
    from veclstm import cli, ingest, metrics, models, trainer, vecstore
    return SimpleNamespace(cli=cli, ingest=ingest, metrics=metrics, models=models,
                           trainer=trainer, vecstore=vecstore)


@dataclass
class Ledger:
    """Operations attempted, and those whose output check failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _median(values) -> float:
    return float(np.median(values))


def _columns_equal(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = np.asarray(a[key]), np.asarray(b[key])
        nan_ok = x.dtype.kind == "f" and y.dtype.kind == "f"
        if x.shape != y.shape or not np.array_equal(x, y, equal_nan=nan_ok):
            return False
    return True


def _segments(columns: dict) -> list[tuple[str, int, int, list]]:
    """(user, label, first time, [(lat, lon, alt)]) per trajectory segment."""
    user, label, ts = columns["user"], columns["label"], columns["time"]
    cut = np.ones(len(ts), dtype=bool)
    cut[1:] = (user[1:] != user[:-1]) | (label[1:] != label[:-1]) | (np.diff(ts) > SEGMENT_GAP_S)
    starts = np.flatnonzero(cut).tolist() + [len(ts)]
    coords = list(zip(columns["lat"].tolist(), columns["lon"].tolist(), columns["alt"].tolist()))
    return [(str(user[lo]), int(label[lo]), int(ts[lo]), coords[lo:hi])
            for lo, hi in zip(starts[:-1], starts[1:])]


def _queries(rng: np.random.Generator, users: list[str], labels: list[int],
             n_records: int) -> list[dict]:
    width = max(1, n_records // 50)
    out = []
    for kind, count in FETCH_MIX:
        for _ in range(count):
            if kind == "range":
                lo = int(rng.integers(1, max(2, n_records - width + 2)))
                out.append({"id_range": (lo, lo + width - 1)})
            elif kind == "user":
                out.append({"user": users[int(rng.integers(len(users)))]})
            elif kind == "label":
                out.append({"label": labels[int(rng.integers(len(labels)))]})
            else:
                out.append({})
    return [out[i] for i in rng.permutation(len(out))]


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool, work: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.v = load_program()
        self.ledger = Ledger()
        self.tracer = Tracer(f"{workload.name}-{seed}-{time.time_ns()}") if trace else None
        self.probe = Probe(self.tracer) if trace else None
        self.untraced: set[str] = set()
        self.samples: dict[str, list[float]] = {}
        self.final_loss: float | None = None
        self.meter = IoMeter() if trace else None
        self.host = HostSpeed(enabled=not trace)
        self.io = {f"{kind}.{b}": 0 for kind in ("wchar", "rchar", "records", "fetches")
                   for b in BACKENDS}
        self.config = self.v.cli.RunConfig(
            train=self.v.trainer.TrainConfig(epochs=workload.epochs, batch_size=BATCH_SIZE,
                                             seed=seed),
            metadata_feature=workload.metadata_feature,
        )

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def traced(self):
        """Install every probe for the length of a with block (trace runs only)."""
        if self.probe is None:
            return nullcontext()
        return wrap_attributes(self.probe.targets(self.v), self.untraced)

    def phase(self, name: str):
        return self.tracer.span(f"bench.{name}") if self.tracer else nullcontext()

    def run(self) -> None:
        self.expected = write_geolife_tree(self.work / "geolife", self.seed, self.w.tree)
        deadline = time.perf_counter() + self.seconds
        rng = np.random.default_rng((self.seed, 1))
        clock = StepClock(self.host, self.w.step_loop)
        cycle, cycle_seconds = 0, 0.0
        # The step clock wraps outside the probes, so a traced step's
        # interval includes every cost the tracing adds to it.
        with self.traced(), wrap_attributes([(self.v.trainer, "adam_step", clock.wrap)]):
            while cycle < MIN_CYCLES or time.perf_counter() + cycle_seconds <= deadline:
                started = time.perf_counter()
                cycle_dir = self.work / f"cycle{cycle}"
                cycle_dir.mkdir()
                self.ingest(cycle_dir)
                stores = self.setup(cycle_dir)
                self.vectorize(stores)
                self.fetch(stores, rng)
                for store in stores.values():
                    store.close()
                shutil.rmtree(cycle_dir)
                self.train_and_evaluate(clock)
                cycle += 1
                cycle_seconds = time.perf_counter() - started

    # --- the stages of one cycle --------------------------------------------------

    def ingest(self, cycle_dir: Path) -> None:
        v, cfg, exp = self.v, self.config, self.expected
        self.csv_path = cycle_dir / "dataset.csv"

        def ingest_and_write():
            result = v.ingest.ingest_geolife(
                self.work / "geolife", config=cfg.vectorizer, strict=False,
                metadata_feature=cfg.metadata_feature, mode_names=cfg.modes)
            v.ingest.write_dataset_csv(result.dataset, self.csv_path)
            return result

        # Long stages start from a full collection, so that a collection
        # their own allocations trigger is timed and one owed to earlier
        # work is not.
        for _ in range(INGEST_REPEATS):
            gc.collect()
            with self.phase("ingest"):
                result, seconds = self.host.time("python", ingest_and_write)
            self.sample("ingest_points_per_s", result.n_points / seconds)
            written = result.dataset.to_arrays()
            per_code = np.bincount(written["label"], minlength=len(exp.labeled_per_code))
            self.ledger.check(
                result.n_points == exp.n_points and result.n_labeled == exp.n_labeled
                and len(result.dataset) == exp.n_labeled and not result.warnings
                and per_code.tolist() == exp.labeled_per_code,
                f"ingest kept {result.n_labeled} of {result.n_points} points,"
                f" expected {exp.n_labeled} of {exp.n_points}")
        self.labeled_share = result.n_labeled / result.n_points
        for _ in range(CSV_READS):
            gc.collect()
            with self.phase("csv_load"):
                dataset, seconds = self.host.time("python", v.ingest.read_dataset_csv, self.csv_path)
            self.sample("csv_load_rows_per_s", len(dataset) / seconds)
            self.ledger.check(_columns_equal(written, dataset.to_arrays())
                              and dataset.stats == result.dataset.stats,
                              "CSV round trip changed the dataset")

    def setup(self, cycle_dir: Path) -> dict:
        """Store open + init_schema, then the train command's set-up."""
        v, cfg = self.v, self.config
        self.prepared = None  # let the previous cycle's arrays go first
        gc.collect()
        with self.phase("setup"):
            loop0 = self.host.loop("python")
            t0 = time.perf_counter()
            grid = cfg.vectorizer.grid_size
            stores = {"vlvs": v.cli.open_store(str(cycle_dir / "vectors.vlvs"), grid_size=grid),
                      "sql": v.cli.open_store(f"sqlite:{cycle_dir / 'vectors.db'}", grid_size=grid)}
            for store in stores.values():
                store.init_schema()
            spec = v.cli.ARCH_BUILDERS[self.w.arch](
                n_features=1, grid_size=grid,
                lstm_output_activation=cfg.lstm_output_activation, seed=cfg.train.seed)
            dataset = v.ingest.read_dataset_csv(self.csv_path)
            prepared = v.cli.prepare_splits(dataset, spec, cfg)
            v.trainer.init_model_params(spec, seed=cfg.train.seed)
            seconds = time.perf_counter() - t0
            self.sample("setup_s", self.host.scale(seconds, "python", loop0, self.host.loop("python")))
        self.columns = dataset.to_arrays()
        self.spec, self.dataset, self.prepared = spec, dataset, prepared
        return stores

    def vectorize(self, stores: dict) -> None:
        v, cfg = self.v, self.config
        segments = _segments(self.columns)
        batches = np.array_split(np.arange(len(segments)), self.w.insert_batches)
        vectors = {}
        for backend, store in stores.items():
            io0 = self.meter.start() if self.meter else None
            with self.phase(f"vectorize.{backend}"):
                for batch in batches:
                    def vectorize_and_insert():
                        records = []
                        for i in batch:
                            user, label, created, coords = segments[i]
                            vector = v.cli.vectorize_trajectory(coords, cfg.vectorizer,
                                                                stats=self.dataset.stats)
                            records.append(v.vecstore.VectorRecord(
                                record_id=0, user=user, label=label,
                                vector=vector.astype("<f4"), created_at=created))
                        return records, store.insert_batch(records)

                    (records, inserted), seconds = self.host.time("python", vectorize_and_insert)
                    self.sample(f"vectorize_records_per_s.{backend}", len(records) / seconds)
                    self.ledger.check(inserted == len(records),
                                      f"{backend} insert_batch returned {inserted} of {len(records)}")
                    vectors.setdefault(backend, []).extend(r.vector for r in records)
            if io0 is not None:
                self.io[f"wchar.{backend}"] += self.meter.delta(io0, "wchar")
                self.io[f"records.{backend}"] += len(segments)
            self.ledger.check(store.count() == len(segments),
                              f"{backend} store holds {store.count()} of {len(segments)} records")
        self.ledger.check(np.array_equal(np.stack(vectors["vlvs"]), np.stack(vectors["sql"])),
                          "vectorize_trajectory gave different vectors on the second pass")
        self.reference = {
            "id": np.arange(1, len(segments) + 1),
            "user": np.array([s[0] for s in segments]),
            "label": np.array([s[1] for s in segments]),
            "created_at": np.array([s[2] for s in segments]),
            "vector": np.stack(vectors["vlvs"]),
        }

    def _expected_rows(self, query: dict) -> np.ndarray:
        ref = self.reference
        mask = np.ones(len(ref["id"]), dtype=bool)
        if "user" in query:
            mask &= ref["user"] == query["user"]
        if "label" in query:
            mask &= ref["label"] == query["label"]
        if "id_range" in query:
            lo, hi = query["id_range"]
            mask &= (ref["id"] >= lo) & (ref["id"] <= hi)
        return np.flatnonzero(mask)

    def _matches(self, records: list, rows: np.ndarray) -> bool:
        ref = self.reference
        if len(records) != len(rows):
            return False
        if not records:
            return True
        return ([r.record_id for r in records] == ref["id"][rows].tolist()
                and [r.user for r in records] == ref["user"][rows].tolist()
                and [r.label for r in records] == ref["label"][rows].tolist()
                and [r.created_at for r in records] == ref["created_at"][rows].tolist()
                and np.array_equal(np.stack([r.vector for r in records]), ref["vector"][rows]))

    def fetch(self, stores: dict, rng: np.random.Generator) -> None:
        ref = self.reference
        queries = _queries(rng, sorted(set(ref["user"].tolist())),
                           sorted(set(ref["label"].tolist())), len(ref["id"]))
        with self.phase("fetch"):
            for query in queries:
                rows = self._expected_rows(query)
                for backend in BACKENDS:
                    io0 = self.meter.start() if self.meter else None
                    records, seconds = self.host.time("python", stores[backend].fetch, **query)
                    if io0 is not None:
                        self.io[f"rchar.{backend}"] += self.meter.delta(io0, "rchar")
                        self.io[f"fetches.{backend}"] += 1
                    self.sample(f"fetch_ms.{backend}", seconds * 1e3)
                    self.ledger.check(self._matches(records, rows),
                                      f"{backend} fetch {query} differs from what was inserted")

    # --- training --------------------------------------------------------------

    def train_and_evaluate(self, clock: StepClock) -> None:
        v, cfg, spec, prepared = self.v, self.config, self.spec, self.prepared
        n_train = len(prepared.data.y_train)
        n_test = len(prepared.y_test_codes)
        clock.marks.clear()
        gc.collect()
        with self.phase("train"):
            t0 = time.perf_counter()
            params, report = v.cli.train_model(spec, prepared.data, cfg.train)
            seconds = time.perf_counter() - t0
        # The calibration loops after each step are not training time.
        loops_total, loops = clock.loop_seconds()
        seconds = self.host.scale(seconds - loops_total, self.w.step_loop, _median(loops))
        self.sample("train_samples_per_s", n_train * cfg.train.epochs / seconds)
        traced_steps = self.probe.step_traced[1:] if self.probe else None
        for i, ms in enumerate(clock.step_ms()):
            traced = traced_steps is not None and traced_steps[i]
            self.sample("step_ms.traced" if traced else "step_ms_p50", ms)
        final = report.epoch_losses[-1]
        if self.final_loss is None:
            self.final_loss = final
        self.ledger.check(math.isfinite(final) and final < report.initial_loss,
                          f"final loss {final} not below initial loss {report.initial_loss}")
        self.ledger.check(final == self.final_loss,
                          f"same seed gave final loss {final}, first cycle {self.final_loss}")

        with self.phase("eval"):
            def predict_and_evaluate():
                probs = v.cli.predict(spec, params, prepared.x_test)
                v.metrics.evaluate_classifier(probs, prepared.y_test_codes, spec.n_classes,
                                              regression_basis=cfg.regression_basis)
                return probs

            for _ in range(EVAL_REPEATS):
                gc.collect()
                probs, seconds = self.host.time(self.w.step_loop, predict_and_evaluate)
                self.sample("eval_samples_per_s", n_test / seconds)
                self.ledger.check(
                    probs.shape == (n_test, spec.n_classes)
                    and bool(np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)),
                    "evaluation probabilities do not sum to 1 in every row")

    # --- results -----------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        s = self.samples
        out = {name: _median(s[name]) for name in (
            "setup_s", "train_samples_per_s", "step_ms_p50", "eval_samples_per_s",
            "ingest_points_per_s", "csv_load_rows_per_s",
            "vectorize_records_per_s.vlvs", "vectorize_records_per_s.sql")}
        out["final_loss"] = self.final_loss
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        for backend in BACKENDS:
            out[f"fetch_ms_p50.{backend}"] = float(np.percentile(s[f"fetch_ms.{backend}"], 50))
            out[f"fetch_ms_p95.{backend}"] = float(np.percentile(s[f"fetch_ms.{backend}"], 95))
        return out

    def per_layer(self) -> dict[str, float]:
        extra = {
            "ingest.labeled_share": self.labeled_share,
            "trace.overhead_pct": 100.0 * (
                _median(self.samples["step_ms.traced"]) / _median(self.samples["step_ms_p50"]) - 1.0),
        }
        for b in BACKENDS:
            extra[f"vecstore.{b}.write_bytes_per_record"] = self.io[f"wchar.{b}"] / self.io[f"records.{b}"]
            extra[f"vecstore.{b}.read_bytes_per_fetch"] = self.io[f"rchar.{b}"] / self.io[f"fetches.{b}"]
        return layer_metrics(self.tracer, self.probe, extra)
