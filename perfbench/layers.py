"""Per-layer probes for the traced run, and the metrics made from them.

Every probe wraps an attribute that a call inside veclstm resolves
through, so the program runs unchanged: ``veclstm.models.lstm_sequence``
is what ``model_forward`` calls, ``veclstm.trainer.adam_step`` is what
the training loop calls, ``veclstm.cli.predict`` is what ``veclstm
train`` calls. Model layers are named by parameter block (lstm1, lstm2,
conv, pool, fusion, head) by matching the identity of the arrays they
receive against the parameter dict that ``model_forward`` was given.

Training steps are spans too. A step runs from the end of one
``adam_step`` to the end of the next, the interval the untraced run
times; the probe's own bookkeeping (the repeated-row count) happens
after a step span closes, so spans hold program work only.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .hostspeed import HostSpeed
from .trace import Span, Tracer, now_ns, self_times

MODEL_BLOCKS = ("lstm1", "lstm2", "conv", "pool", "fusion", "head")


class StepClock:
    """The untraced step timer.

    A step runs from the end of one adam_step call to the end of the
    next. A calibration loop runs right after each adam_step; it is left
    out of the step and scales the steps on either side of it.
    """

    def __init__(self, host: HostSpeed, kind: str):
        self.host, self.kind = host, kind
        self.marks: list[tuple[int, float, int]] = []  # adam_step end, loop s, next step start

    def wrap(self, fn: Callable) -> Callable:
        host, kind, marks = self.host, self.kind, self.marks

        def adam_step_timed(*args, **kwargs):
            out = fn(*args, **kwargs)
            end = now_ns()
            loop_s = host.loop(kind)
            marks.append((end, loop_s, now_ns()))
            return out
        return adam_step_timed

    def step_ms(self) -> list[float]:
        return [self.host.scale((end - start) / 1e6, self.kind, loop0, loop1)
                for (_, loop0, start), (end, loop1, _) in zip(self.marks, self.marks[1:])]

    def loop_seconds(self) -> tuple[float, list[float]]:
        """Time the loops took in all, and each loop's time."""
        return (sum(start - end for end, _, start in self.marks) / 1e9,
                [loop_s for _, loop_s, _ in self.marks])


def _lstm_macs(n_steps: int, params) -> int:
    hidden, width = params.w_i.shape
    return n_steps * 4 * hidden * width


def _fwd_macs(kind: str, args) -> int:
    if kind == "lstm":
        seq = args[0]
        n_steps = seq.shape[0] * seq.shape[1] if seq.ndim == 3 else seq.shape[0]
        return _lstm_macs(n_steps, args[1])
    if kind == "conv":
        x, kernels = args[0], args[1].kernels
        n_filters, channels, width = kernels.shape
        return x.shape[0] * (x.shape[1] - width + 1) * n_filters * channels * width
    if kind == "dense":
        x, w = args[0], args[1].w
        return (x.size // w.shape[1]) * w.shape[0] * w.shape[1]
    return 0


def _bwd_macs(kind: str, args) -> int:
    """Weight gradient plus input gradient: twice the forward work."""
    if kind == "lstm":
        n, t, _ = args[0].input_shape
        return 2 * _lstm_macs(n * t, args[1])
    return 2 * _fwd_macs(kind, args)


class Probe:
    """The wrappers of one traced run and the state they share.

    Inside train_model the probes on the training step switch off and on
    at every adam_step, so traced and untraced steps alternate within one
    call and the tracing overhead is measured on neighbouring steps.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.enabled = True
        self.blocks: dict[int, str] = {}
        self.boundary: int | None = None
        self.step_traced: list[bool] = []
        self.step_macs: list[int] = []
        self.dup_shares: list[float] = []
        self.grid_bytes: list[int] = []
        self._macs = 0
        self._batch = None

    # --- wrapper factories -------------------------------------------------

    def timed(self, name: str, gated: bool = False) -> Callable[[Callable], Callable]:
        tracer = self.tracer

        def make(fn):
            def traced(*args, **kwargs):
                if gated and not self.enabled:
                    return fn(*args, **kwargs)
                span = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(span)
            return traced
        return make

    def block(self, kind: str, way: str) -> Callable[[Callable], Callable]:
        """A neuralnet call made by models.py, named by parameter block."""
        tracer = self.tracer
        count = _fwd_macs if way == "fwd" else _bwd_macs

        def make(fn):
            def traced(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                name = "pool" if kind == "pool" else self._block_of(args[1])
                span = tracer.open(f"models.{name}.{way}")
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                    if tracer.step is not None:
                        self._macs += count(kind, args)
            return traced
        return make

    def _block_of(self, params) -> str:
        for value in vars(params).values():
            name = self.blocks.get(id(value))
            if name is not None:
                return name
        return "unknown"

    def model_call(self, name: str) -> Callable[[Callable], Callable]:
        """model_forward / model_backward: learn the block of each array,
        and open a training step at the first training forward."""
        tracer = self.tracer

        def make(fn):
            def traced(spec, params, *args, **kwargs):
                if not self.enabled:
                    return fn(spec, params, *args, **kwargs)
                self.blocks = {id(v): k.split(".")[0] for k, v in params.items()}
                training = kwargs.get("with_cache", len(args) > 1 and args[1])
                if name == "models.forward" and training and tracer.step is None:
                    self._open_step()
                    self._batch = args[0]
                span = tracer.open(name)
                try:
                    return fn(spec, params, *args, **kwargs)
                finally:
                    tracer.close(span)
            return traced
        return make

    def adam(self, fn: Callable) -> Callable:
        timed = self.timed("trainer.adam")(fn)

        def traced(*args, **kwargs):
            if not self.enabled:
                out = fn(*args, **kwargs)
            else:
                out = timed(*args, **kwargs)
                if self.tracer.step is not None:
                    self._close_step()
            self.step_traced.append(self.enabled)
            self.enabled = not self.enabled
            self.boundary = now_ns()
            return out
        return traced

    def train_model(self, fn: Callable) -> Callable:
        timed = self.timed("trainer.train_model")(fn)

        def traced(*args, **kwargs):
            self.boundary = None
            self.step_traced = []
            try:
                return timed(*args, **kwargs)
            finally:
                self.enabled = True
        return traced

    def sample_cell_grids(self, fn: Callable) -> Callable:
        timed = self.timed("vectorizer.sample_cell_grids")(fn)

        def traced(*args, **kwargs):
            grids = timed(*args, **kwargs)
            self.grid_bytes.append(int(grids.nbytes))
            return grids
        return traced

    def _open_step(self) -> None:
        step = self.tracer.open("trainer.step", start=self.boundary)
        self.tracer.step = step
        self._macs = 0

    def _close_step(self) -> None:
        step = self.tracer.step
        self.tracer.step = None
        self.tracer.close(step)
        self.step_macs.append(self._macs)
        self.dup_shares.append(dup_row_share(self._batch))
        self._batch = None

    # --- the attributes to wrap ------------------------------------------

    def targets(self, v: SimpleNamespace) -> list:
        """(owner, attribute, wrapper factory) for every traced call."""
        t = self.timed
        out = [
            (v.cli, "prepare_splits", t("cli.prepare_splits")),
            (v.cli, "train_test_split", t("trainer.train_test_split")),
            (v.cli, "random_oversample", t("trainer.random_oversample")),
            (v.cli, "sample_cell_grids", self.sample_cell_grids),
            (v.cli, "train_model", self.train_model),
            (v.cli, "predict", t("trainer.predict")),
            (v.cli, "vectorize_trajectory", t("vectorizer.vectorize_trajectory")),
            (v.metrics, "evaluate_classifier", t("metrics.evaluate_classifier")),
            (v.ingest, "ingest_geolife", t("ingest.ingest_geolife")),
            (v.ingest, "parse_plt", t("ingest.parse_plt")),
            (v.ingest, "parse_labels", t("ingest.parse_labels")),
            (v.ingest, "assign_labels", t("ingest.assign_labels")),
            (v.ingest, "build_dataset", t("ingest.build_dataset")),
            (v.ingest, "write_dataset_csv", t("ingest.write_dataset_csv")),
            (v.ingest, "read_dataset_csv", t("ingest.read_dataset_csv")),
            (v.trainer, "init_model_params", t("models.init_model_params")),
            (v.trainer, "evaluate_loss", t("trainer.evaluate_loss")),
            (v.trainer, "model_forward", self.model_call("models.forward")),
            (v.trainer, "model_backward", self.model_call("models.backward")),
            (v.trainer, "softmax_cross_entropy", t("neuralnet.loss", gated=True)),
            (v.trainer, "adam_step", self.adam),
            (v.models, "lstm_sequence", self.block("lstm", "fwd")),
            (v.models, "lstm_backward", self.block("lstm", "bwd")),
            (v.models, "conv1d_forward", self.block("conv", "fwd")),
            (v.models, "conv1d_backward", self.block("conv", "bwd")),
            (v.models, "maxpool1d_forward", self.block("pool", "fwd")),
            (v.models, "maxpool1d_backward", self.block("pool", "bwd")),
            (v.models, "dense_forward", self.block("dense", "fwd")),
            (v.models, "dense_backward", self.block("dense", "bwd")),
        ]
        for backend, cls in (("vlvs", v.vecstore.FileVectorStore),
                             ("sql", v.vecstore.SqlVectorStore)):
            for method in ("init_schema", "insert_batch", "fetch"):
                out.append((cls, method, t(f"vecstore.{backend}.{method}")))
        return out


def dup_row_share(batch) -> float:
    """Share of rows that repeat, byte for byte, an earlier row of the batch."""
    parts = batch if isinstance(batch, (tuple, list)) else (batch,)
    rows = np.concatenate(
        [np.asarray(p, dtype=np.float64).reshape(len(p), -1) for p in parts], axis=1)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    return 1.0 - np.unique(keys).shape[0] / rows.shape[0]


class IoMeter:
    """rchar/wchar deltas of this process from /proc/self/io, less what
    reading that file itself adds to them."""

    def __init__(self):
        first, second = self.start(), self.start()
        self.own = {k: second[k] - first[k] for k in ("rchar", "wchar")}

    @staticmethod
    def start() -> dict[str, int]:
        out = {}
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                out[key] = int(value)
        return out

    def delta(self, since: dict[str, int], key: str) -> int:
        return self.start()[key] - since[key] - self.own[key]


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _by_parent(spans, value, combine) -> dict[int, float]:
    """combine([value(span) ...]) per parent span, in start order."""
    groups: dict[int, list] = {}
    for s in sorted(spans, key=lambda s: s.start):
        groups.setdefault(s.parent, []).append(value(s))
    return {parent: combine(values) for parent, values in groups.items()}


def _growth(durations: list[int]) -> float:
    """Mean of the last tenth of a sequence over the mean of its first tenth."""
    tenth = max(1, len(durations) // 10)
    return float(np.mean(durations[-tenth:]) / np.mean(durations[:tenth]))


def layer_metrics(tracer: Tracer, probe: Probe, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from the spans of one traced run.

    Model, loss and optimizer figures use spans inside training steps
    only; a metric whose call never ran reads 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    in_step: dict[str, list[Span]] = {}
    anywhere: dict[str, list[Span]] = {}
    for s in spans:
        if s.end is None:
            continue
        anywhere.setdefault(s.name, []).append(s)
        if s.step is not None:
            in_step.setdefault(s.name, []).append(s)

    def ms(group: dict[str, list[Span]], name: str) -> float:
        return _median([s.duration / 1e6 for s in group.get(name, ())])

    def self_ms(group: dict[str, list[Span]], name: str) -> float:
        return _median([selfs[s.span_id] / 1e6 for s in group.get(name, ())])

    out: dict[str, float] = {}
    for block in MODEL_BLOCKS:
        out[f"models.{block}.fwd_ms"] = ms(in_step, f"models.{block}.fwd")
        out[f"models.{block}.bwd_ms"] = ms(in_step, f"models.{block}.bwd")
        out[f"models.{block}.calls"] = float(
            len(in_step.get(f"models.{block}.fwd", ())) + len(in_step.get(f"models.{block}.bwd", ())))
    out["models.forward.self_ms"] = self_ms(in_step, "models.forward")
    out["models.backward.self_ms"] = self_ms(in_step, "models.backward")
    out["models.step_mflop"] = _median(probe.step_macs) / 1e6
    out["neuralnet.loss_ms"] = ms(in_step, "neuralnet.loss")
    out["trainer.adam_ms"] = ms(in_step, "trainer.adam")
    steps = [s.duration / 1e6 for s in anywhere.get("trainer.step", ())]
    out["trainer.step.self_ms"] = self_ms(anywhere, "trainer.step")
    out["trainer.step_ms_p95"] = float(np.percentile(steps, 95)) if steps else 0.0
    out["trainer.evaluate_loss_ms"] = _median(list(_by_parent(
        anywhere.get("trainer.evaluate_loss", ()), lambda s: s.duration / 1e6, sum).values()))
    out["trainer.dup_row_share"] = _median(probe.dup_shares)
    out["trainer.predict_ms"] = ms(anywhere, "trainer.predict")
    out["metrics.evaluate_classifier_ms"] = ms(anywhere, "metrics.evaluate_classifier")
    out["cli.prepare_splits.self_ms"] = self_ms(anywhere, "cli.prepare_splits")
    out["trainer.train_test_split_ms"] = ms(anywhere, "trainer.train_test_split")
    out["trainer.random_oversample_ms"] = ms(anywhere, "trainer.random_oversample")
    out["vectorizer.sample_cell_grids_ms"] = ms(anywhere, "vectorizer.sample_cell_grids")
    out["vectorizer.grid_mb"] = _median(probe.grid_bytes) / 1e6
    out["ingest.read_dataset_csv_ms"] = ms(anywhere, "ingest.read_dataset_csv")
    for name in ("parse_plt", "parse_labels", "assign_labels", "build_dataset",
                 "write_dataset_csv"):
        out[f"ingest.{name}_ms"] = ms(anywhere, f"ingest.{name}")
    out["vectorizer.vectorize_trajectory_ms"] = ms(anywhere, "vectorizer.vectorize_trajectory")
    for backend in ("vlvs", "sql"):
        # Grouped by parent, the benchmark's vectorize phase of one cycle.
        inserts = anywhere.get(f"vecstore.{backend}.insert_batch", [])
        out[f"vecstore.{backend}.insert_batch_ms_p50"] = _median([s.duration / 1e6 for s in inserts])
        out[f"vecstore.{backend}.insert_growth"] = _median(list(_by_parent(
            inserts, lambda s: s.duration, _growth).values()))
    out.update(extra)
    for key, value in out.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {key} is {value}")
    return out
