"""What the benchmark measures: workloads and metrics, with the reasoning.

``BENCHMARK.json`` at the repository root is rendered from this module
(``python3 -m perfbench.spec > BENCHMARK.json``) and a test keeps the two
equal. The fields that file may not carry live only here: which
workload each end-to-end metric is aimed at, and which end-to-end metric
each per-layer metric is predicted to move, on which workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 35


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    aimed_at: tuple[str, ...]  # workloads whose work this metric is about
    what: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str  # predicted end-to-end metric it moves, and on which workload


TRAIN = ("train-veclstm", "train-hybrid")
ALL = TRAIN + ("ingest-store",)

WORKLOADS = (
    WorkloadSpec("train-veclstm",
                 "VECLSTM on normalized_speed: LSTM+dense+Adam, no conv, <10% repeated rows per"
                 " batch; the control on which a conv or dedup change must show no change"),
    WorkloadSpec("train-hybrid",
                 "HYBRID on cell_density: conv, pool and fusion take a large share of the step and"
                 " >80% of batch rows repeat, so dedup or a cell-index input can show here"),
    WorkloadSpec("ingest-store",
                 "3e4 PLT points ingested, 1.5e3 segment heatmaps appended in 100 batches to VLVS"
                 " and sqlite, then a fetch mix on the same stores; NN work is one small epoch"),
)

# Every run reports every end-to-end metric, so every workload runs every
# stage; aimed_at names the workloads whose work a metric is about.
# Every timing is scaled to a fixed host speed by a calibration loop timed
# beside it (hostspeed.py): on a shared 2-CPU virtual machine the same
# code ran up to 1.8x slower for seconds to minutes at a time. Timing
# bounds are 0.25, the most allowed.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, ALL,
             "median set-up over the run's cycles (2 or more): store open + init_schema"
             " on both backends, read_dataset_csv, prepare_splits, init_model_params"),
    EndToEnd("train_samples_per_s", "samples/s", "higher", 0.25, TRAIN,
             "training rows x epochs / time of train_model less the calibration loops"
             " after its steps, median over cycles"),
    EndToEnd("step_ms_p50", "ms", "lower", 0.25, TRAIN,
             "median training step, adam_step end to adam_step end less the calibration"
             " loop between them (fwd + loss + bwd + Adam + loop glue)"),
    EndToEnd("final_loss", "nats", "lower", 0.2, TRAIN,
             "mean training loss of the last epoch at the seed"),
    EndToEnd("eval_samples_per_s", "samples/s", "higher", 0.25, TRAIN,
             "test rows / (predict + evaluate_classifier), median of 5 per cycle"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1, ALL,
             "peak resident set of the workload's process"),
    EndToEnd("ingest_points_per_s", "points/s", "higher", 0.25, ("ingest-store",),
             "PLT points / (ingest_geolife + write_dataset_csv), median of 3 per cycle"),
    EndToEnd("csv_load_rows_per_s", "rows/s", "higher", 0.25, ("ingest-store",),
             "dataset rows / read_dataset_csv, median of 3 per cycle"),
    EndToEnd("vectorize_records_per_s.vlvs", "records/s", "higher", 0.25, ("ingest-store",),
             "records / (vectorize_trajectory + insert_batch) into the VLVS file, median batch"),
    EndToEnd("vectorize_records_per_s.sql", "records/s", "higher", 0.25, ("ingest-store",),
             "records / (vectorize_trajectory + insert_batch) into sqlite, median batch"),
    EndToEnd("fetch_ms_p50.vlvs", "ms", "lower", 0.25, ("ingest-store",),
             "median latency of the fetch mix (100 per cycle) on the VLVS file"),
    EndToEnd("fetch_ms_p50.sql", "ms", "lower", 0.25, ("ingest-store",),
             "median latency of the fetch mix (100 per cycle) on sqlite"),
    EndToEnd("fetch_ms_p95.vlvs", "ms", "lower", 0.25, ("ingest-store",),
             "95th-percentile latency of the fetch mix (100 per cycle) on the VLVS file"),
    EndToEnd("fetch_ms_p95.sql", "ms", "lower", 0.25, ("ingest-store",),
             "95th-percentile latency of the fetch mix (100 per cycle) on sqlite"),
)

_STEP = "step_ms_p50 and train_samples_per_s on both train workloads"


def _blocks() -> list[PerLayer]:
    out = []
    for block in ("lstm1", "lstm2"):
        out.append(PerLayer(f"models.{block}.fwd_ms", "ms", "lower",
                            _STEP + "; also eval_samples_per_s"))
        out.append(PerLayer(f"models.{block}.bwd_ms", "ms", "lower", _STEP))
    for block in ("conv", "pool", "fusion"):
        for way in ("fwd", "bwd"):
            out.append(PerLayer(f"models.{block}.{way}_ms", "ms", "lower",
                                "step_ms_p50 and train_samples_per_s on train-hybrid only;"
                                " zero calls on train-veclstm"))
    for way in ("fwd", "bwd"):
        out.append(PerLayer(f"models.head.{way}_ms", "ms", "lower", "step_ms_p50 on both train workloads"))
    for block in ("lstm1", "lstm2", "conv", "pool", "fusion", "head"):
        out.append(PerLayer(f"models.{block}.calls", "count", "lower",
                            "which train workload exercises the block (calls inside training steps)"))
    return out


PER_LAYER = tuple(_blocks()) + (
    PerLayer("models.forward.self_ms", "ms", "lower", "step_ms_p50 on both train workloads"),
    PerLayer("models.backward.self_ms", "ms", "lower", "step_ms_p50 on both train workloads"),
    PerLayer("models.step_mflop", "Mmadd", "lower",
             "step_ms_p50 on both train workloads (exact multiply-adds per step, from call shapes)"),
    PerLayer("neuralnet.loss_ms", "ms", "lower", "step_ms_p50 on both train workloads"),
    PerLayer("trainer.adam_ms", "ms", "lower", "train_samples_per_s on both train workloads"),
    PerLayer("trainer.step.self_ms", "ms", "lower", "train_samples_per_s on both train workloads"),
    PerLayer("trainer.step_ms_p95", "ms", "lower", "train_samples_per_s on both train workloads"),
    PerLayer("trainer.evaluate_loss_ms", "ms", "lower", "train_samples_per_s on both train workloads"),
    PerLayer("trainer.dup_row_share", "ratio", "higher",
             "workload property that decides whether batch dedup can move step_ms_p50:"
             " <0.1 on train-veclstm, >0.8 on train-hybrid"),
    PerLayer("trainer.predict_ms", "ms", "lower", "eval_samples_per_s on both train workloads"),
    PerLayer("metrics.evaluate_classifier_ms", "ms", "lower", "eval_samples_per_s on both train workloads"),
    PerLayer("cli.prepare_splits.self_ms", "ms", "lower", "setup_s on both train workloads"),
    PerLayer("trainer.train_test_split_ms", "ms", "lower", "setup_s on both train workloads"),
    PerLayer("trainer.random_oversample_ms", "ms", "lower", "setup_s on both train workloads"),
    PerLayer("vectorizer.sample_cell_grids_ms", "ms", "lower", "setup_s on train-hybrid"),
    PerLayer("vectorizer.grid_mb", "MB", "lower", "setup_s and peak_rss_mb on train-hybrid"),
    PerLayer("ingest.read_dataset_csv_ms", "ms", "lower",
             "setup_s on the train workloads; csv_load_rows_per_s on ingest-store"),
    PerLayer("ingest.parse_plt_ms", "ms", "lower", "ingest_points_per_s on ingest-store"),
    PerLayer("ingest.parse_labels_ms", "ms", "lower", "ingest_points_per_s on ingest-store"),
    PerLayer("ingest.assign_labels_ms", "ms", "lower", "ingest_points_per_s on ingest-store"),
    PerLayer("ingest.build_dataset_ms", "ms", "lower", "ingest_points_per_s on ingest-store"),
    PerLayer("ingest.write_dataset_csv_ms", "ms", "lower", "ingest_points_per_s on ingest-store"),
    PerLayer("ingest.labeled_share", "ratio", "higher",
             "labeled / parsed points: the share of ingest work that reaches the dataset"),
    PerLayer("vectorizer.vectorize_trajectory_ms", "ms", "lower",
             "both vectorize_records_per_s metrics on ingest-store"),
) + tuple(
    PerLayer(f"vecstore.{b}.{m}", unit, "lower", moves)
    for b in ("vlvs", "sql")
    for m, unit, moves in (
        ("insert_batch_ms_p50", "ms", f"vectorize_records_per_s.{b} on ingest-store"),
        ("insert_growth", "ratio",
         f"vectorize_records_per_s.{b} on ingest-store (last tenth of batches / first tenth)"),
        ("write_bytes_per_record", "B/record", f"vectorize_records_per_s.{b} on ingest-store"),
        ("read_bytes_per_fetch", "B/fetch", f"fetch_ms_p50.{b} and fetch_ms_p95.{b} on ingest-store"),
    )
) + (
    PerLayer("trace.overhead_pct", "%", "lower",
             "none: traced vs untraced step_ms_p50 in the same process"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    print(render(), end="")
