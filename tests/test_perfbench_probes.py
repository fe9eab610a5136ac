"""Guard: the benchmark still runs against the program.

The traced run (``perfbench/run.py --trace 1``) wraps functions and
methods of veclstm from outside and reads a few fields of the layer
parameter and cache objects, and every run checks the program's output
as it goes (ingest counts, the dataset CSV round trip, store contents,
probabilities). A refactor that renames one of them, or changes what
the data path returns, would otherwise only show up as a failed
benchmark run.
"""

import dataclasses
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.generator import TreeShape, write_geolife_tree  # noqa: E402
from perfbench.layers import Probe  # noqa: E402
from perfbench.spec import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.trace import Tracer, wrap_attributes  # noqa: E402
from perfbench.workloads import Run, Workload, load_program  # noqa: E402

from veclstm import ingest  # noqa: E402
from veclstm.neuralnet import Conv1dParams, LstmParams, LstmSequenceCache  # noqa: E402


def test_every_wrapped_attribute_exists():
    targets = Probe(Tracer("guard")).targets(load_program())
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, name, _ in targets if not callable(getattr(owner, name, None))]
    assert missing == []


def test_fields_the_probes_read_exist():
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert "w_i" in fields(LstmParams)
    assert "kernels" in fields(Conv1dParams)
    assert "input_shape" in fields(LstmSequenceCache)


def test_traced_hybrid_step_names_every_block():
    # One forward and backward under the probes: each model layer call is
    # named by its parameter block, and the work counters read their fields.
    program = load_program()
    spec = program.models.build_hybrid(lstm_units=(4, 3), conv_filters=2, fusion_units=5)
    params = program.models.init_model_params(spec, seed=0)
    rng = np.random.default_rng(0)
    batch = (rng.normal(size=(3, 1, 1)), rng.normal(size=(3, 10, 10)))
    tracer = Tracer("guard")
    with wrap_attributes(Probe(tracer).targets(program)):
        _, cache = program.trainer.model_forward(spec, params, batch, with_cache=True)
        program.trainer.model_backward(spec, params, cache, np.ones((3, 7)))
    names = {s.name for s in tracer.spans}
    for block in ("lstm1", "lstm2", "conv", "pool", "fusion", "head"):
        assert {f"models.{block}.fwd", f"models.{block}.bwd"} <= names, block
    assert not any("unknown" in name for name in names)


def assert_one_loss_span_per_step(spans):
    # The training forward ends at the logits, so softmax_cross_entropy
    # runs once in every traced step.
    steps = [s.span_id for s in spans if s.name == "trainer.step"]
    assert steps
    assert Counter(s.step for s in spans if s.name == "neuralnet.loss") == Counter(steps)


TINY_TREE = TreeShape(users=2, spans_per_user=35, points_per_span=20, spans_per_file=7)


@pytest.mark.parametrize("metadata_feature,arch", [
    ("normalized_speed", "veclstm"), ("cell_density", "hybrid")])
def test_tiny_run_passes_every_check(tmp_path, metadata_feature, arch):
    workload = Workload("tiny", TINY_TREE, metadata_feature, arch, epochs=1,
                        insert_batches=2, step_loop="blas")
    run = Run(workload, seed=1, seconds=0, trace=False, work=tmp_path)
    run.run()
    assert run.ledger.failed == 0, run.ledger.failures
    assert run.ledger.attempted > 0
    metrics = run.end_to_end()
    assert set(metrics) == {m.name for m in END_TO_END}
    assert all(math.isfinite(value) for value in metrics.values())


def test_traced_tiny_run_names_every_split_span(tmp_path):
    # The split, oversampling and grid sampling run through the names the
    # traced run wraps, and every per-layer metric comes out.
    workload = Workload("tiny", TINY_TREE, "cell_density", "hybrid", epochs=1,
                        insert_batches=2, step_loop="blas")
    run = Run(workload, seed=1, seconds=0, trace=True, work=tmp_path)
    run.run()
    assert run.ledger.failed == 0, run.ledger.failures
    assert run.untraced == set()
    # Layers are named by the identity of the parameter arrays that
    # model_forward received, so the float32 copy must be that dict.
    assert not any("unknown" in span.name for span in run.tracer.spans)
    assert_one_loss_span_per_step(run.tracer.spans)
    per_layer = run.per_layer()
    assert set(per_layer) == {m.name for m in PER_LAYER}
    for name in ("trainer.train_test_split_ms", "trainer.random_oversample_ms",
                 "vectorizer.sample_cell_grids_ms"):
        assert per_layer[name] > 0, name


def test_traced_tiny_lstm_run_names_every_span(tmp_path):
    # The LSTM path feeds the model a plain feature array, not a tuple:
    # the repeated-row count and the block names must read it too.
    workload = Workload("tiny", TINY_TREE, "normalized_speed", "veclstm", epochs=1,
                        insert_batches=2, step_loop="blas")
    run = Run(workload, seed=1, seconds=0, trace=True, work=tmp_path)
    run.run()
    assert run.ledger.failed == 0, run.ledger.failures
    assert run.untraced == set()
    assert not any("unknown" in span.name for span in run.tracer.spans)
    assert_one_loss_span_per_step(run.tracer.spans)
    assert set(run.per_layer()) == {m.name for m in PER_LAYER}


def test_ingest_counts_the_points_it_drops(tmp_path):
    expected = write_geolife_tree(tmp_path, 5, TINY_TREE)
    result = ingest.ingest_geolife(tmp_path, strict=True)
    assert result.n_outside_spans == expected.n_unlabeled > 0
    assert result.n_unmapped == expected.n_unmapped > 0
    assert result.n_points == result.n_labeled + result.n_outside_spans + result.n_unmapped


def test_canonical_timestamps_take_one_strptime_per_date(tmp_path, monkeypatch):
    # A regression that sends every row through strptime gives the same
    # timestamps, so only the number of calls shows it.
    write_geolife_tree(tmp_path, 5, TINY_TREE)
    plt_dates = {(path, line.split(",")[5]) for path in tmp_path.rglob("*.plt")
                 for line in path.read_text().splitlines()[6:]}
    label_dates = {(path, stamp.split(" ")[0]) for path in tmp_path.rglob("labels.txt")
                   for line in path.read_text().splitlines()[1:]
                   for stamp in line.split("\t")[:2]}
    calls = []
    parse_utc = ingest._parse_utc
    monkeypatch.setattr(ingest, "_parse_utc",
                        lambda text, fmt: calls.append(text) or parse_utc(text, fmt))
    result = ingest.ingest_geolife(tmp_path, strict=True)
    assert result.n_points > 1000
    assert 0 < len(calls) <= len(plt_dates) + len(label_dates)
