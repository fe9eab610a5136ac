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
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.generator import TreeShape  # noqa: E402
from perfbench.layers import Probe  # noqa: E402
from perfbench.spec import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.trace import Tracer, wrap_attributes  # noqa: E402
from perfbench.workloads import Run, Workload, load_program  # noqa: E402

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
    per_layer = run.per_layer()
    assert set(per_layer) == {m.name for m in PER_LAYER}
    for name in ("trainer.train_test_split_ms", "trainer.random_oversample_ms",
                 "vectorizer.sample_cell_grids_ms"):
        assert per_layer[name] > 0, name
