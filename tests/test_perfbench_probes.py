"""Guard: every program attribute the traced benchmark wraps or reads exists.

The traced run (``perfbench/run.py --trace 1``) wraps functions and
methods of veclstm from outside and reads a few fields of the layer
parameter and cache objects. A refactor that renames one of them would
otherwise only show up as a failed traced run.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import Probe  # noqa: E402
from perfbench.trace import Tracer, wrap_attributes  # noqa: E402
from perfbench.workloads import load_program  # noqa: E402

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
