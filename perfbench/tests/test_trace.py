import types

import numpy as np
import pytest

from perfbench.layers import dup_row_share
from perfbench.trace import Span, Tracer, self_times, wrap_attributes


def span(span_id, start, end, parent=None):
    return Span(span_id=span_id, name=f"s{span_id}", start=start, end=end,
                parent=parent, run_id="r")


def test_self_time_subtracts_children_once():
    spans = [
        span(0, 0, 100),
        span(1, 10, 30, parent=0),
        span(2, 25, 50, parent=0),     # overlaps span 1 by 5
        span(3, 60, 70, parent=0),
        span(4, 12, 18, parent=1),     # grandchild: only span 1 loses it
        span(5, 95, 120, parent=0),    # runs past its parent's end
    ]
    selfs = self_times(spans)
    assert selfs[0] == 100 - (40 + 10 + 5)
    assert selfs[1] == 20 - 6
    assert selfs[2] == 25
    assert selfs[3] == 10
    assert selfs[4] == 6
    assert selfs[5] == 25


def test_tracer_links_parents_and_skips_open_spans():
    tracer = Tracer("run")
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    still_open = tracer.open("open")
    assert inner.parent == outer.span_id and inner.run_id == "run"
    assert outer.parent is None and still_open.parent is None
    assert still_open.span_id not in self_times(tracer.spans)


def test_wrap_attributes_restores_and_reports_missing():
    module = types.ModuleType("fake")
    module.f = lambda x: x + 1
    original = module.f
    calls = []

    def make(fn):
        def wrapped(x):
            calls.append(x)
            return fn(x)
        return wrapped

    missing = set()
    with wrap_attributes([(module, "f", make), (module, "absent", make)], missing):
        assert module.f(1) == 2
    assert calls == [1]
    assert missing == {"fake.absent"}
    assert module.f is original
    with pytest.raises(AttributeError):
        with wrap_attributes([(module, "f", make), (module, "absent", make)]):
            pass
    assert module.f is original


def test_dup_row_share_counts_repeats_of_earlier_rows():
    meta = np.array([[[0.1]], [[0.1]], [[0.2]], [[0.1]]])
    grids = np.zeros((4, 2, 2))
    grids[:, 0, 0] = 1.0
    grids[2, 0, 0] = 0.0
    assert dup_row_share(meta) == 0.5
    assert dup_row_share((meta, grids)) == 0.5
    grids[1, 1, 1] = 1.0
    assert dup_row_share((meta, grids)) == 0.25
