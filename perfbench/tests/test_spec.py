import json
import re
from pathlib import Path

from perfbench import spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
ROOT = Path(__file__).resolve().parents[2]


def test_every_metric_has_a_valid_name_unit_and_direction():
    metrics = spec.END_TO_END + spec.PER_LAYER
    names = [m.name for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m.name), m.name
        assert UNIT.fullmatch(m.unit), m.unit
        assert m.better in ("higher", "lower"), m.name


def test_bounds_and_setup_metric():
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")


def test_workloads_and_pairings_are_declared():
    names = {w.name for w in spec.WORKLOADS}
    assert names == {"train-veclstm", "train-hybrid", "ingest-store"}
    for m in spec.END_TO_END:
        assert set(m.aimed_at) <= names and m.aimed_at, m.name
    for m in spec.PER_LAYER:
        assert m.moves, m.name


def test_benchmark_json_is_rendered_from_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.benchmark_json()
    for w in on_disk["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
