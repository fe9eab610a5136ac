"""The committed benchmark records (BENCH_<n>.json at the repository root)
cover every end-to-end metric of BENCHMARK.json on every workload, over
PAIRS pairs of runs as long as BENCHMARK.json's run_seconds."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from bench_pairs import (PAIRS, SIDES, STDERR_TAIL_LINES, run_once, source_digest,  # noqa: E402
                         summarize)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_has_medians_quartiles_and_wins(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert {"parent", "change"} <= set(doc["env"])
    for side in ("parent", "change"):
        assert {"numpy", "blas_threads", "nproc", "commit"} <= set(doc["env"][side])
    assert doc["seconds"] == BENCHMARK["run_seconds"]
    assert len(doc["seeds"]) == PAIRS
    for workload in BENCHMARK["workloads"]:
        record = doc["workloads"][workload["name"]]
        metrics = record["metrics"]
        for side in SIDES:
            assert len(record["failed"][side]) == PAIRS
        for metric in BENCHMARK["end_to_end"]:
            entry = metrics[metric["name"]]
            where = f"{workload['name']} {metric['name']}"
            for side in ("parent", "change"):
                stats = entry[side]
                assert all(math.isfinite(stats[k]) for k in ("median", "q1", "q3")), where
                assert stats["q1"] <= stats["median"] <= stats["q3"], where
            assert 0 <= entry["change_wins"] + entry["parent_wins"] <= entry["pairs"], where
            assert entry["pairs"] == PAIRS, where
        # the stored wins and claims are those the tool derives from the
        # stored values and failure counts
        runs = {side: [{"metrics": {m["name"]: metrics[m["name"]][side]["values"][i]
                                    for m in BENCHMARK["end_to_end"]},
                        "failed": record["failed"][side][i]} for i in range(PAIRS)]
                for side in SIDES}
        assert summarize(runs, BENCHMARK["end_to_end"]) == metrics, workload["name"]


# The tool hashes each side's src/ from this record on.
DIGEST_RECORDS = [p for p in RECORDS
                  if int(re.fullmatch(r"BENCH_(\d+)\.json", p.name).group(1)) >= 24]


@pytest.mark.parametrize("path", DIGEST_RECORDS, ids=[p.name for p in DIGEST_RECORDS])
def test_record_names_the_source_each_side_ran(path):
    env = json.loads(path.read_text(encoding="utf-8"))["env"]
    for side in SIDES:
        assert re.fullmatch(r"[0-9a-f]{64}", env[side]["src_sha256"]), side
        assert "git_head" in env[side], side


def test_source_digest_follows_paths_and_bytes_only(tmp_path):
    first = tmp_path / "a"
    (first / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (first / "src" / "pkg" / "mod.py").write_bytes(b"x = 1\n")
    (first / "src" / "pkg" / "__init__.py").write_bytes(b"")
    (first / "README.md").write_text("not source")
    second = tmp_path / "b"
    shutil.copytree(first, second)
    digest = source_digest(first)
    assert source_digest(second) == digest
    # mtimes, caches and files outside src/**/*.py do not count
    os.utime(second / "src" / "pkg" / "mod.py", (0, 0))
    (second / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\0")
    (second / "src" / "pkg" / "__pycache__" / "stray.py").write_bytes(b"y = 2\n")
    (second / "README.md").write_text("changed")
    assert source_digest(second) == digest
    # one byte of a source file does
    (second / "src" / "pkg" / "mod.py").write_bytes(b"x = 2\n")
    assert source_digest(second) != digest
    # and so does its path
    (second / "src" / "pkg" / "mod.py").write_bytes(b"x = 1\n")
    assert source_digest(second) == digest
    (second / "src" / "pkg" / "mod.py").rename(second / "src" / "pkg" / "other.py")
    assert source_digest(second) != digest


def test_pair_wins_follow_each_metric_direction():
    runs = {
        "parent": [{"metrics": {"ms": 5.0, "rate": 10.0}, "failed": 0} for _ in range(4)],
        "change": [{"metrics": {"ms": v, "rate": v}, "failed": 0} for v in (4.0, 4.0, 5.0, 6.0)],
    }
    out = summarize(runs, [{"name": "ms", "unit": "ms", "better": "lower"},
                           {"name": "rate", "unit": "1/s", "better": "higher"}])
    assert (out["ms"]["change_wins"], out["ms"]["parent_wins"]) == (2, 1)
    assert (out["rate"]["change_wins"], out["rate"]["parent_wins"]) == (0, 4)
    assert out["ms"]["parent"]["median"] == 5.0 and out["ms"]["change"]["median"] == 4.5
    assert not out["ms"]["claim_met"]
    runs["change"] = [{"metrics": {"ms": 4.0, "rate": 4.0}, "failed": 0} for _ in range(4)]
    assert summarize(runs, [{"name": "ms", "unit": "ms", "better": "lower"}])["ms"]["claim_met"]
    # a gain does not count when the change fails more operations
    runs["change"][2]["failed"] = 1
    assert not summarize(runs, [{"name": "ms", "unit": "ms", "better": "lower"}])["ms"]["claim_met"]
    runs["parent"][0]["failed"] = 1
    assert summarize(runs, [{"name": "ms", "unit": "ms", "better": "lower"}])["ms"]["claim_met"]


def test_failed_run_reports_side_workload_seed_and_stderr_tail(tmp_path, capsys):
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    script.write_text("import sys\n"
                      "for k in range(40):\n"
                      "    print(f'trace line {k}', file=sys.stderr)\n"
                      "sys.exit(3)\n", encoding="utf-8")
    with pytest.raises(subprocess.CalledProcessError):
        run_once("change", tmp_path, "train-hybrid", 907, 0.1)
    err = capsys.readouterr().err
    assert "side change workload train-hybrid seed 907 exit 3" in err
    assert f"trace line {40 - STDERR_TAIL_LINES}" in err and "trace line 39" in err
    assert f"trace line {39 - STDERR_TAIL_LINES}\n" not in err
