"""Run alternating parent/change benchmark pairs and record their summary.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --first-seed 501 --out BENCH_<n>.json

--parent and --change are two checkouts, each with its own
``perfbench/run.py`` and ``src/``. Pair i of PAIRS runs every workload of
the change's ``BENCHMARK.json`` once on each side for its ``run_seconds``,
with seed first-seed + i; even pairs run the parent first and odd pairs
the change first. Runs go one at a time, so that the two sides never
share the CPUs.

The output holds each side's environment line, with the sha256 of its
``src/`` tree (``src_sha256``) and, where git can name it, the commit it
has checked out (``git_head``, else null), every run's metrics and,
per workload and end-to-end metric, each side's median and quartiles
over the pairs and the number of pairs the change won (a tie counts for
neither side). ``claim_met`` applies the gain rule: the change wins at
least nine tenths of the pairs, the medians differ by more than the
distance between the parent's quartiles, and the change fails no more
operations than the parent. ``verdict`` applies the no-regression rule
against the metric's ``bound`` in ``BENCHMARK.json``, both relative to
the parent's median (Hoefler & Belli, SC 2015): ``unresolved`` when the
parent's quartiles lie further apart than the bound and not every change
run beats every parent run, else ``worse`` when the change's median is
worse than the parent's by more than the bound, else ``within_bound``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
PAIRS = 10
STDERR_TAIL_LINES = 20


def source_digest(checkout: Path) -> str:
    """sha256 over the sorted relative paths and bytes of checkout's
    src/**/*.py files. Two copies of one tree agree whatever their mtimes,
    and __pycache__ directories are left out."""
    digest = hashlib.sha256()
    files = sorted((path.relative_to(checkout).as_posix(), path)
                   for path in (checkout / "src").rglob("*.py")
                   if "__pycache__" not in path.parts)
    for name, path in files:
        for part in (name.encode("utf-8"), path.read_bytes()):
            digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


def git_head(checkout: Path) -> str | None:
    """The commit checkout has checked out, or None where git cannot tell."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(side: str, checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its environment line and its result line.

    A run that exits non-zero is reported on stderr, with its side,
    workload, seed and the tail of its own stderr, before
    CalledProcessError is raised.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL_LINES:])
        print(f"run failed: side {side} workload {workload} seed {seed}"
              f" exit {proc.returncode}\n{tail}", file=sys.stderr, flush=True)
        proc.check_returncode()
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    return {
        "env": json.loads(env_line)["env"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, pair wins,
    the gain claim and the no-regression verdict.

    runs maps "parent" and "change" to equally long lists of run records
    in pair order, each with its "metrics" and its "failed" count;
    metrics are BENCHMARK.json's end-to-end entries, each with its bound.
    """
    failed = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        pairs = list(zip(values["parent"], values["change"]))
        wins = sum(c < p if lower else c > p for p, c in pairs)
        losses = sum(c > p if lower else c < p for p, c in pairs)
        entry = {side: {**_spread(values[side]), "values": values[side]} for side in SIDES}
        parent_iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
        gap = entry["parent"]["median"] - entry["change"]["median"]
        beats_all = (max(values["change"]) < min(values["parent"]) if lower
                     else min(values["change"]) > max(values["parent"]))
        scale = abs(entry["parent"]["median"])
        if parent_iqr > metric["bound"] * scale and not beats_all:
            verdict = "unresolved"
        elif (-gap if lower else gap) > metric["bound"] * scale:
            verdict = "worse"
        else:
            verdict = "within_bound"
        entry.update(
            unit=metric["unit"], better=metric["better"], pairs=len(pairs),
            change_wins=int(wins), parent_wins=int(losses),
            claim_met=bool(wins >= 0.9 * len(pairs)
                           and (gap if lower else -gap) > parent_iqr
                           and failed["change"] <= failed["parent"]),
            verdict=verdict,
        )
        out[name] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                record = run_once(side, checkouts[side], workload, args.first_seed + i,
                                  seconds)
                runs[workload][side].append(record)
                print(f"pair {i} {workload} {side}: step_ms_p50"
                      f" {record['metrics']['step_ms_p50']:.3f} failed {record['failed']}",
                      file=sys.stderr, flush=True)

    first = runs[workloads[0]]
    doc = {
        "env": {side: {**first[side][0]["env"], "src_sha256": source_digest(checkouts[side]),
                       "git_head": git_head(checkouts[side])} for side in SIDES},
        "seconds": seconds,
        "seeds": [args.first_seed + i for i in range(PAIRS)],
        "workloads": {
            w: {
                "failed": {side: [r["failed"] for r in runs[w][side]] for side in SIDES},
                "attempted": {side: [r["attempted"] for r in runs[w][side]] for side in SIDES},
                "metrics": summarize(runs[w], bench["end_to_end"]),
            }
            for w in workloads
        },
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
