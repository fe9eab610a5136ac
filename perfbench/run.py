"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-veclstm --seed 1 --seconds 35 --trace 0

Run from the repository root. The program is imported from ``src/``.
Inputs come from the seed alone. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
traced run with ``--trace 1``. The line before it records the
environment. A traced run also writes its spans to
``perfbench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text(encoding="utf-8").strip() if target.is_file() else None
    return ref


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One process makes the load and its layers run one after another.
    # A second BLAS thread spin-waits whenever another process holds the
    # other CPU, which made training steps up to 16x slower on a shared
    # 2-CPU machine; one thread keeps the figures about the program.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "veclstm" / "__init__.py").is_file():
        print(f"no veclstm package under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench.spec import END_TO_END, PER_LAYER, UNITS
    from perfbench.workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    work = ROOT / "perfbench" / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
        run.run()
        values = run.end_to_end()
        if args.trace:
            values = run.per_layer()
            run.tracer.write(
                ROOT / "perfbench" / "out" / f"trace-{args.workload}-{args.seed}.json",
                {"env": env, "workload": args.workload, "per_layer": values,
                 "untraced_attributes": sorted(run.untraced)})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = {m.name for m in (PER_LAYER if args.trace else END_TO_END)}
    if set(values) != declared:
        raise RuntimeError(f"metrics differ from the declared set: {sorted(set(values) ^ declared)}")

    env["host_speed"] = run.host.speed()
    for failure in run.ledger.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
