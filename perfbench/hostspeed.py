"""Host-speed correction for the end-to-end timings.

On a shared virtual machine the CPU this process runs on changed speed
by up to 1.8x, in spells lasting from seconds to over a minute, with no
other load in the process. A run of 35 s can sit inside one spell, so
medians over a run moved between runs by more than any bound the
benchmark may set. Interpreter-bound work (parsing, formatting, object
building) and BLAS-bound work slowed by different amounts.

So every end-to-end timing is taken beside a fixed calibration loop of
the same kind, and scaled by ``NOMINAL_S[kind] / loop time``: it reads
as the time the operation would take on a host where the loop takes its
nominal time. The program never runs inside a loop, so a slower program
still reads slower by the same share. Over ten-second windows of a few
minutes of a fixed mix of ingest, CSV loading and matrix products, the
raw medians varied by 1.42x to 1.76x and the scaled ones by 1.04x to
1.06x.

A traced run does not calibrate: its spans are raw times, and the
calibration loops would sit inside its step spans.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

# Loop times on this benchmark's reference host (2 vCPUs of a shared
# x86-64 virtual machine, Python 3.11, numpy 2.4 with OpenBLAS on one
# thread) in a typical spell; any fixed value would do.
NOMINAL_S = {"python": 2.0e-3, "blas": 1.7e-3}
NOMINAL_S["mixed"] = NOMINAL_S["python"] + NOMINAL_S["blas"]

_LOOP_LINES = 400
_LOOP_A = np.random.default_rng(0).standard_normal((256, 64))
_LOOP_B = np.random.default_rng(1).standard_normal((64, 256))
_LOOP_OUT = np.empty((256, 256))  # written in place: the loop allocates nothing


def _python_loop() -> None:
    """Format and parse PLT-like lines: the kind of work ingest does."""
    rows = []
    for i in range(_LOOP_LINES):
        line = f"{39.9 + i * 1e-6:.6f},{116.4 - i * 1e-6:.6f},0,{i % 500},{39000 + i / 86400:.10f}"
        rows.append([float(x) for x in line.split(",")])


def _blas_loop() -> None:
    """Small matrix products and tanh: the kind of work a training step does."""
    for _ in range(4):
        np.matmul(_LOOP_A, _LOOP_B, out=_LOOP_OUT)
        np.tanh(_LOOP_OUT, out=_LOOP_OUT)


def _mixed_loop() -> None:
    _python_loop()
    _blas_loop()


LOOPS: dict[str, Callable[[], None]] = {
    "python": _python_loop, "blas": _blas_loop, "mixed": _mixed_loop}


class HostSpeed:
    """Calibration loops and the scaling they give; inert when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.loop_s: dict[str, list[float]] = {kind: [] for kind in LOOPS}

    def loop(self, kind: str) -> float:
        """Time one calibration loop of ``kind`` now (the nominal time when disabled)."""
        if not self.enabled:
            return NOMINAL_S[kind]
        t0 = time.perf_counter()
        LOOPS[kind]()
        seconds = time.perf_counter() - t0
        self.loop_s[kind].append(seconds)
        return seconds

    @staticmethod
    def scale(seconds: float, kind: str, *loop_s: float) -> float:
        """``seconds`` at the nominal host speed, given loop times measured beside it."""
        return seconds * NOMINAL_S[kind] * len(loop_s) / sum(loop_s)

    def time(self, kind: str, fn: Callable, *args, **kwargs):
        """(result, corrected seconds) of one call, with a loop before and after it."""
        before = self.loop(kind)
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        return out, self.scale(seconds, kind, before, self.loop(kind))

    def speed(self) -> dict[str, float | None]:
        """Median nominal / measured loop time per kind: below 1 on a slow host."""
        return {kind: (NOMINAL_S[kind] / float(np.median(v)) if v else None)
                for kind, v in self.loop_s.items()}
