"""Seeded Glorot-uniform initialization (Glorot & Bengio, AISTATS 2010)."""

from __future__ import annotations

import numpy as np


def glorot_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int
) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float64)
