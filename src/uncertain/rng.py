"""Counter-based randomness.

Every sampling site derives its own Philox generator from explicit integer
components (global seed, layer index, step, a per-site salt), so results are
reproducible under any execution order and never depend on hidden global
state.  Strings are allowed as salts and are hashed stably.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_SALTS: dict[str, int] = {}  # string salt -> its hash, computed once


def _as_component(part) -> int:
    if isinstance(part, str):
        acc = _SALTS.get(part)
        if acc is None:
            acc = 0
            for ch in part.encode("utf-8"):
                acc = _splitmix64(acc ^ ch)
            _SALTS[part] = acc
        return acc
    return int(part) & _MASK64


def mix(*parts) -> int:
    """Fold integer/string components into one 64-bit key."""
    acc = 0
    for part in parts:
        acc = _splitmix64(acc ^ _as_component(part))
    return acc


def rng_from(*parts) -> np.random.Generator:
    """Philox generator keyed by the mixed components."""
    return np.random.Generator(np.random.Philox(mix(*parts)))


def rademacher(rng: np.random.Generator, shape) -> np.ndarray:
    """Random +/-1 entries as float64."""
    return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
