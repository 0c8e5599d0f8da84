"""Counter-based randomness.

Every sampling site derives its own Philox generator from explicit
components (call seed, the layer's path, step, a per-site salt), so results
are reproducible under any execution order and never depend on hidden global
state.  Strings are allowed as components and are hashed stably.

``mix(*parts)`` folds the components into one 64-bit value, and
``rng_from(*parts)`` hands it to ``Philox`` as the key (mix, 0) directly, with
no ``SeedSequence`` in between: a counter-based generator takes one key per
stream (Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2, 3").
``rng_streams(seeds, *parts)`` makes the S streams of a Monte-Carlo sample
axis: it runs the ``mix`` chain on a uint64 array holding all S keys in one
numpy pass, so stream s is bitwise ``rng_from(seeds[s], *parts)``.
"""
from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1


def _splitmix64(z):
    """One splitmix64 round on a Python int or, wrapping, a uint64 array."""
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


class _PhiloxKey(ISeedSequence):
    """A seed sequence that hands ``Philox`` its two uint64 key words."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def rng_from(*parts) -> np.random.Generator:
    """Philox generator keyed by the mixed components: bitwise
    ``Generator(Philox(key=mix(*parts)))``."""
    key = np.array([mix(*parts), 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def rng_streams(seeds, *parts) -> list[np.random.Generator]:
    """``[rng_from(s, *parts) for s in seeds]``, bitwise, with the ``mix``
    chain of every key run in one numpy pass."""
    acc = _splitmix64(np.array([_as_component(s) for s in seeds],
                               dtype=np.uint64))
    for part in parts:
        acc = _splitmix64(acc ^ _as_component(part))
    keys = np.zeros((acc.size, 2), dtype=np.uint64)
    keys[:, 0] = acc
    return [np.random.Generator(np.random.Philox(_PhiloxKey(key)))
            for key in keys]


def rademacher(rng: np.random.Generator, shape) -> np.ndarray:
    """Random +/-1 entries as float64."""
    return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
