"""Counter-based randomness.

Every sampling site derives its own Philox generator from explicit
components (call seed, the layer's path, step, a per-site salt), so results
are reproducible under any execution order and never depend on hidden global
state.  Strings are allowed as components and are hashed stably.

``mix(*parts)`` folds the components into one 64-bit value, and
``rng_from(*parts)`` hands it to ``Philox`` as the key (mix, 0) directly, with
no ``SeedSequence`` in between: a counter-based generator takes one key per
stream (Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2, 3").
``mix_each`` runs the ``mix`` chain on a uint64 array, one key per entry of a
sequence part, in one numpy pass.  ``rng_streams(seeds, *parts)`` holds the S
keys of a Monte-Carlo sample axis; its ``standard_normal(shape)`` draws all S
samples with one ``Philox``, re-keyed for each sample (counter 0, buffer
empty), so slice s is bitwise
``rng_from(seeds[s], *parts).standard_normal(shape)``.
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


def mix_each(*parts) -> list[int]:
    """``mix`` once per entry of the part that is a sequence of ints (a
    list, tuple or range), with the chain run on uint64 arrays: entry s is
    bitwise ``mix`` of the parts with that entry in the sequence's place."""
    acc = np.zeros(1, dtype=np.uint64)
    for part in parts:
        if isinstance(part, (list, tuple, range)):
            # a plain int is masked inline, as _as_component would
            part = np.array([p & _MASK64 if type(p) is int else _as_component(p)
                             for p in part], dtype=np.uint64)
        else:
            part = np.uint64(_as_component(part))
        acc = _splitmix64(acc ^ part)
    return acc.tolist()


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


class Streams:
    """The S Philox streams of a Monte-Carlo sample axis, held as their keys
    (``mix`` of each seed and the parts)."""

    def __init__(self, keys):
        self.keys = keys

    def standard_normal(self, shape) -> np.ndarray:
        """[S, *shape] standard normals, slice s bitwise
        ``rng_from(seeds[s], *parts).standard_normal(shape)``: one ``Philox``
        is re-keyed through its ``state`` setter for each sample, counter 0
        and buffer empty as a fresh generator starts.  Every call starts the
        streams afresh, so no draw depends on an earlier one."""
        out = np.empty((len(self.keys),) + tuple(shape))
        bits = np.random.Philox(_PhiloxKey(np.zeros(2, dtype=np.uint64)))
        draw = np.random.Generator(bits).standard_normal
        key = [0, 0]
        state = {"bit_generator": "Philox",
                 "state": {"counter": [0, 0, 0, 0], "key": key},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for s, k in enumerate(self.keys):
            key[0] = k
            bits.state = state
            # out[s, ...] is a view even for a 0-d shape, where out[s] is a scalar
            draw(out=out[s, ...])
        return out


def rng_streams(seeds, *parts) -> Streams:
    """The streams ``rng_from(s, *parts)`` for s in ``seeds``, their keys
    derived together by ``mix_each``."""
    return Streams(mix_each(tuple(seeds), *parts))


def rademacher(rng: np.random.Generator, shape) -> np.ndarray:
    """Random +/-1 entries as float64."""
    return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
