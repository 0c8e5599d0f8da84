"""Counter-based randomness.

Every sampling site derives its own Philox generator from explicit integer
components (global seed, layer index, step, a per-site salt), so results are
reproducible under any execution order and never depend on hidden global
state.  Strings are allowed as salts and are hashed stably.

``rng_from(*parts)`` seeds ``Philox`` with ``mix(*parts)``, which numpy turns
into a 128-bit key through a ``SeedSequence``.  ``rng_streams(seeds, *parts)``
makes the S streams of a Monte-Carlo sample axis: it runs the ``mix`` chain
(in uint64) and ``SeedSequence``'s hash (in uint32) on arrays holding all S
keys, in one numpy pass, and hands each ``Philox`` its finished key, so
stream s is bitwise ``rng_from(seeds[s], *parts)``.
"""
from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


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


def rng_from(*parts) -> np.random.Generator:
    """Philox generator keyed by the mixed components."""
    return np.random.Generator(np.random.Philox(mix(*parts)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) for the default
# pool of four uint32 words.  Each hashmix call xors its value with the
# current hash constant, advances the constant by one multiplication and
# multiplies by the new one; the constants do not depend on the entropy, so
# the (xor, multiply) pair of every call is precomputed.
def _hash_constants(init, mult, calls):
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, dtype=np.uint32)[:, None]
    return h[:-1], h[1:]


_POOL_XOR, _POOL_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 4)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(values, xor, mul):
    values = (values ^ xor) * mul
    return values ^ (values >> 16)


def _seed_sequence_keys(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(int(e)).generate_state(2, np.uint64)`` for every e of a
    uint64 array, as an [S, 2] uint64 array.

    An entropy below 2**64 has at most two 32-bit words, and SeedSequence
    hashes a missing word as 0, so every key takes the same path.
    """
    words = np.zeros((4, entropy.size), dtype=np.uint32)
    words[0] = entropy & _MASK32
    words[1] = entropy >> 32
    pool = _hashmix(words, _POOL_XOR[:4], _POOL_MUL[:4])
    # every word of the pool mixes into each other one; the three updates
    # of one source word read only it and their own word, so they batch
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        call = 4 + 3 * src
        hashed = _hashmix(pool[src], _POOL_XOR[call:call + 3],
                          _POOL_MUL[call:call + 3])
        mixed = _MIX_L * pool[dst] - _MIX_R * hashed
        pool[dst] = mixed ^ (mixed >> 16)
    state = _hashmix(pool, _STATE_XOR, _STATE_MUL).astype(np.uint64)
    # the uint32 words pair up little-endian into uint64 key words
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32],
                    axis=1)


class _PhiloxKey(ISeedSequence):
    """A seed sequence that hands ``Philox`` a key derived beforehand."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def rng_streams(seeds, *parts) -> list[np.random.Generator]:
    """``[rng_from(s, *parts) for s in seeds]``, bitwise, with every key
    derived in one numpy pass."""
    acc = _splitmix64(np.array([_as_component(s) for s in seeds],
                               dtype=np.uint64))
    for part in parts:
        acc = _splitmix64(acc ^ _as_component(part))
    return [np.random.Generator(np.random.Philox(_PhiloxKey(key)))
            for key in _seed_sequence_keys(acc)]


def rademacher(rng: np.random.Generator, shape) -> np.ndarray:
    """Random +/-1 entries as float64."""
    return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
