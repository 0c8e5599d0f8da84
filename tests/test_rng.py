"""Counter-based keys: the mixed values are pinned across refactors."""
import numpy as np
import pytest

from uncertain.rng import mix, rng_from, rng_streams

# values of mix(...) before string salts were cached; any change to the
# hashing would silently move every random stream in the package
PINNED = [
    ((0,), 16294208416658607535),
    (("function",), 15607668743192762500),
    ((0, 3, "function"), 370483501463403200),
    ((7, "predict", 99), 17011716370085370698),
    ((2**63 + 5, "kernel", "bias", -1), 14382088405546196526),
    (("",), 16294208416658607535),
    (("héllo", 12), 1762486607589942790),
]


@pytest.mark.parametrize("parts,want", PINNED)
def test_mix_is_pinned(parts, want):
    assert mix(*parts) == want
    assert mix(*parts) == want  # a cached salt gives the same key


def test_rng_from_reads_the_mixed_key():
    a = rng_from(3, "kernel").standard_normal(4)
    b = rng_from(3, "kernel").standard_normal(4)
    assert a.tobytes() == b.tobytes()
    assert rng_from(3, "bias").standard_normal(4).tobytes() != a.tobytes()


def test_rng_streams_equal_per_seed_generators():
    seeds = [mix(7, "predict", s) for s in range(40)] + [0, 1, 2**64 - 1, -1]
    streams = rng_streams(seeds, 3, "function")
    assert len(streams) == len(seeds)
    for seed, got in zip(seeds, streams):
        want = rng_from(seed, 3, "function")
        assert got.standard_normal(6).tobytes() == want.standard_normal(6).tobytes()
        assert got.integers(0, 2**62, 4).tobytes() == want.integers(0, 2**62, 4).tobytes()


@pytest.mark.parametrize("parts", [part for part, _ in PINNED])
def test_rng_from_is_philox_keyed_by_mix(parts):
    # numpy's documented constructor: the key (mix, 0) with no SeedSequence
    want = np.random.Generator(np.random.Philox(key=mix(*parts)))
    got = rng_from(*parts)
    for field in ("counter", "key"):
        assert (got.bit_generator.state["state"][field].tobytes()
                == want.bit_generator.state["state"][field].tobytes())
    assert got.standard_normal(8).tobytes() == want.standard_normal(8).tobytes()
    assert got.integers(0, 2**62, 4).tobytes() == want.integers(0, 2**62, 4).tobytes()
