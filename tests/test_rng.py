"""Counter-based keys: the mixed values are pinned across refactors."""
import numpy as np
import pytest

from uncertain.rng import mix, mix_each, rng_from, rng_streams

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


STREAM_SEEDS = [mix(7, "predict", s) for s in range(40)] + [0, 1, 2**64 - 1, -1]


def test_rng_streams_equal_per_seed_generators():
    streams = rng_streams(STREAM_SEEDS, 3, "function")
    assert len(STREAM_SEEDS) == 44
    compared = 0
    for shape in [(), (6,), (61, 4)]:
        got = streams.standard_normal(shape)
        assert got.shape == (44,) + shape
        for seed, drawn in zip(STREAM_SEEDS, got):
            want = rng_from(seed, 3, "function").standard_normal(shape)
            assert drawn.tobytes() == want.tobytes()
            compared += 1
    assert compared == 3 * 44


def test_a_second_draw_does_not_depend_on_the_first():
    # each draw starts every stream afresh, as a new rng_from generator does
    streams = rng_streams(STREAM_SEEDS, "site")
    streams.standard_normal((3,))
    second = streams.standard_normal((61, 4))
    fresh = rng_streams(STREAM_SEEDS, "site").standard_normal((61, 4))
    assert second.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, -1])
def test_mix_each_is_the_mix_loop(seed):
    want = [mix(seed, "predict", s) for s in range(100)]
    got = mix_each(seed, "predict", range(100))
    assert len(got) == 100 and got == want
    assert all(type(key) is int for key in got)
    # the sequence may stand in any place
    assert mix_each(range(5), seed, "kernel") == [
        mix(s, seed, "kernel") for s in range(5)]
    # entries that a 64-bit mask changes, numpy integers and other types
    entries = [-1, -(2**63), -(2**70) + 3, 2**63, 2**64 - 1, 2**64, 2**70 + 5,
               np.int64(-7), np.uint64(2**64 - 2), np.int32(9), True, "s"]
    for seq in (entries, tuple(entries)):
        got = mix_each(seed, "predict", seq)
        assert got == [mix(seed, "predict", e) for e in entries]
        assert all(type(key) is int for key in got)


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
