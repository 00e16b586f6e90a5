"""Seed derivation and bounded draws from raw words."""
from __future__ import annotations

import numpy as np
import pytest

from sdwtc.rng import bounded_draws, derive_seeds

_MASK = (1 << 64) - 1


def _stepped_seeds(master, count):
    """The splitmix64 stream stepped one state at a time, on Python ints."""
    state, seeds = master & _MASK, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        seeds.append(z ^ (z >> 31))
    return seeds


@pytest.mark.parametrize("master", [0, 1, -1, 2**63, 2**64 - 1, 12345678901234567890])
@pytest.mark.parametrize("count", [0, 1, 3, 1000])
def test_closed_form_seeds_equal_the_stepped_stream(master, count):
    seeds = derive_seeds(master, count)
    assert seeds == _stepped_seeds(master, count)
    assert all(type(s) is int for s in seeds)


@pytest.mark.parametrize("master", [0, 2**63, 2**64 - 1])
@pytest.mark.parametrize("a, b", [(0, 5), (3, 0), (7, 1000), (1000, 7)])
def test_an_offset_continues_the_stream(master, a, b):
    assert derive_seeds(master, a + b) == derive_seeds(master, a) + derive_seeds(master, b, start=a)


# small ranges, ranges where Lemire's rejection fires often (3 * 2^30 rejects
# a quarter of the half-words), and the widest range below 2^32
_RANGES = (2, 3, 5, 7, 12, 16, 100, 3 * 2**30, 2**31 + 1, 2**32 - 1)


@pytest.mark.parametrize("k", _RANGES)
def test_bounded_draws_are_generator_integers(k):
    for seed in range(60):
        want, got = np.random.default_rng(seed), np.random.default_rng(seed)
        pick = bounded_draws(got.bit_generator, k)
        for _ in range(40):
            assert pick() == want.integers(k)
            # whole-word draws in between leave the half-word buffer alone
            assert np.array_equal(got.standard_normal(3), want.standard_normal(3))


@pytest.mark.parametrize("k", (1, 5, 3 * 2**30))
@pytest.mark.parametrize("draws", (1, 2, 7))
def test_bounded_draws_leave_the_stream_where_integers_does(k, draws):
    for seed in range(20):
        want, got = np.random.default_rng(seed), np.random.default_rng(seed)
        pick = bounded_draws(got.bit_generator, k)
        assert [pick() for _ in range(draws)] == [int(want.integers(k)) for _ in range(draws)]
        assert np.array_equal(got.standard_normal(5), want.standard_normal(5))
        assert got.random() == want.random()


def test_a_range_of_one_draws_nothing():
    gen = np.random.default_rng(7)
    before = gen.bit_generator.state
    pick = bounded_draws(gen.bit_generator, 1)
    assert [pick() for _ in range(5)] == [0] * 5
    assert gen.bit_generator.state == before
    assert gen.integers(1) == 0 and gen.bit_generator.state == before


@pytest.mark.parametrize("k", (5, 3 * 2**30))
def test_a_buffered_half_word_is_taken_over(k):
    for seed in range(40):
        want, got = np.random.default_rng(seed), np.random.default_rng(seed)
        want.integers(k)
        got.integers(k)
        if not got.bit_generator.state["has_uint32"]:
            continue  # the first draw was rejected and used both halves
        pick = bounded_draws(got.bit_generator, k)
        assert got.bit_generator.state["has_uint32"] == 0
        assert [pick() for _ in range(6)] == [int(want.integers(k)) for _ in range(6)]
        assert np.array_equal(got.standard_normal(2), want.standard_normal(2))


def test_bounded_draws_refuse_other_generators_and_ranges():
    for bit_generator in (np.random.PCG64DXSM(1), np.random.MT19937(1), np.random.Philox(1)):
        with pytest.raises(TypeError, match="PCG64"):
            bounded_draws(bit_generator, 5)
    for k in (0, -1, 2**32, 2**40):
        with pytest.raises(ValueError, match=r"\[1, 2\^32\)"):
            bounded_draws(np.random.PCG64(1), k)
    with pytest.raises(TypeError):
        bounded_draws(np.random.PCG64(1), 2.5)
