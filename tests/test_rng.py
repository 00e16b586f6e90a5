"""Seed derivation."""
from __future__ import annotations

import pytest

from sdwtc.rng import derive_seeds

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
