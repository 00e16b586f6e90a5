"""Deterministic seed derivation and bounded draws read from raw words.

Child seeds are the outputs of a splitmix64 stream seeded by the master
seed, so restart r / trial t always sees the same generator.
"""
from __future__ import annotations

import operator
from typing import Callable

import numpy as np

_MASK = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def derive_seeds(master: int, count: int, start: int = 0) -> list[int]:
    """count outputs of the splitmix64 stream at master, in order, from
    output start on: derive_seeds(master, start + count)[start:].

    The stream's state after k steps is master + k * 0x9E3779B97F4A7C15
    mod 2**64, so every output is mixed from its state in one uint64 array
    pass (array arithmetic wraps silently, where numpy scalars warn), and
    the offset costs nothing."""
    steps = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = steps * np.uint64(0x9E3779B97F4A7C15) + np.uint64(master & _MASK)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> 31)).tolist()


def bounded_draws(bit_generator: np.random.PCG64, k: int) -> Callable[[], int]:
    """A callable whose successive calls give what successive
    Generator(bit_generator).integers(k) calls give, as Python ints, at a
    fraction of their cost.

    numpy draws integers(k) for k < 2^32 by Lemire's multiply-shift on
    PCG64's 32-bit half-words: x = next_uint32(), redrawn while
    (x k) mod 2^32 < (2^32 - k) mod k, and the pick is (x k) >> 32;
    next_uint32 takes the low half of a fresh 64-bit word and keeps the
    high half for the next half-word.  Here the words come from
    bit_generator.random_raw() and the kept half lives in the callable,
    taken over from the bit generator's own buffer (has_uint32) when one is
    set.  Whole-word draws made between calls, such as standard_normal's,
    never touch that buffer, so the stream is numpy's own.  k == 1 draws
    nothing, as numpy does."""
    if type(bit_generator) is not np.random.PCG64:
        raise TypeError(f"bounded draws follow PCG64's half-word buffer, got {type(bit_generator).__name__}")
    k = operator.index(k)
    if not 1 <= k <= _MASK32:
        raise ValueError(f"k must lie in [1, 2^32), got {k}")
    if k == 1:
        return lambda: 0
    threshold = ((1 << 32) - k) % k
    raw = bit_generator.random_raw
    state = bit_generator.state
    half = state["uinteger"] if state["has_uint32"] else None
    if half is not None:
        bit_generator.state = {**state, "has_uint32": 0, "uinteger": 0}

    def draw() -> int:
        nonlocal half
        while True:
            if half is None:
                word = raw()
                m, half = (word & _MASK32) * k, word >> 32
            else:
                m, half = half * k, None
            if m & _MASK32 >= threshold:
                return m >> 32

    return draw
