"""Deterministic seed derivation.

Child seeds are the outputs of a splitmix64 stream seeded by the master
seed, so restart r / trial t always sees the same generator.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


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
