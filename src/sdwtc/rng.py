"""Deterministic seed derivation.

Child seeds are the outputs of a splitmix64 stream seeded by the master
seed, so restart r / trial t always sees the same generator.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def derive_seeds(master: int, count: int) -> list[int]:
    """The first count outputs of the splitmix64 stream at master, in order.

    The stream's state after k steps is master + k * 0x9E3779B97F4A7C15
    mod 2**64, so every output is mixed from its state in one uint64 array
    pass (array arithmetic wraps silently, where numpy scalars warn)."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(master & _MASK)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> 31)).tolist()
