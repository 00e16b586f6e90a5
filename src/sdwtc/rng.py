"""Deterministic seed derivation.

Child seeds are the outputs of a splitmix64 stream seeded by the master
seed, so restart r / trial t always sees the same generator.
"""
from __future__ import annotations

_MASK = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (next_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def derive_seeds(master: int, count: int) -> list[int]:
    """The first count outputs of the splitmix64 stream at master, in order."""
    state = master & _MASK
    seeds = []
    for _ in range(count):
        state, out = splitmix64(state)
        seeds.append(out)
    return seeds
