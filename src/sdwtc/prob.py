"""Exact arithmetic over finite discrete distributions.

Dense PMF tensors with named axes, plus the information measures built on
them: entropy, mutual information, relative entropy, Renyi divergence,
total variation, and letter typicality.  All information quantities are in
bits (log base 2); ``0 * log 0`` is treated as 0 throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, product
from typing import Hashable, Iterable, Sequence

import numpy as np

# Constructor tolerance on total mass / row sums.  Loaded documents are
# accepted up to 1e-9 (and never silently renormalized); everything built
# internally lands well inside 1e-12.
MASS_ATOL = 1e-9
# Probabilities below this are structural zeros for support computations.
ZERO_MASS = 1e-15

LN2 = math.log(2.0)
# np.add.reduce sums a run of at least this many entries pairwise, a shorter one left to right
_PAIRWISE = 8


def _clean_mass(mass: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(mass, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has non-finite mass")
    low = arr.min(initial=0.0)
    if low < -1e-12:
        raise ValueError(f"{what} has negative mass {low:.3e}")
    # always a private copy, since it is frozen below
    arr = np.array(arr) if low >= 0.0 else np.where(arr < 0.0, 0.0, arr)
    arr.setflags(write=False)
    return arr


def _unique_axes(axes: Iterable[tuple[str, Iterable[Hashable]]]) -> tuple[tuple[str, tuple], ...]:
    """Named axes as (name, alphabet) tuples, refused if two share a name or
    an alphabet repeats a label."""
    axes = tuple((str(n), tuple(a)) for n, a in axes)
    names = [n for n, _ in axes]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate axis names in {names}")
    for name, alphabet in axes:
        if len(set(alphabet)) != len(alphabet):
            raise ValueError(f"axis {name} alphabet labels must be unique, got {alphabet}")
    return axes


@dataclass(frozen=True)
class Pmf:
    """A probability mass function over a finite ordered alphabet."""

    symbols: tuple
    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        probs = _clean_mass(self.probs, "Pmf")
        if probs.ndim != 1 or probs.shape[0] != len(self.symbols):
            raise ValueError(
                f"Pmf needs one probability per symbol, got shape {probs.shape} "
                f"for {len(self.symbols)} symbols"
            )
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("Pmf alphabet labels must be unique")
        total = probs.sum()
        if abs(total - 1.0) > MASS_ATOL:
            raise ValueError(f"Pmf mass sums to {float(total)!r}, expected 1")
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class JointPmf:
    """A joint PMF over named axes, stored as a dense tensor.

    ``axes`` is an ordered tuple of ``(axis_name, alphabet)`` pairs and
    ``mass[i0, i1, ...]`` is the probability of the symbol combination with
    those per-axis indices.
    """

    axes: tuple[tuple[str, tuple], ...]
    mass: np.ndarray

    def __post_init__(self) -> None:
        axes = _unique_axes(self.axes)
        object.__setattr__(self, "axes", axes)
        mass = _clean_mass(self.mass, "JointPmf")
        want = tuple(len(a) for _, a in axes)
        if mass.shape != want:
            raise ValueError(f"mass shape {mass.shape} does not match axes {want}")
        total = mass.sum()
        if abs(total - 1.0) > MASS_ATOL:
            raise ValueError(f"JointPmf mass sums to {float(total)!r}, expected 1")
        object.__setattr__(self, "mass", mass)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.axes)

    @property
    def alphabets(self) -> tuple[tuple, ...]:
        return tuple(a for _, a in self.axes)

    def axis_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.axes):
            if n == name:
                return i
        raise ValueError(f"unknown axis {name!r}; have {self.names}")

    def alphabet(self, name: str) -> tuple:
        return self.axes[self.axis_index(name)][1]

    def as_pmf(self) -> Pmf:
        """Flatten to a single-axis Pmf (tuple symbols for multi-axis joints)."""
        if len(self.axes) == 1:
            return Pmf(self.axes[0][1], self.mass.ravel())
        return Pmf(tuple(product(*self.alphabets)), self.mass.ravel())


@dataclass(frozen=True)
class Channel:
    """A conditional PMF: for every input configuration, a PMF over outputs.

    ``kernel`` has shape ``in_shape + out_shape`` and every slice
    ``kernel[in_idx]`` sums to 1.
    """

    in_axes: tuple[tuple[str, tuple], ...]
    out_axes: tuple[tuple[str, tuple], ...]
    kernel: np.ndarray

    def __post_init__(self) -> None:
        n_in = len(self.in_axes)
        axes = _unique_axes((*self.in_axes, *self.out_axes))
        object.__setattr__(self, "in_axes", axes[:n_in])
        object.__setattr__(self, "out_axes", axes[n_in:])
        kernel = _clean_mass(self.kernel, "Channel")
        want = tuple(len(a) for _, a in axes)
        if kernel.shape != want:
            raise ValueError(f"kernel shape {kernel.shape} does not match axes {want}")
        rows = kernel.reshape(int(np.prod(kernel.shape[:n_in], initial=1)), -1)
        sums = rows.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > MASS_ATOL)[0]
        if bad.size:
            idx = np.unravel_index(int(bad[0]), kernel.shape[:n_in])
            raise ValueError(
                f"Channel row {tuple(int(i) for i in idx)} sums to {float(sums[bad[0]])!r}, expected 1"
            )
        object.__setattr__(self, "kernel", kernel)

    @property
    def in_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.in_axes)

    @property
    def out_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.out_axes)

    @property
    def in_shape(self) -> tuple[int, ...]:
        return tuple(len(a) for _, a in self.in_axes)

    @property
    def out_shape(self) -> tuple[int, ...]:
        return tuple(len(a) for _, a in self.out_axes)


# ---------------------------------------------------------------------------
# constructors


def uniform(symbols: Iterable[Hashable]) -> Pmf:
    symbols = tuple(symbols)
    return Pmf(symbols, np.full(len(symbols), 1.0 / len(symbols)))


def bernoulli(p: float) -> Pmf:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Bernoulli parameter {p!r} outside [0, 1]")
    return Pmf((0, 1), np.array([1.0 - p, p]))


# ---------------------------------------------------------------------------
# entropy and friends


def _entropy_bits(masses: Sequence[np.ndarray], lead: int = 0) -> np.ndarray:
    """The entropy in bits of each mass tensor, one per entry of its first
    lead axes (a (masses, *lead) array), the logs of all taken in one pass.
    Masses at or below ZERO_MASS count as zero and their log is never taken."""
    flat = [np.asarray(m, dtype=float).reshape(np.shape(m)[:lead] + (-1,)) for m in masses]
    # entries first, then the lead axes (transpose, not np.moveaxis, which costs microseconds a call)
    return _run_entropy_bits(np.concatenate([m.transpose(lead, *range(lead)) for m in flat]),
                             [(m.shape[-1], 1) for m in flat])


def _run_entropy_bits(p: np.ndarray, runs: Sequence[tuple[int, int]]) -> np.ndarray:
    """The entropy in bits of each run of masses laid end to end along the
    first axis of p, as in _entropy_bits, batch-minor: a (runs, *rest)
    array, one column per entry of p's other axes.  runs lists (size,
    count) for each stretch of count runs of one size.  Each run is summed
    as np.add.reduce sums it in a row of its own, so it rounds the same
    anywhere: a run shorter than _PAIRWISE left to right, by a reduce over
    a leading axis that adds whole columns at a time; a longer one
    pairwise, by a row reduce on a C-ordered copy of its stretch (the
    stretch itself when it is C-ordered already, as for a lone mass)."""
    p_log_p = p * np.log2(np.where(p > ZERO_MASS, p, 1.0))
    sums, ends = [], accumulate(size * count for size, count in runs)
    for (size, count), end in zip(runs, ends):
        block = p_log_p[end - size * count:end].reshape(count, size, *p.shape[1:])
        sums.append(np.add.reduce(block, axis=1) if size < _PAIRWISE
                    else np.add.reduce(np.ascontiguousarray(block.transpose(0, *range(2, block.ndim), 1)), axis=-1))
    return -np.concatenate(sums)


def entropy(
    dist: Pmf | JointPmf,
    axes: Sequence[str] | None = None,
    given: Sequence[str] = (),
) -> float:
    """Shannon entropy in bits; for a JointPmf, H(axes | given).

    ``axes`` defaults to every axis not in ``given``.
    """
    if isinstance(dist, Pmf):
        if axes is not None or given:
            raise ValueError("axis arguments only apply to JointPmf inputs")
        return float(_entropy_bits([dist.probs])[0])
    given = tuple(given)
    if axes is None:
        axes = tuple(n for n in dist.names if n not in given)
    axes = tuple(axes)
    for n in axes + given:
        dist.axis_index(n)  # raises on unknown axis
    overlap = set(axes) & set(given)
    if overlap:
        raise ValueError(f"axes {sorted(overlap)} appear on both sides of the bar")
    h_all = float(_entropy_bits([_marginal_mass(dist, axes + given)])[0])
    if not given:
        return h_all
    return h_all - float(_entropy_bits([_marginal_mass(dist, given)])[0])


def binary_entropy(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy argument {p!r} outside [0, 1]")
    if p <= ZERO_MASS or p >= 1.0 - ZERO_MASS:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def inv_binary_entropy(y: float) -> float:
    """The unique p in [0, 1/2] with binary_entropy(p) = y (bisection)."""
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"inv_binary_entropy argument {y!r} outside [0, 1]")
    lo, hi = 0.0, 0.5
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _marginal_mass(joint: JointPmf, keep: Sequence[str]) -> np.ndarray:
    """The mass of a joint over keep, in keep's order."""
    names, keep = joint.names, tuple(keep)
    drop = tuple(i for i, n in enumerate(names) if n not in keep)
    mass = joint.mass.sum(axis=drop) if drop else joint.mass
    # mass axes are now the kept ones in original order
    kept_order = tuple(n for n in names if n in keep)
    if kept_order != keep:
        mass = mass.transpose(tuple(kept_order.index(n) for n in keep))
    return mass


def marginalize(joint: JointPmf, keep: Sequence[str]) -> JointPmf:
    """Marginal joint over ``keep`` (result axes follow the order of ``keep``)."""
    keep = tuple(keep)
    for n in keep:
        joint.axis_index(n)
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate axes in keep list {keep}")
    axes = tuple((n, joint.alphabet(n)) for n in keep)
    return JointPmf(axes, _marginal_mass(joint, keep))


def channel_from_joint(joint: JointPmf, inputs: Sequence[str], outputs: Sequence[str]) -> Channel:
    """The conditional kernel P(outputs | inputs) extracted from a joint.

    Input assignments with zero mass get a uniform row, so the result is
    row-stochastic everywhere.
    """
    inputs, outputs = tuple(inputs), tuple(outputs)
    if not inputs or not outputs:
        raise ValueError("channel_from_joint needs at least one input and one output axis")
    overlap = set(inputs) & set(outputs)
    if overlap:
        raise ValueError(f"inputs and outputs overlap on axes {sorted(overlap)}")
    both = _marginal_mass(joint, inputs + outputs)
    in_shape = both.shape[: len(inputs)]
    flat = both.reshape(int(np.prod(in_shape)), -1)
    row_mass = flat.sum(axis=1)
    kernel = np.empty_like(flat)
    ok = row_mass > ZERO_MASS
    kernel[ok] = flat[ok] / row_mass[ok, None]
    kernel[~ok] = 1.0 / flat.shape[1]
    in_axes = tuple((n, joint.alphabet(n)) for n in inputs)
    out_axes = tuple((n, joint.alphabet(n)) for n in outputs)
    return Channel(in_axes, out_axes, kernel.reshape(both.shape))


def mutual_information(
    joint: JointPmf,
    group_a: Sequence[str],
    group_b: Sequence[str],
    given: Sequence[str] = (),
) -> float:
    """I(A; B | C) in bits over axis groups of a JointPmf."""
    a, b, c = tuple(group_a), tuple(group_b), tuple(given)
    for n in a + b + c:
        joint.axis_index(n)
    for left, right, what in ((a, b, "groups"), (a, c, "group A and given"), (b, c, "group B and given")):
        overlap = set(left) & set(right)
        if overlap:
            raise ValueError(f"{what} overlap on axes {sorted(overlap)}")
    h_ac, h_bc, h_abc = _entropy_bits([_marginal_mass(joint, g) for g in (a + c, b + c, a + b + c)])
    h_c = _entropy_bits([_marginal_mass(joint, c)])[0] if c else 0.0
    return float(h_ac + h_bc - h_abc - h_c)


def _check_same_alphabet(p: Pmf, q: Pmf, op: str) -> None:
    if p.symbols != q.symbols:
        raise ValueError(f"{op} needs matching alphabets, got {p.symbols} vs {q.symbols}")


def _check_support(p: Pmf, q: Pmf, op: str) -> None:
    for s, pp, qq in zip(p.symbols, p.probs, q.probs):
        if pp > ZERO_MASS and qq <= ZERO_MASS:
            raise ValueError(f"{op}: symbol {s!r} has positive mass under P but zero under Q")


def relative_entropy(p: Pmf, q: Pmf) -> float:
    """D(P || Q) in bits; requires supp(P) within supp(Q)."""
    _check_same_alphabet(p, q, "relative_entropy")
    _check_support(p, q, "relative_entropy")
    mask = p.probs > ZERO_MASS
    pp, qq = p.probs[mask], q.probs[mask]
    return float((pp * (np.log2(pp) - np.log2(qq))).sum())


def total_variation(p: Pmf, q: Pmf) -> float:
    """Total variation distance, one half the L1 difference."""
    _check_same_alphabet(p, q, "total_variation")
    return float(0.5 * np.abs(p.probs - q.probs).sum())


def renyi_divergence(p: Pmf, q: Pmf, order: float) -> float:
    """Renyi divergence of the given order (> 1) in bits."""
    if not order > 1.0:
        raise ValueError(f"renyi_divergence order must exceed 1, got {order!r}")
    _check_same_alphabet(p, q, "renyi_divergence")
    _check_support(p, q, "renyi_divergence")
    mask = p.probs > ZERO_MASS
    lp = np.log(p.probs[mask])
    lq = np.log(q.probs[mask])
    return float(_renyi_from_logs(lp, lq, np.array([order]))[0])


def _renyi_from_logs(lp: np.ndarray, lq: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Vectorized d_alpha over an array of orders, from natural-log masses."""
    a = orders[:, None]
    ex = a * lp[None, :] + (1.0 - a) * lq[None, :]
    m = ex.max(axis=1, keepdims=True)
    ln_sum = m[:, 0] + np.log(np.exp(ex - m).sum(axis=1))
    return ln_sum / ((orders - 1.0) * LN2)


def is_letter_typical(x: Sequence[Hashable], p: Pmf, eps: float) -> bool:
    """True iff every symbol frequency of x is within a relative eps of p.

    Sequences containing symbols outside p's alphabet are never typical.
    """
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"typicality eps must be finite and nonnegative, got {eps!r}")
    n = len(x)
    if n == 0:
        raise ValueError("cannot test typicality of an empty sequence")
    counts: dict = {}
    for sym in x:
        counts[sym] = counts.get(sym, 0) + 1
    if not set(p.symbols).issuperset(counts):
        return False
    for sym, prob in zip(p.symbols, p.probs.tolist()):  # Python floats: the same IEEE arithmetic
        nu = counts.get(sym, 0) / n
        if abs(nu - prob) > eps * prob:
            return False
    return True
