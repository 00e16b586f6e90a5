"""Closed-form achievable-rate expressions for wiretap channels with state.

Each functional's minimands are written once, as formulas over axis names
(a Terms record).  evaluate computes them on a stack of joint masses, and
report on one joint, as a RateReport carrying all minimand values, which
minimand was active, and a feasibility flag; optimize.rate_report builds
the joint of a policy object and calls report.  Values are reported raw:
minima can be negative for poor policies, and clamping to zero is the
caller's choice.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .models import ERASURE, InputPolicy, SdWtcModel, assemble_joint, gp_policy
from .prob import JointPmf, _segment_entropy_bits

FEAS_TOL = 1e-10
INDEP_TOL = 1e-9


@dataclass(frozen=True)
class RateReport:
    """The value of a min-of-terms rate expression and its breakdown."""

    value: float
    active_term: str
    terms: tuple[tuple[str, float], ...]
    feasible: bool = True


@dataclass(frozen=True)
class Terms:
    """A min-of-terms rate, each term labelled by its formula over axis names:
    I(A;B|C) and H(A|C) terms added and subtracted left to right, with
    [...]+ the positive part.  The rate is infeasible (a report state) where
    the feasible formula is below -FEAS_TOL; a joint where the vanishing
    formula exceeds INDEP_TOL is refused with a ValueError that starts with
    the requirement.
    """

    labels: tuple[str, ...]
    feasible: str | None = None
    vanishing: str | None = None
    requirement: str = ""


# joint axes S, U, V, X, Y, Z (a gp policy)
RA = Terms(("I(V;Y|U)-I(V;Z|U)", "I(U,V;Y)-I(U,V;S)", "I(U,V;Y)-I(U;S)-I(V;Z|U)"))
# RA's first two terms, feasible only where I(U;Y) >= I(U;S)
RA_ALT = Terms(RA.labels[:2], feasible="I(U;Y)-I(U;S)")
# joint axes S, V, Y, Z (a gp policy whose U it ignores)
CHV = Terms(("I(V;Y)-I(V;Z)", "I(V;Y)-I(V;S)"))
# joint axes S, T, X, Y, Z (a ceg policy); T must be independent of S
CEG = Terms(("I(T;Y|S)", "H(S|T,Z)+[I(T;Y,S)-I(T;Z)]+"),
            vanishing="I(T;S)", requirement="T must be independent of S")
# joint axes S, A, B, X, S1, S2, Y, Z (an rln policy on an RlnModel)
RLN = Terms(("I(A;S1|B)-I(A;S2|B)", "I(X;Y)-I(A;S|S1)"))
# joint axes S, X, Y, Z (an x_given_s policy); Y must be a function of (X, S)
SEMIDET = Terms(("H(Y|Z)", "H(Y|S)"),
                vanishing="H(Y|X,S)", requirement="the model must be semi-deterministic")
# joint axes S, X, Y, Z (an x_given_s policy), the state known at both ends
LN_ENCDEC = Terms(("I(X;Y|S)", "I(X;Y|S)-I(X;Z|S)+H(S|Z)"))

_TOKEN = re.compile(r"([+-]?)(\[|\]\+|[IH]\([^()]*\))")


@lru_cache(maxsize=256)
def _plan(terms: Terms, names: tuple[str, ...]) -> tuple[list[tuple], list[tuple], dict[str, list]]:
    """The distinct axis sets a rate sums out of stacked joints over these
    axes, the distinct marginals it needs, each as (index of its summed-out
    set, the axis permutation that orders the sum's axes like the
    marginal), and its formulas as lists of (sign, node) summed left to
    right: a node is the index of a marginal's entropy, or (clamp, nodes)
    for a bracket (clamped at zero), an I(A;B|C) = H(A,C) + H(B,C) -
    H(A,B,C) - H(C) or an H(A|C) = H(A,C) - H(C)."""
    marginals: dict[tuple[str, ...], int] = {}
    formulas: dict[str, list] = {}
    for formula in filter(None, (*terms.labels, terms.feasible, terms.vanishing)):
        tokens = _TOKEN.findall(formula)
        if "".join(sign + tok for sign, tok in tokens) != formula:
            raise ValueError(f"cannot parse rate formula {formula!r}")
        stack: list[list] = [[]]
        for sign, tok in tokens:
            if tok == "[":
                inner: list = []
                stack[-1].append((sign, (True, inner)))
                stack.append(inner)
            elif tok == "]+":
                stack.pop()
            else:
                body, _, given = tok[2:-1].partition("|")
                c = tuple(given.split(",")) if given else ()
                groups = [tuple(g.split(",")) for g in body.split(";")]
                parts = [("+", g + c) for g in groups]
                if len(groups) == 2:
                    parts.append(("-", groups[0] + groups[1] + c))
                if c:
                    parts.append(("-", c))
                stack[-1].append((sign, (False, [(s, marginals.setdefault(g, len(marginals)))
                                                 for s, g in parts])))
        formulas[formula] = stack[0]
    unknown = {n for keep in marginals for n in keep} - set(names)
    if unknown:
        raise ValueError(f"unknown axes {sorted(unknown)}; have {names}")
    drops: dict[tuple[int, ...], int] = {}
    reductions = []
    for keep in marginals:
        kept = [n for n in names if n in keep]
        drop = tuple(1 + i for i, n in enumerate(names) if n not in keep)
        reductions.append((drops.setdefault(drop, len(drops)), (0, *(1 + kept.index(n) for n in keep))))
    return list(drops), reductions, formulas


@lru_cache(maxsize=256)
def _gather(terms: Terms, names: tuple[str, ...],
            shape: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """For joints of this shape (batch axis excluded): the flat index that
    takes every marginal of _plan(terms, names), in its own axis order, out
    of the summed-out sets flattened and laid side by side, and the size of
    each marginal."""
    drops, reductions, _ = _plan(terms, names)
    blocks, offset = [], 0
    for drop in drops:
        kept = tuple(d for axis, d in enumerate(shape, start=1) if axis not in drop)
        blocks.append(offset + np.arange(math.prod(kept)).reshape(kept))
        offset += blocks[-1].size
    parts = [blocks[j].transpose([axis - 1 for axis in perm[1:]]).ravel() for j, perm in reductions]
    return np.concatenate(parts), tuple(part.size for part in parts)


def evaluate(terms: Terms, names: Sequence[str], mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every term of a rate on a stack of joints, mass[b] over the named axes:
    the (B, terms) values and the (B,) feasibility flags.  Each distinct
    marginal entropy is computed once, from one sum per summed-out axis set
    and one gather of all marginals."""
    names = tuple(names)
    drops, _, formulas = _plan(terms, names)
    sums = [(mass.sum(axis=drop) if drop else mass).reshape(len(mass), -1) for drop in drops]
    index, sizes = _gather(terms, names, mass.shape[1:])
    # np.take keeps p C-ordered; p[:, index] would not, and its run sums would round differently
    h = _segment_entropy_bits(np.take(np.concatenate(sums, axis=1), index, axis=1), sizes)

    def value(nodes: list) -> np.ndarray:
        acc = None
        for sign, node in nodes:
            if isinstance(node, int):
                v = h[node]
            else:
                clamp, inner = node
                v = np.maximum(0.0, value(inner)) if clamp else value(inner)
            v = -v if sign == "-" else v  # a + (-b) rounds exactly as a - b
            acc = v if acc is None else acc + v
        return acc

    if terms.vanishing is not None:
        got = value(formulas[terms.vanishing])
        bad = np.nonzero(got > INDEP_TOL)[0]
        if bad.size:
            raise ValueError(
                f"{terms.requirement}, got {terms.vanishing} = {float(got[bad[0]])!r} bits")
    values = np.stack([value(formulas[label]) for label in terms.labels], axis=1)
    feasible = (np.ones(len(mass), dtype=bool) if terms.feasible is None
                else value(formulas[terms.feasible]) >= -FEAS_TOL)
    return values, feasible


def report(terms: Terms, joint: JointPmf) -> RateReport:
    """The RateReport of a rate on one joint."""
    values, feasible = evaluate(terms, joint.names, joint.mass[None])
    k = int(np.argmin(values[0]))
    return RateReport(
        value=float(values[0, k]),
        active_term=terms.labels[k],
        terms=tuple((label, float(v)) for label, v in zip(terms.labels, values[0])),
        feasible=bool(feasible[0]),
    )


def constraint_gap(joint: JointPmf) -> float:
    """I(U;Y) - I(U;S), the feasibility margin of RA_ALT."""
    return report(Terms((RA_ALT.feasible,)), joint).value


def _erasure_symbol(v_symbols: tuple) -> str:
    mark = ERASURE
    while mark in v_symbols:
        mark += ERASURE
    return mark


def _erasure_augmented_policy(policy: InputPolicy, eps: float) -> InputPolicy:
    """Replace U by U' = (U, V-through-an-erasure-channel), keep V and X.

    The erasure happens with probability eps independently of everything
    else, so the new kernel is Q(u,v,x|s) * BEC(v -> v~).
    """
    mark = _erasure_symbol(policy.v_symbols)
    v_out = policy.v_symbols + (mark,)
    bec = np.zeros((len(policy.v_symbols), len(v_out)))
    for vi in range(len(policy.v_symbols)):
        bec[vi, vi] = 1.0 - eps
        bec[vi, len(policy.v_symbols)] = eps
    # q'[s, u, v~, v, x] then merge (u, v~) into the new inner auxiliary
    k = np.einsum("suvx,vt->sutvx", policy.kernel.kernel, bec)
    n_s = len(policy.s_symbols)
    u_lift = tuple((u, t) for u in policy.u_symbols for t in v_out)
    k = k.reshape(n_s, len(u_lift), len(policy.v_symbols), len(policy.x_symbols))
    return gp_policy(policy.s_symbols, u_lift, policy.v_symbols, policy.x_symbols, k)


def transform_to_alt(joint: JointPmf, model: SdWtcModel, policy: InputPolicy) -> InputPolicy:
    """Repair an infeasible policy for RA_ALT without losing rate.

    When the three-term rate is positive but I(U;Y) < I(U;S), augmenting the
    inner auxiliary with an erased copy of V restores the constraint: the
    margin is linear in the erasure probability, positive at eps = 0 and
    negative at eps = 1, so bisection pins the zero crossing.  The returned
    policy sits at the bracket endpoint where the margin is still >= 0, and
    its two-term value is no worse than the original three-term value (up
    to the bisection tolerance).  Feasible policies are returned unchanged.
    """
    if report(RA, joint).value <= 0.0 or constraint_gap(joint) >= 0.0:
        return policy

    def margin(eps: float) -> tuple[float, InputPolicy]:
        cand = _erasure_augmented_policy(policy, eps)
        return constraint_gap(assemble_joint(model, cand)), cand

    lo, hi = 0.0, 1.0
    gap_lo, cand_lo = margin(lo)
    gap_hi, _ = margin(hi)
    if gap_lo < 0.0 or gap_hi >= 0.0:
        raise ValueError(
            f"erasure bisection bracket failed: margin({lo}) = {gap_lo!r}, "
            f"margin({hi}) = {gap_hi!r}"
        )
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        gap_mid, cand_mid = margin(mid)
        if gap_mid >= 0.0:
            lo, gap_lo, cand_lo = mid, gap_mid, cand_mid
        else:
            hi = mid
    return cand_lo
