"""Closed-form achievable-rate expressions for wiretap channels with state.

Each functional's minimands are written once, as formulas over axis names
(a Terms record).  evaluate computes them on a stack of joint masses, by
the evaluator plan builds once per rate and joint shape, and report on one
joint, as a RateReport carrying all minimand values, which
minimand was active, and a feasibility flag; optimize.rate_report builds
the joint of a policy object and calls report.  Values are reported raw:
minima can be negative for poor policies, and clamping to zero is the
caller's choice.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .models import ERASURE, InputPolicy, gp_policy
from .prob import _PAIRWISE, JointPmf, _run_entropy_bits

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
# joint axes T, S, X, Y, Z (a ceg policy); T must be independent of S
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


def _sum_gather(shape: tuple[int, ...], drop: tuple[int, ...]) -> np.ndarray | None:
    """The element numbers (in C order of one joint of this shape) that sum
    a drop set (axes of the C-ordered (B, *shape) stack) as np.add.reduce
    does (see plan): an (L, J, K) array, without its L or J axis where that
    is 1, to take and reduce over its leading axes; None where the plain
    reduce is kept (L >= _PAIRWISE, or nothing summed)."""
    size = dict(enumerate(shape, start=1))  # stack axis -> its size
    order = [i for i in size if size[i] > 1]
    cut = max((k + 1 for k, i in enumerate(order) if i not in drop), default=0)
    run, outer = order[cut:], [i for i in order[:cut] if i in drop]
    block = math.prod(size[i] for i in run)
    if block >= _PAIRWISE or not run + outer:
        return None
    keep = [i for i in size if i not in drop]
    ids = np.arange(math.prod(shape)).reshape(shape).transpose([i - 1 for i in run + outer + keep])
    combos, kept = math.prod(size[i] for i in outer), math.prod(size[i] for i in keep)
    return ids.reshape(*(n for n in (block, combos) if n > 1), kept)


def _drop_sums(mass: np.ndarray, drops: Sequence[tuple[int, ...]],
               gathers: Sequence[np.ndarray | None]) -> list[np.ndarray]:
    """The (K, B) sum of a C-ordered (B, *shape) stack over each drop set, by
    its _sum_gather where it has one and by np.add.reduce where not."""
    items = mass.reshape(len(mass), -1).T.copy()  # (entries of one joint in C order, B), B contiguous
    sums = []
    for drop, ids in zip(drops, gathers):
        if ids is None:
            sums.append(np.add.reduce(mass, axis=drop).reshape(len(mass), -1).T if drop else items)
            continue
        block = items.take(ids, axis=0)
        for _ in range(ids.ndim - 1):
            block = np.add.reduce(block, axis=0)
        sums.append(block)
    return sums


@lru_cache(maxsize=256)
def plan(terms: Terms, names: tuple[str, ...],
         shape: tuple[int, ...]) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The evaluator of a rate on (B, *shape) stacks of joints over the named
    axes, built once per rate and shape; evaluate calls it.  It works
    batch-minor: drop-set sums, marginals, entropies and formula stages are
    (entries, B) arrays, so each short left-to-right sum is a few adds of
    whole batches, not one short inner loop per row.  Its rounding is fixed
    by: one sum per distinct set of summed-out axes (a drop set, from which
    axes of size 1 are left out, which changes no bit), never over merged
    axes; one gather of all marginals, each summed on its own
    (prob._run_entropy_bits); each formula a row of (column, +-1.0) pairs
    folded left to right, as acc + v, padded with a column of -0.0, which
    changes no sum.  The rows are evaluated in stages, each into further
    columns: the I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C) and H(A|C) =
    H(A,C) - H(C) nodes, the [...]+ brackets deepest first (clamped at
    zero), then the formulas.

    Every stack is summed in C order of (B, *shape): evaluate_stack takes a
    C-ordered copy of a stack in any other layout (models.joint_plan builds
    every stack C-ordered, so it copies none of them).  A drop set's sum is
    np.add.reduce's on that stack: each output starts at 0.0 and adds, left
    to right over the other summed axes, the sum of one block, the trailing
    run of summed axes (L entries), which numpy adds pairwise when
    L >= _PAIRWISE and left to right otherwise.  A short block
    (L < _PAIRWISE) is summed instead by one gather into an (L, J, K, B)
    array (J combinations, K kept entries) and left-to-right reduces over
    its leading L and J axes: the same additions in the same order, so the
    same bits, sign bits included (_sum_gather, built once per drop set).
    A block of _PAIRWISE or more keeps numpy's pairwise row reduce.  So a
    row gets the bits it gets alone in any stack, whatever its layout."""
    formulas = tuple(filter(None, (*terms.labels, terms.feasible, terms.vanishing)))
    marginals: dict[tuple[str, ...], int] = {}
    # (clamp, ((sign, ref), ...)) -> number: a node over marginals, or a
    # bracket (clamp True) over earlier nodes and brackets
    exprs: dict[tuple, int] = {}
    tops = []
    for formula in formulas:
        tokens = _TOKEN.findall(formula)
        if "".join(sign + tok for sign, tok in tokens) != formula:
            raise ValueError(f"cannot parse rate formula {formula!r}")
        stack: list[list] = [[]]
        for sign, tok in tokens:
            if tok == "[":
                stack.append([sign])
            elif tok == "]+":
                sign, *inner = stack.pop()
                stack[-1].append((sign, exprs.setdefault((True, tuple(inner)), len(exprs))))
            else:
                body, _, given = tok[2:-1].partition("|")
                c = tuple(given.split(",")) if given else ()
                groups = [tuple(g.split(",")) for g in body.split(";")]
                parts = [("+", g + c) for g in groups]
                if len(groups) == 2:
                    parts.append(("-", groups[0] + groups[1] + c))
                if c:
                    parts.append(("-", c))
                node = tuple((s, marginals.setdefault(g, len(marginals))) for s, g in parts)
                stack[-1].append((sign, exprs.setdefault((False, node), len(exprs))))
        tops.append(stack[0])
    unknown = {n for keep in marginals for n in keep} - set(names)
    if unknown:
        raise ValueError(f"unknown axes {sorted(unknown)}; have {names}")

    dims = dict(zip(names, shape))
    order = sorted(marginals, key=lambda keep: math.prod(dims[n] for n in keep))
    sums: dict[tuple[int, ...], np.ndarray] = {}  # summed-out axes -> flat index of the sum
    gathered, offset = [], 0
    for keep in order:
        drop = tuple(1 + i for i, n in enumerate(names) if n not in keep and dims[n] > 1)
        kept = [n for n in names if n in keep or dims[n] == 1]
        if drop not in sums:
            sums[drop] = offset + np.arange(math.prod(dims[n] for n in kept)).reshape([dims[n] for n in kept])
            offset += sums[drop].size
        block = sums[drop][tuple(slice(None) if n in keep else 0 for n in kept)]
        rest = [n for n in kept if n in keep]
        gathered.append(block.transpose([rest.index(n) for n in keep]).ravel())
    index = np.concatenate(gathered)
    runs = [(size, len(list(run))) for size, run in groupby(part.size for part in gathered)]

    # columns: the entropies in gather order, the -0.0 pad, then each stage's rows
    pad, entries = len(order), list(exprs)
    h_col, e_col = {marginals[keep]: j for j, keep in enumerate(order)}, {}
    depth: list[int] = []
    for clamp, row in entries:
        depth.append(1 + max(depth[r] for _, r in row) if clamp else 1)

    def table(rows: list) -> tuple[np.ndarray, np.ndarray]:
        """A stage's (width, rows) columns and (width, rows, 1) signs."""
        width = max(map(len, rows))
        return (np.array([[j for _, j in row] + [pad] * (width - len(row)) for row in rows]).T,
                np.array([[-1.0 if s == "-" else 1.0 for s, _ in row] + [1.0] * (width - len(row))
                          for row in rows]).T[..., None])

    stages = []
    for level in range(1, max(depth, default=0) + 1):
        members = [e for e, d in enumerate(depth) if d == level]
        refs = e_col if level > 1 else h_col
        stages.append((*table([[(s, refs[r]) for s, r in entries[e][1]] for e in members]), level > 1))
        for e in members:
            e_col[e] = pad + 1 + len(e_col)
    stages.append((*table([[(s, e_col[r]) for s, r in row] for row in tops]), False))
    drops, n_labels = list(sums), len(terms.labels)
    gathers = [_sum_gather(shape, drop) for drop in drops]

    def evaluate_stack(mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mass = np.ascontiguousarray(mass)
        # take keeps p C-ordered, (entries, B), so each run's entries are rows of B contiguous masses
        h = _run_entropy_bits(np.concatenate(_drop_sums(mass, drops, gathers)).take(index, axis=0), runs)
        v = np.full((1, len(mass)), -0.0)
        with np.errstate(invalid="ignore"):  # inf - inf from an infinite mass; named below
            for idx, sgn, clamp in stages:
                h = np.concatenate([h, v])
                # acc + v from the first column; np.add.reduce starts at +0.0, which drops a -0.0
                v = reduce(np.add, h.take(idx, axis=0) * sgn)
                if clamp:
                    v = np.maximum(0.0, v)
        if not np.isfinite(v).all():
            j = int(np.argmin(np.isfinite(v).all(axis=1)))
            raise ValueError(f"rate term {formulas[j]} is not finite: got {v[j, ~np.isfinite(v[j])][0]}")
        if terms.vanishing is not None:
            bad = np.nonzero(v[-1] > INDEP_TOL)[0]
            if bad.size:
                raise ValueError(
                    f"{terms.requirement}, got {terms.vanishing} = {float(v[-1, bad[0]])!r} bits")
        feasible = (np.ones(len(mass), dtype=bool) if terms.feasible is None
                    else v[n_labels] >= -FEAS_TOL)
        return v[:n_labels].T, feasible

    return evaluate_stack


def evaluate(terms: Terms, names: Sequence[str], mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every term of a rate on a stack of joints, mass[b] over the named axes:
    the (B, terms) values and the (B,) feasibility flags, by the evaluator
    plan(terms, names, shape) builds once per joint shape.  The sums run in
    C order of (B, *shape) whatever the stack's layout, so each row's bits
    are those it gets alone (see plan).  A term that is not finite (a NaN or
    infinite mass) is a ValueError naming it."""
    return plan(terms, tuple(names), mass.shape[1:])(mass)


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


def transform_to_alt(joint: JointPmf, policy: InputPolicy) -> InputPolicy:
    """Repair an infeasible policy for RA_ALT without losing rate.

    With g0 = I(U,V;Y) - I(U,V;S), RA's second term, and g1 = I(U;Y) -
    I(U;S), augmenting the inner auxiliary with a copy of V erased with
    probability eps gives the margin g1 + (1 - eps)(g0 - g1), linear in eps.
    Where RA > 0 and g1 < 0, g0 > 0, so the margin vanishes at eps = g0 /
    (g0 - g1) in (0, 1), and there the two-term value is no worse than the
    original three-term value.  Other policies are returned unchanged.
    """
    (_, a), (_, g0), (_, c), (_, g1) = report(Terms((*RA.labels, RA_ALT.feasible)), joint).terms
    if min(a, g0, c) <= 0.0 or g1 >= 0.0:
        return policy
    return _erasure_augmented_policy(policy, g0 / (g0 - g1))
