"""Policy evaluation and search for the achievable-rate functionals.

``FUNCTIONALS`` maps each functional name to the model class it needs, the
policy kinds it takes (``models.POLICY_KINDS``, which gives the
row-stochastic blocks that parameterize a policy, the builder that turns
blocks into one and the joints of stacked blocks), the sizes of their
auxiliary alphabets, and its terms (``rates.Terms``).  ``rate_report`` is
the one way to evaluate a policy object: it builds the policy's joint and
returns ``rates.report`` of it.  ``maximize`` and ``exhaustive_small``
score stacks of raw blocks with ``rates.evaluate`` and build no policy per
candidate.  The search is random-restart coordinate ascent plus a
brute-force grid enumeration, in chunks, for problems small enough to
afford it.  Runs are deterministic given the budget seed (restart
r draws from the r-th splitmix64 output of the master seed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import rates
from .models import (
    POLICY_KINDS,
    RlnModel,
    SdWtcModel,
    as_input_policy,
    policy_blocks,
    policy_joint,
    policy_parts,
    stacked_joint,
)
from .prob import Channel, Pmf
from .rng import derive_seeds

_INITIAL_STEP = 0.5
_REJECTS_PER_HALVING = 10
_MAX_GRID_EVALS = 10_000_000
# joint-mass entries per chunk of grid policies evaluated together (8 bytes each)
_GRID_CHUNK_ENTRIES = 1 << 12


@dataclass(frozen=True)
class OptBudget:
    """Search effort: random restarts, ascent steps per restart, master seed."""

    restarts: int = 16
    iterations: int = 400
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.iterations < 1:
            raise ValueError(f"restarts and iterations must be positive, got {self!r}")


@dataclass(frozen=True)
class OptResult:
    """Best policy found, its value, per-restart values, and total evaluations."""

    policy: Any
    value: float
    trace: tuple[float, ...]
    evaluations: int


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    out = np.maximum(v - css[rho] / (rho + 1), 0.0)
    return out / out.sum()


@dataclass(frozen=True)
class Functional:
    """One rate functional.

    policy_kinds names the models.POLICY_KINDS it evaluates; the search
    builds the first, which rate_report lifts the others to.  aux_sizes(
    card_u, card_v) sizes its auxiliary alphabets; terms are the minimands.
    """

    model_class: type
    policy_kinds: tuple[str, ...]
    aux_sizes: Callable[[int, int], tuple[int, ...]]
    terms: rates.Terms


_LAYERED = ("gp", "x_given_s")

FUNCTIONALS: dict[str, Functional] = {
    "RA": Functional(SdWtcModel, _LAYERED, lambda cu, cv: (cu, cv), rates.RA),
    "RA_alt": Functional(SdWtcModel, _LAYERED, lambda cu, cv: (cu, cv), rates.RA_ALT),
    "CHV": Functional(SdWtcModel, _LAYERED, lambda cu, cv: (1, cv), rates.CHV),
    "CEG": Functional(SdWtcModel, ("ceg",), lambda cu, cv: (cu,), rates.CEG),
    "RLN": Functional(RlnModel, ("rln",), lambda cu, cv: (cu, cv), rates.RLN),
    "semidet": Functional(SdWtcModel, ("x_given_s",), lambda cu, cv: (), rates.SEMIDET),
    "LN_encdec": Functional(SdWtcModel, ("x_given_s",), lambda cu, cv: (), rates.LN_ENCDEC),
}


def _aux(entry: Functional, card_u: int, card_v: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(range(size)) for size in entry.aux_sizes(card_u, card_v))


def _search_space(
    entry: Functional, model: SdWtcModel | RlnModel, card_u: int, card_v: int
) -> tuple[list[tuple[int, int]], Callable[[list[np.ndarray]], Any]]:
    """The blocks and the blocks -> policy builder of the kind the search builds."""
    return policy_blocks(entry.policy_kinds[0], model, _aux(entry, card_u, card_v))


def _stack_objective(entry: Functional, axes: tuple, mass: np.ndarray) -> np.ndarray:
    """Search objective of each joint in a stack: the functional clamped at
    zero (a do-nothing policy always achieves zero), with infeasible
    candidates scored -inf."""
    values, feasible = rates.evaluate(entry.terms, [name for name, _ in axes], mass)
    return np.where(feasible, np.maximum(0.0, values.min(axis=1)), -np.inf)


def _lookup(
    functional: str, model: SdWtcModel | RlnModel, card_u: int = 1, card_v: int = 1
) -> Functional:
    """The table entry for a functional, once the model and cardinalities fit it."""
    entry = FUNCTIONALS.get(functional)
    if entry is None:
        raise ValueError(f"unknown functional {functional!r}; expected one of {tuple(FUNCTIONALS)}")
    if not isinstance(model, entry.model_class):
        raise TypeError(f"the {functional} functional needs an {entry.model_class.__name__}")
    cap_u, cap_v = cardinality_caps(model)
    if not 1 <= card_u <= cap_u or not 1 <= card_v <= cap_v:
        raise ValueError(f"cardinalities ({card_u}, {card_v}) outside [1, {cap_u}] x [1, {cap_v}]")
    return entry


def _policy_kind(policy: Any) -> str:
    """The POLICY_KINDS entry whose parts (Pmf, or Channel with the same axis
    names) this policy has; its type name when none fits."""
    parts = policy_parts(policy)
    for kind, spec in POLICY_KINDS.items():
        if len(parts) == len(spec.parts) and all(
            isinstance(p, Channel) and (p.in_names, p.out_names) == (ins, outs) if ins
            else isinstance(p, Pmf)
            for p, (_, ins, outs) in zip(parts, spec.parts)
        ):
            return kind
    return type(policy).__name__


def rate_report(functional: str, model: SdWtcModel | RlnModel, policy: Any) -> rates.RateReport:
    """Evaluate a functional on a policy and return the full term breakdown.

    The layered functionals (RA, RA_alt, CHV) also take a bare (S,) -> (X,)
    kernel, lifted by models.as_input_policy.  A policy of a kind the
    functional does not take is a ValueError naming both kinds; an
    infeasible one (RA_alt where I(U;Y) < I(U;S)) has feasible False.
    """
    entry = _lookup(functional, model)
    kind = _policy_kind(policy)
    if kind not in entry.policy_kinds:
        raise ValueError(
            f"functional {functional} takes a {' or '.join(entry.policy_kinds)} policy, got {kind}"
        )
    if kind != entry.policy_kinds[0]:
        policy = as_input_policy(model, policy)
    return rates.report(entry.terms, policy_joint(entry.policy_kinds[0], model, policy))


def cardinality_caps(model: SdWtcModel | RlnModel) -> tuple[int, int]:
    """Auxiliary alphabet sizes beyond which enlargement cannot help."""
    k = len(model.s_symbols) * len(model.x_symbols)
    return k + 5, k * k + 5 * k + 3


def _ascend(
    functional: str,
    model: SdWtcModel | RlnModel,
    card_u: int,
    card_v: int,
    iterations: int,
    seed: int,
) -> tuple[Any, float, int]:
    """One coordinate-ascent run from a Dirichlet(1) start."""
    entry = FUNCTIONALS[functional]
    rng = np.random.default_rng(seed)
    shapes, build = _search_space(entry, model, card_u, card_v)
    aux = _aux(entry, card_u, card_v)
    blocks = [rng.dirichlet(np.ones(d), size=rows) for rows, d in shapes]

    def objective() -> float:
        axes, mass = stacked_joint(entry.policy_kinds[0], model, aux, [b[None] for b in blocks])
        return float(_stack_objective(entry, axes, mass)[0])

    best = objective()
    evals = 1

    if functional == "RA_alt" and best == -math.inf:
        # an uninformative U is always feasible (constraint gap exactly 0);
        # fold the drawn U-mass onto the first symbol and restart from there
        k = blocks[0].reshape(len(model.s_symbols), card_u, -1)
        k2 = np.zeros_like(k)
        k2[:, 0] = k.sum(axis=1)
        blocks = [k2.reshape(blocks[0].shape)]
        best = objective()
        evals += 1
    best_blocks = [b.copy() for b in blocks]

    slots = [(b, r) for b, (rows, d) in enumerate(shapes) for r in range(rows) if d > 1]
    if not slots:
        return build(best_blocks), best, evals

    step = _INITIAL_STEP
    rejects = 0
    for _ in range(iterations):
        b, r = slots[rng.integers(len(slots))]
        row = blocks[b][r]
        cand_row = _project_simplex(row + step * rng.standard_normal(row.size))
        saved = row.copy()
        blocks[b][r] = cand_row
        cand = objective()
        evals += 1
        if cand > best:
            best = cand
            best_blocks = [blk.copy() for blk in blocks]
            rejects = 0
        else:
            blocks[b][r] = saved
            rejects += 1
            if rejects >= _REJECTS_PER_HALVING:
                step *= 0.5
                rejects = 0
    return build(best_blocks), best, evals


def maximize(
    functional: str,
    model: SdWtcModel | RlnModel,
    card_u: int = 1,
    card_v: int = 1,
    budget: OptBudget = OptBudget(),
) -> OptResult:
    """Maximize a rate functional over its policy class.

    card_u / card_v size the auxiliary alphabets where the functional has
    them (U and V, or T for the causal-selection rate, or A and B for the
    rate-limited variant); they are ignored otherwise.  Restarts run one
    after another from their own seeds, and the first restart attaining the
    best value wins.
    """
    _lookup(functional, model, card_u, card_v)
    runs = [
        _ascend(functional, model, card_u, card_v, budget.iterations, seed)
        for seed in derive_seeds(budget.seed, budget.restarts)
    ]
    values = np.array([v for _, v, _ in runs])
    k = int(np.argmax(values))
    return OptResult(
        policy=runs[k][0],
        value=float(values[k]),
        trace=tuple(float(v) for v in values),
        evaluations=sum(e for _, _, e in runs),
    )


def _grid_rows(k: int, dim: int) -> np.ndarray:
    """All probability rows of length dim with entries that are multiples of 1/k."""
    def comps(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in comps(total - head, parts - 1):
                yield (head, *tail)

    return np.array(list(comps(k, dim)), dtype=float) / k


def exhaustive_small(
    functional: str,
    model: SdWtcModel | RlnModel,
    grid_step: float,
    card_u: int = 1,
    card_v: int = 1,
) -> float:
    """Best value over all policies whose kernel rows lie on a 1/k grid.

    Only viable for tiny alphabets; refuses outright when the grid holds
    more than ten million policies.  Evaluates them in memory-bounded chunks.
    """
    entry = _lookup(functional, model, card_u, card_v)
    k = round(1.0 / grid_step)
    if k < 1 or abs(grid_step - 1.0 / k) > 1e-12:
        raise ValueError(f"grid_step must be a reciprocal integer, got {grid_step!r}")

    shapes, _ = _search_space(entry, model, card_u, card_v)
    total = 1
    for rows, d in shapes:
        total *= math.comb(k + d - 1, d - 1) ** rows
    if total > _MAX_GRID_EVALS:
        raise ValueError(f"grid has {total} policies; refusing more than {_MAX_GRID_EVALS}")

    aux = _aux(entry, card_u, card_v)
    row_choices = [_grid_rows(k, d) for _, d in shapes]
    # one digit per kernel row, the last row's digit varying fastest
    radices = [len(c) for c, (rows, _) in zip(row_choices, shapes) for _ in range(rows)]

    # the first chunk is one policy; its joint sizes the chunks after it
    best, start, chunk = -math.inf, 0, 1
    while start < total:
        stop = min(start + chunk, total)
        digits = np.unravel_index(np.arange(start, stop), radices)
        stacks, i = [], 0
        for cand, (rows, _) in zip(row_choices, shapes):
            stacks.append(cand[np.stack(digits[i:i + rows], axis=1)])
            i += rows
        axes, mass = stacked_joint(entry.policy_kinds[0], model, aux, stacks)
        best = max(best, float(_stack_objective(entry, axes, mass).max()))
        start, chunk = stop, max(1, _GRID_CHUNK_ENTRIES * len(mass) // mass.size)
    return best
