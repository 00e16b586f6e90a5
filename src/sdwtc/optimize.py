"""Policy evaluation and search for the achievable-rate functionals.

``FUNCTIONALS`` maps each functional name to the model class it needs, the
policy kinds it takes (``models.POLICY_KINDS``, which gives the
row-stochastic blocks that parameterize a policy, the builder that turns
blocks into one and the joints of stacked blocks), the sizes of their
auxiliary alphabets, and its terms (``rates.Terms``).  ``rate_report`` is
the one way to evaluate a policy object: it builds the policy's joint and
returns ``rates.report`` of it.  ``maximize`` and ``exhaustive_small``
score stacks of raw blocks with a ``rates.plan`` evaluator (looked up once
per search or grid) and build no policy per candidate.  The search is
random-restart coordinate ascent, its restarts advanced in lockstep
rounds: each round scores every restart's next 16 candidates in one
stacked evaluation, after one batched simplex projection per row length,
and each restart keeps the first of them that improves, so each
restart's generator draws are the only per-restart work; its slot picks
are read from raw PCG64 words (``rng.bounded_draws``), exactly as
``Generator.integers`` would draw them.  A
brute-force grid enumeration, in chunks, serves problems small enough to
afford it.  Runs are deterministic given the budget seed (restart r draws
from the r-th splitmix64 output of the master seed), and each restart
walks the path it would walk alone.
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
    joint_plan,
    part_fits,
    policy_blocks,
    policy_joint,
    policy_parts,
)
from .rng import bounded_draws, derive_seeds

_INITIAL_STEP = 0.5
_REJECTS_PER_HALVING = 10
# candidates per restart in a round of the search; a round may cross more
# than one step halving, each candidate's step counting the halvings before it
_WINDOW = 16
# policies in a grid, and candidates in a search (restarts x iterations)
_MAX_GRID_EVALS = 10_000_000
# restarts per search: each has its own seed, generator and row in every
# round's stack of _WINDOW candidates, built before the first round
_MAX_RESTARTS = 10_000
# joint-mass entries per chunk of grid policies evaluated together (8 bytes each)
_GRID_CHUNK_ENTRIES = 1 << 12


@dataclass(frozen=True)
class OptBudget:
    """Search effort: random restarts, ascent steps per restart, master seed.

    More than _MAX_RESTARTS restarts, or more than _MAX_GRID_EVALS
    candidates in all (restarts x iterations), are refused here, before any
    seed or generator is built for them.
    """

    restarts: int = 16
    iterations: int = 400
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.iterations < 1:
            raise ValueError(f"restarts and iterations must be positive, got {self!r}")
        if self.restarts > _MAX_RESTARTS:
            raise ValueError(f"{self.restarts} restarts; refusing more than {_MAX_RESTARTS}")
        if self.restarts * self.iterations > _MAX_GRID_EVALS:
            raise ValueError(f"{self.restarts} restarts x {self.iterations} iterations; "
                             f"refusing more than {_MAX_GRID_EVALS} candidates")


@dataclass(frozen=True)
class OptResult:
    """Best policy found, its value, per-restart values, and total evaluations."""

    policy: Any
    value: float
    trace: tuple[float, ...]
    evaluations: int


def _project_rows(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of a (k, d) array onto the
    probability simplex (the sort-based method of Duchi et al., 2008)."""
    k, d = v.shape
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    # in each row, the last index j with u[j] * (j + 1) > css[j]
    rho = d - 1 - np.argmax((u * np.arange(1, d + 1) > css)[:, ::-1], axis=1)
    out = np.maximum(v - (css[np.arange(k), rho] / (rho + 1))[:, None], 0.0)
    return out / out.sum(axis=1, keepdims=True)


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


def _objective(entry: Functional, axes: tuple) -> Callable[[np.ndarray], np.ndarray]:
    """The search objective of each joint in a stack over these (name,
    alphabet) axes: the functional clamped at zero (a do-nothing policy
    always achieves zero), with infeasible candidates scored -inf.  Its
    rates.plan is looked up here, once per search."""
    evaluate = rates.plan(entry.terms, tuple(name for name, _ in axes), tuple(len(a) for _, a in axes))

    def objective(mass: np.ndarray) -> np.ndarray:
        values, feasible = evaluate(mass)
        return np.where(feasible, np.maximum(0.0, values.min(axis=1)), -np.inf)

    return objective


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
    """The POLICY_KINDS entry whose parts this policy's parts fit (see
    models.part_fits); its type name when none fits."""
    parts = policy_parts(policy)
    for kind, spec in POLICY_KINDS.items():
        if len(parts) == len(spec.parts) and all(
            part_fits(p, ins, outs) for p, (_, ins, outs) in zip(parts, spec.parts)
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


def _lockstep(
    entry: Functional, model: SdWtcModel | RlnModel, aux: tuple, shapes: list[tuple[int, int]],
    iterations: int, seeds: list[int],
) -> tuple[list[np.ndarray], np.ndarray, int]:
    """Coordinate ascent from a Dirichlet(1) start per seed, all restarts
    advanced together in rounds.  In a round each restart with iterations
    left puts its next w = min(_WINDOW, iterations left) candidates into
    one stack, which is projected once per row length and scored in one
    evaluation; each restart then takes the first of its candidates that
    beats its best and drops the rest.  That is the path it would walk
    alone: its draws (the slot, then the noise) do not depend on
    acceptance, and until it accepts its base point is fixed and candidate
    j's step is its step, halved once per _REJECTS_PER_HALVING rejects
    before it.  Draws are made lazily, in each generator's order, into a
    ring of _WINDOW per restart; those after an acceptance wait there for
    the next round.  The slot picks are rng.bounded_draws of the
    generator's bit generator, the noise its standard_normal.  Each
    restart's blocks are views of its row of one (R, sum of rows * d)
    array.  Returns the best (R, rows, d) blocks, the (R,) best values and
    the number of evaluations the restarts would make alone."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    flat = np.array([np.concatenate([g.dirichlet(np.ones(d), size=rows).ravel() for rows, d in shapes])
                     for g in rngs])
    offsets = np.cumsum([0] + [rows * d for rows, d in shapes])

    def views(a: np.ndarray) -> list[np.ndarray]:
        return [a[:, lo:lo + rows * d].reshape(len(a), rows, d) for lo, (rows, d) in zip(offsets, shapes)]

    blocks = views(flat)
    axes, joint_mass = joint_plan(entry.policy_kinds[0], model, aux)
    score = _objective(entry, axes)

    def objective(stacks: list[np.ndarray]) -> np.ndarray:
        return score(joint_mass(stacks))

    best = objective(blocks)

    fold = np.flatnonzero(best == -math.inf) if entry.terms.feasible is not None else ()
    if len(fold):
        # the one feasibility formula, RA_alt's I(U;Y) - I(U;S), is exactly 0
        # at an uninformative U: fold the drawn U-mass onto the first symbol
        # and restart from there
        k = blocks[0][fold].reshape(len(fold), len(model.s_symbols), len(aux[0]), -1)
        k2 = np.zeros_like(k)
        k2[:, :, 0] = k.sum(axis=2)
        blocks[0][fold] = k2.reshape(-1, *blocks[0].shape[1:])
        best[fold] = objective([b[fold] for b in blocks])

    # the free slots, rows of length above 1: each one's length and first column
    slots = np.array([(d, lo + r * d) for lo, (rows, d) in zip(offsets, shapes) for r in range(rows) if d > 1],
                     dtype=int).reshape(-1, 2)
    if not len(slots):
        return blocks, best, len(rngs) + len(fold)
    slot_len, slot_start = slots.T
    pickers = [bounded_draws(g.bit_generator, len(slots)) for g in rngs]
    # restart i's draw for its iteration t sits at [i, t % _WINDOW]: the
    # slot in picks, the noise in the buffer of the slot's row length
    picks = np.empty((len(rngs), _WINDOW), dtype=int)
    noise = {d: np.empty((len(rngs), _WINDOW, d)) for d in sorted(set(slot_len.tolist()))}
    slot_noise = [noise[d] for d in slot_len.tolist()]
    drawn = [0] * len(rngs)

    step = np.full(len(rngs), _INITIAL_STEP)
    rejects = np.zeros(len(rngs), dtype=int)
    done = np.zeros(len(rngs), dtype=int)
    while (live := np.flatnonzero(done < iterations)).size:
        w = np.minimum(_WINDOW, iterations - done[live])
        for i, end in zip(live.tolist(), (done[live] + w).tolist()):
            normal, pick_slot = rngs[i].standard_normal, pickers[i]
            for t in range(drawn[i], end):
                picks[i, t % _WINDOW] = s = pick_slot()
                normal(out=slot_noise[s][i, t % _WINDOW])
            drawn[i] = end
        # candidate n is restart owner[n]'s pos[n]-th of this round
        starts = np.cumsum(w) - w
        owner = np.repeat(live, w)
        pos = np.arange(len(owner)) - np.repeat(starts, w)
        buf = (done[owner] + pos) % _WINDOW
        pick = picks[owner, buf]
        # the step is a power of two, so each product is the repeated halving
        cand_step = step[owner] * 0.5 ** ((rejects[owner] + pos) // _REJECTS_PER_HALVING)
        trial = flat[owner]
        picked = slot_len[pick]
        for d, rows_noise in noise.items():
            who = np.flatnonzero(picked == d)
            if len(who):
                cols = slot_start[pick[who], None] + np.arange(d)
                trial[who[:, None], cols] = _project_rows(
                    trial[who[:, None], cols] + cand_step[who, None] * rows_noise[owner[who], buf[who]])
        cand = objective(views(trial))
        # each restart's first candidate above its best, or _WINDOW
        first = np.minimum.reduceat(np.where(cand > best[owner], pos, _WINDOW), starts)
        up = first < w
        taken = starts[up] + first[up]
        best[live[up]] = cand[taken]
        flat[live[up]] = trial[taken]
        rejected = np.where(up, first, w)
        total = rejects[live] + rejected
        step[live] = step[live] * 0.5 ** (total // _REJECTS_PER_HALVING)
        rejects[live] = np.where(up, 0, total % _REJECTS_PER_HALVING)
        done[live] += rejected + up
    return blocks, best, len(rngs) * (1 + iterations) + len(fold)


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
    rate-limited variant); they are ignored otherwise.  Restarts advance in
    lockstep rounds from their own seeds, one stacked evaluation of every
    restart's next _WINDOW candidates per round, and each walks the path
    it would walk alone; the first restart attaining the best value wins.
    """
    entry = _lookup(functional, model, card_u, card_v)
    shapes, build = _search_space(entry, model, card_u, card_v)
    blocks, values, evals = _lockstep(
        entry, model, _aux(entry, card_u, card_v), shapes, budget.iterations,
        derive_seeds(budget.seed, budget.restarts),
    )
    k = int(np.argmax(values))
    return OptResult(
        policy=build([b[k] for b in blocks]),
        value=float(values[k]),
        trace=tuple(values.tolist()),
        evaluations=evals,
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
    more than ten million policies.  Evaluates them in memory-bounded chunks,
    with the joint plan and the objective built once per grid.
    """
    entry = _lookup(functional, model, card_u, card_v)
    k = round(1.0 / grid_step) if grid_step > 0.0 else 0  # refuses 0.0, -0.0 and NaN below
    if k < 1 or abs(grid_step - 1.0 / k) > 1e-12:
        raise ValueError(f"grid_step must be a reciprocal integer, got {grid_step!r}")

    shapes, _ = _search_space(entry, model, card_u, card_v)
    total = 1
    for rows, d in shapes:
        total *= math.comb(k + d - 1, d - 1) ** rows
    if total > _MAX_GRID_EVALS:
        raise ValueError(f"grid has {total} policies; refusing more than {_MAX_GRID_EVALS}")

    axes, joint_mass = joint_plan(entry.policy_kinds[0], model, _aux(entry, card_u, card_v))
    score = _objective(entry, axes)
    row_choices = [_grid_rows(k, d) for _, d in shapes]
    # one digit per kernel row, the last row's digit varying fastest
    radices = [len(c) for c, (rows, _) in zip(row_choices, shapes) for _ in range(rows)]

    chunk = max(1, _GRID_CHUNK_ENTRIES // math.prod(len(a) for _, a in axes))
    best = -math.inf
    for start in range(0, total, chunk):
        digits = np.unravel_index(np.arange(start, min(start + chunk, total)), radices)
        stacks, i = [], 0
        for cand, (rows, _) in zip(row_choices, shapes):
            stacks.append(cand[np.stack(digits[i:i + rows], axis=1)])
            i += rows
        mass = joint_mass(stacks)
        best = max(best, float(score(mass).max()))
    return best
