"""Policy search for the achievable-rate functionals.

``FUNCTIONALS`` maps each functional name to the model class it needs, the
policy kinds it takes (``models.POLICY_KINDS``, which gives the
row-stochastic blocks that parameterize a policy and the builder that turns
blocks into one), the sizes of their auxiliary alphabets, and its rate
report; ``rate_report``, ``maximize`` and ``exhaustive_small`` all go
through it.  The search is random-restart
coordinate ascent plus a brute-force grid enumeration for problems small
enough to afford it.  Runs are deterministic given the budget seed (restart
r draws from the r-th splitmix64 output of the master seed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Any, Callable

import numpy as np

from . import rates
from .models import (
    POLICY_KINDS,
    InputPolicy,
    RlnModel,
    SdWtcModel,
    as_input_policy,
    assemble_joint,
    policy_blocks,
)
from .prob import Channel, JointPmf, Pmf
from .rng import derive_seeds

_INITIAL_STEP = 0.5
_REJECTS_PER_HALVING = 10
_MAX_GRID_EVALS = 10_000_000


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


def _layered_joint(model: SdWtcModel, policy: Any) -> JointPmf:
    return assemble_joint(model, as_input_policy(model, policy))


@dataclass(frozen=True)
class Functional:
    """One rate functional.

    policy_kinds names the models.POLICY_KINDS it evaluates; the search
    builds the first.  aux_sizes(card_u, card_v) sizes that kind's auxiliary
    alphabets, and report(model, policy) evaluates a policy.
    """

    model_class: type
    policy_kinds: tuple[str, ...]
    aux_sizes: Callable[[int, int], tuple[int, ...]]
    report: Callable[[Any, Any], rates.RateReport]


_LAYERED = ("gp", "x_given_s")

# Reports look rates.* and assemble_joint up at call time, so wrapping the
# module attributes (as a tracer does) reaches every evaluation.
FUNCTIONALS: dict[str, Functional] = {
    "RA": Functional(SdWtcModel, _LAYERED, lambda cu, cv: (cu, cv),
                     lambda m, policy: rates.rate_RA(_layered_joint(m, policy))),
    "RA_alt": Functional(SdWtcModel, _LAYERED, lambda cu, cv: (cu, cv),
                         lambda m, policy: rates.rate_RA_alt(_layered_joint(m, policy))),
    "CHV": Functional(SdWtcModel, _LAYERED, lambda cu, cv: (1, cv),
                      lambda m, policy: rates.rate_CHV(_layered_joint(m, policy))),
    "CEG": Functional(SdWtcModel, ("ceg",), lambda cu, cv: (cu,),
                      lambda m, policy: rates.rate_CEG(rates.ceg_joint(*policy, m))),
    "RLN": Functional(RlnModel, ("rln",), lambda cu, cv: (cu, cv),
                      lambda m, policy: rates.rate_RLN(*policy, m)),
    "semidet": Functional(SdWtcModel, ("x_given_s",), lambda cu, cv: (),
                          lambda m, policy: rates.semidet_objective(policy, m)),
    "LN_encdec": Functional(SdWtcModel, ("x_given_s",), lambda cu, cv: (),
                            lambda m, policy: rates.rate_LN_encdec(policy, m)),
}


def _search_space(
    entry: Functional, model: SdWtcModel | RlnModel, card_u: int, card_v: int
) -> tuple[list[tuple[int, int]], Callable[[list[np.ndarray]], Any]]:
    """The blocks and the blocks -> policy builder of the kind the search builds."""
    aux = tuple(tuple(range(size)) for size in entry.aux_sizes(card_u, card_v))
    return policy_blocks(entry.policy_kinds[0], model, aux)


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
    if isinstance(policy, InputPolicy):
        policy = policy.kernel
    parts = policy if isinstance(policy, tuple) else (policy,)
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
    functional does not take is a ValueError naming both kinds.
    """
    entry = _lookup(functional, model)
    kind = _policy_kind(policy)
    if kind not in entry.policy_kinds:
        raise ValueError(
            f"functional {functional} takes a {' or '.join(entry.policy_kinds)} policy, got {kind}"
        )
    return entry.report(model, policy)


def evaluate_policy(functional: str, model: SdWtcModel | RlnModel, policy: Any) -> float:
    """Objective value of a policy; -inf when the two-term variant is infeasible."""
    report = rate_report(functional, model, policy)
    return report.value if report.feasible else -math.inf


def cardinality_caps(model: SdWtcModel | RlnModel) -> tuple[int, int]:
    """Auxiliary alphabet sizes beyond which enlargement cannot help."""
    k = len(model.s_symbols) * len(model.x_symbols)
    return k + 5, k * k + 5 * k + 3


def _objective(entry: Functional, model: SdWtcModel | RlnModel, policy: Any) -> float:
    """Search objective: the functional clamped at zero (a do-nothing policy
    always achieves zero), with infeasible candidates scored -inf."""
    report = entry.report(model, policy)
    return max(0.0, report.value) if report.feasible else -math.inf


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
    blocks = [rng.dirichlet(np.ones(d), size=rows) for rows, d in shapes]
    best_policy = build(blocks)
    best = _objective(entry, model, best_policy)
    evals = 1

    if functional == "RA_alt" and best == -math.inf:
        # an uninformative U is always feasible (constraint gap exactly 0);
        # fold the drawn U-mass onto the first symbol and restart from there
        k = blocks[0].reshape(len(model.s_symbols), card_u, -1)
        k2 = np.zeros_like(k)
        k2[:, 0] = k.sum(axis=1)
        blocks = [k2.reshape(blocks[0].shape)]
        best_policy = build(blocks)
        best = _objective(entry, model, best_policy)
        evals += 1

    slots = [(b, r) for b, (rows, d) in enumerate(shapes) for r in range(rows) if d > 1]
    if not slots:
        return best_policy, best, evals

    step = _INITIAL_STEP
    rejects = 0
    for _ in range(iterations):
        b, r = slots[rng.integers(len(slots))]
        row = blocks[b][r]
        cand_row = _project_simplex(row + step * rng.standard_normal(row.size))
        saved = row.copy()
        blocks[b][r] = cand_row
        cand_policy = build(blocks)
        cand = _objective(entry, model, cand_policy)
        evals += 1
        if cand > best:
            best, best_policy = cand, cand_policy
            rejects = 0
        else:
            blocks[b][r] = saved
            rejects += 1
            if rejects >= _REJECTS_PER_HALVING:
                step *= 0.5
                rejects = 0
    return best_policy, best, evals


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
    more than ten million policies.
    """
    entry = _lookup(functional, model, card_u, card_v)
    k = round(1.0 / grid_step)
    if k < 1 or abs(grid_step - 1.0 / k) > 1e-12:
        raise ValueError(f"grid_step must be a reciprocal integer, got {grid_step!r}")

    shapes, build = _search_space(entry, model, card_u, card_v)
    total = 1
    for rows, d in shapes:
        total *= math.comb(k + d - 1, d - 1) ** rows
    if total > _MAX_GRID_EVALS:
        raise ValueError(f"grid has {total} policies; refusing more than {_MAX_GRID_EVALS}")

    row_choices: list[np.ndarray] = []
    for rows, d in shapes:
        cand = _grid_rows(k, d)
        for _ in range(rows):
            row_choices.append(cand)

    best = -math.inf
    for pick in iter_product(*(range(len(c)) for c in row_choices)):
        blocks = []
        i = 0
        for rows, d in shapes:
            blocks.append(np.stack([row_choices[i + r][pick[i + r]] for r in range(rows)]))
            i += rows
        value = _objective(entry, model, build(blocks))
        if value > best:
            best = value
    return float(best)
