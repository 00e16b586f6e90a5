"""Restart/ascent maximizer and the tiny-instance grid oracle."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from identities import random_gp_policy, random_model, random_rln_model
from sdwtc.models import (
    assemble_joint,
    build_rln_example,
    build_semideterministic,
    gp_policy,
    stacked_joint,
)
from sdwtc.optimize import (
    FUNCTIONALS,
    OptBudget,
    OptResult,
    _aux,
    _search_space,
    cardinality_caps,
    exhaustive_small,
    maximize,
    rate_report,
)
from sdwtc.prob import Channel, bernoulli
from sdwtc.rates import constraint_gap, evaluate

RNG_SEED = 20240820


def _xor_model():
    kz = np.full((2, 2, 1), 1.0)
    ch = Channel((("X", (0, 1)), ("S", (0, 1))), (("Z", (0,)),), kz)
    return build_semideterministic(lambda x, s: x ^ s, ch, bernoulli(0.5))


def _instances(rng):
    """functional -> (model, card_u, card_v) on small random instances."""
    model = random_model(rng)
    return {
        "RA": (model, 2, 2), "RA_alt": (model, 2, 2), "CHV": (model, 1, 2), "CEG": (model, 2, 1),
        "RLN": (random_rln_model(rng), 2, 2), "semidet": (_xor_model(), 1, 1),
        "LN_encdec": (model, 1, 1),
    }


# ---------------------------------------------------------------------------
# budget and argument validation


def test_budget_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        OptBudget(restarts=0)
    with pytest.raises(ValueError):
        OptBudget(iterations=0)


def test_unknown_functional_rejected():
    model = random_model(np.random.default_rng(RNG_SEED))
    with pytest.raises(ValueError):
        maximize("RB", model)
    policy = random_gp_policy(np.random.default_rng(RNG_SEED), model)
    with pytest.raises(ValueError, match="unknown functional None") as err:
        rate_report(None, model, policy)
    assert all(repr(name) in str(err.value) for name in FUNCTIONALS)


def test_grid_oracle_shares_the_model_and_cardinality_checks():
    model = random_model(np.random.default_rng(RNG_SEED))
    cap_u, _ = cardinality_caps(model)
    with pytest.raises(TypeError, match="needs an RlnModel"):
        exhaustive_small("RLN", model, 0.5)
    with pytest.raises(ValueError, match="cardinalities"):
        exhaustive_small("RA", model, 0.5, card_u=cap_u + 1)


def test_cardinality_caps_formulas():
    model = random_model(np.random.default_rng(RNG_SEED), ns=2, nx=3)
    k = 2 * 3
    assert cardinality_caps(model) == (k + 5, k * k + 5 * k + 3)


def test_cardinality_cap_enforced():
    model = random_model(np.random.default_rng(RNG_SEED))
    cap_u, cap_v = cardinality_caps(model)
    with pytest.raises(ValueError):
        maximize("RA", model, card_u=cap_u + 1, budget=OptBudget(restarts=1, iterations=1))
    with pytest.raises(ValueError):
        maximize("RA", model, card_v=cap_v + 1, budget=OptBudget(restarts=1, iterations=1))


def test_functional_model_pairing_enforced():
    model = random_model(np.random.default_rng(RNG_SEED))
    rln = random_rln_model(np.random.default_rng(RNG_SEED + 1))
    with pytest.raises(TypeError):
        maximize("RLN", model, budget=OptBudget(restarts=1, iterations=1))
    with pytest.raises(TypeError):
        maximize("RA", rln, budget=OptBudget(restarts=1, iterations=1))


# ---------------------------------------------------------------------------
# determinism and result invariants


def test_seeded_determinism_bit_for_bit():
    model = random_model(np.random.default_rng(RNG_SEED + 2))
    budget = OptBudget(restarts=4, iterations=60, seed=17)
    a = maximize("RA", model, card_u=2, card_v=2, budget=budget)
    b = maximize("RA", model, card_u=2, card_v=2, budget=budget)
    assert a.value == b.value
    assert a.trace == b.trace
    assert a.evaluations == b.evaluations
    assert np.array_equal(a.policy.kernel.kernel, b.policy.kernel.kernel)


def test_different_seeds_differ():
    model = random_model(np.random.default_rng(RNG_SEED + 3))
    a = maximize("RA", model, card_v=2, budget=OptBudget(restarts=2, iterations=40, seed=0))
    b = maximize("RA", model, card_v=2, budget=OptBudget(restarts=2, iterations=40, seed=1))
    assert not np.array_equal(a.policy.kernel.kernel, b.policy.kernel.kernel)


def test_value_is_max_of_trace_and_reevaluates():
    rng = np.random.default_rng(RNG_SEED + 4)
    for functional, factory, cards in (
        ("RA", random_model, (2, 2)),
        ("CHV", random_model, (1, 2)),
        ("LN_encdec", random_model, (1, 1)),
    ):
        model = factory(rng)
        res = maximize(
            functional, model, *cards, budget=OptBudget(restarts=3, iterations=40, seed=5)
        )
        assert res.value == max(res.trace)
        again = rate_report(functional, model, res.policy)
        assert again.feasible
        assert res.value == pytest.approx(max(0.0, again.value), abs=1e-12)


def test_trace_values_clamped_nonnegative():
    model = random_model(np.random.default_rng(RNG_SEED + 5))
    res = maximize("CHV", model, card_v=2, budget=OptBudget(restarts=6, iterations=30, seed=2))
    assert all(v >= 0.0 for v in res.trace)


def test_value_monotone_in_iterations():
    model = random_model(np.random.default_rng(RNG_SEED + 6))
    values = [
        maximize(
            "RA", model, card_v=2, budget=OptBudget(restarts=2, iterations=it, seed=9)
        ).value
        for it in (5, 50, 200)
    ]
    assert values[0] <= values[1] + 1e-15
    assert values[1] <= values[2] + 1e-15


def test_trajectories_are_pinned():
    # exact traces recorded before the functional table replaced the string
    # dispatch and derive_seeds replaced per-restart seed derivation
    model = random_model(np.random.default_rng(RNG_SEED + 19))
    ra = maximize("RA", model, 2, 2, OptBudget(restarts=3, iterations=40, seed=5))
    assert ra.trace == (0.09248317618777913, 0.09334634162232902, 0.16959887884741232)
    assert ra.evaluations == 123
    rln = maximize("RLN", build_rln_example(0.25, 0.5), 2, 1,
                   OptBudget(restarts=3, iterations=40, seed=1))
    assert rln.trace == (0.0494319960325551, 0.08926074908229764, 0.07641503298830243)
    assert rln.evaluations == 123


# ---------------------------------------------------------------------------
# search-space dominance and feasibility handling


def test_ra_dominates_chv_at_equal_budget():
    # with a singleton U the two searches walk the same trajectory, so the
    # containment of the policy spaces shows up as plain dominance
    rng = np.random.default_rng(RNG_SEED + 8)
    budget = OptBudget(restarts=4, iterations=60, seed=13)
    for _ in range(10):
        model = random_model(rng)
        ra = maximize("RA", model, card_u=1, card_v=2, budget=budget)
        chv = maximize("CHV", model, card_v=2, budget=budget)
        assert ra.value >= chv.value - 1e-9


def test_ra_alt_best_policy_is_feasible():
    rng = np.random.default_rng(RNG_SEED + 9)
    for _ in range(5):
        model = random_model(rng)
        res = maximize(
            "RA_alt", model, card_u=2, card_v=2, budget=OptBudget(restarts=4, iterations=40, seed=7)
        )
        assert res.value > -np.inf
        j = assemble_joint(model, res.policy)
        assert constraint_gap(j) >= -1e-10


def test_evaluate_policy_penalizes_infeasible_alt():
    model = random_model(np.random.default_rng(RNG_SEED + 10))
    ns, nx = len(model.s_symbols), len(model.x_symbols)
    k = np.zeros((ns, ns, 1, nx))
    for s in range(ns):
        k[s, s, 0, :] = 1.0 / nx
    policy = gp_policy(model.s_symbols, model.s_symbols, (0,), model.x_symbols, k)
    report = rate_report("RA_alt", model, policy)
    assert not report.feasible and np.isfinite(report.value)
    ra = rate_report("RA", model, policy)
    assert ra.feasible and np.isfinite(ra.value)


def test_every_functional_runs_and_types_policies():
    rng = np.random.default_rng(RNG_SEED + 11)
    model = random_model(rng)
    rln = random_rln_model(rng)
    xor = _xor_model()
    budget = OptBudget(restarts=2, iterations=15, seed=1)
    by_model = {
        "RA": model, "RA_alt": model, "CHV": model, "CEG": model,
        "RLN": rln, "semidet": xor, "LN_encdec": model,
    }
    assert set(FUNCTIONALS) == set(by_model)
    for functional, m in by_model.items():
        res = maximize(functional, m, card_u=2, card_v=2, budget=budget)
        assert isinstance(res, OptResult)
        assert res.value >= 0.0
        assert np.isfinite(res.value)


# ---------------------------------------------------------------------------
# grid oracle


def test_grid_step_must_be_reciprocal_integer():
    model = _xor_model()
    with pytest.raises(ValueError):
        exhaustive_small("semidet", model, 0.3)


def test_grid_overflow_guard():
    model = random_model(np.random.default_rng(RNG_SEED + 12), ns=3, nx=3)
    with pytest.raises(ValueError, match="grid"):
        exhaustive_small("RA", model, 1.0 / 64.0, card_u=4, card_v=4)


def test_grid_xor_toy_exact_value():
    # uniform rows lie on the half-step grid; the optimum is exactly one bit
    assert exhaustive_small("semidet", _xor_model(), 0.5) == pytest.approx(1.0, abs=1e-12)


def test_grid_refinement_monotone():
    rng = np.random.default_rng(RNG_SEED + 13)
    for _ in range(5):
        model = random_model(rng)
        coarse = exhaustive_small("LN_encdec", model, 1.0 / 4.0)
        fine = exhaustive_small("LN_encdec", model, 1.0 / 8.0)
        assert fine >= coarse - 1e-12


@pytest.mark.parametrize("functional", sorted(FUNCTIONALS))
def test_stacked_evaluation_matches_rate_report(functional):
    # the search's evaluator on a stack of policies against rate_report on
    # each policy object: 1e-12 on the stack, bit for bit on a stack of one
    rng = np.random.default_rng(RNG_SEED + 20)
    model, card_u, card_v = _instances(rng)[functional]
    entry = FUNCTIONALS[functional]
    shapes, build = _search_space(entry, model, card_u, card_v)

    def joints(stacks):
        return stacked_joint(entry.policy_kinds[0], model, _aux(entry, card_u, card_v), stacks)

    stacks = [rng.dirichlet(np.ones(d), size=(9, rows)) for rows, d in shapes]
    axes, mass = joints(stacks)
    names = [name for name, _ in axes]
    values, feasible = evaluate(entry.terms, names, mass)
    assert values.shape == (9, len(entry.terms.labels))
    for b in range(9):
        report = rate_report(functional, model, build([s[b] for s in stacks]))
        want = [v for _, v in report.terms]
        assert np.allclose(values[b], want, rtol=0.0, atol=1e-12)
        assert feasible[b] == report.feasible
        one, one_feasible = evaluate(entry.terms, names, joints([s[b:b + 1] for s in stacks])[1])
        assert one[0].tolist() == want
        assert one_feasible[0] == report.feasible


def _grid_by_rate_report(functional, model, k, card_u, card_v):
    """exhaustive_small one policy object at a time, through rate_report."""
    shapes, build = _search_space(FUNCTIONALS[functional], model, card_u, card_v)
    rows = {d: [np.array(c) / k for c in itertools.product(range(k + 1), repeat=d) if sum(c) == k]
            for _, d in shapes}
    best = -math.inf
    for pick in itertools.product(*(rows[d] for n, d in shapes for _ in range(n))):
        blocks, i = [], 0
        for n, _ in shapes:
            blocks.append(np.stack(pick[i:i + n]))
            i += n
        report = rate_report(functional, model, build(blocks))
        best = max(best, max(0.0, report.value) if report.feasible else -math.inf)
    return best


@pytest.mark.parametrize("functional, k", [
    ("RA", 2), ("RA_alt", 2), ("CHV", 3), ("CEG", 2), ("RLN", 2), ("semidet", 4), ("LN_encdec", 4),
])
def test_grid_matches_a_per_policy_oracle(functional, k):
    rng = np.random.default_rng(RNG_SEED + 21)
    model, card_u, card_v = _instances(rng)[functional]
    if functional in ("RA", "RA_alt"):
        card_v = 1
    oracle = _grid_by_rate_report(functional, model, k, card_u, card_v)
    assert exhaustive_small(functional, model, 1.0 / k, card_u, card_v) == pytest.approx(oracle, abs=1e-12)


def test_maximize_matches_grid_oracle_on_xor_toy():
    model = _xor_model()
    res = maximize("semidet", model, budget=OptBudget(restarts=8, iterations=120, seed=4))
    oracle = exhaustive_small("semidet", model, 1.0 / 64.0)
    assert abs(res.value - oracle) <= 1e-3
