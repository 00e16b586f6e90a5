"""Rate functionals: minimand identities, feasibility, and the erasure repair."""
from __future__ import annotations

import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from identities import (
    copy_axis,
    random_ceg_joint,
    random_gp_policy,
    random_model,
    random_rln_joint,
    random_rln_model,
    random_rln_policy,
    stacked_joint,
)
from sdwtc.models import (
    SdWtcModel,
    assemble_joint,
    build_rln_example,
    build_semideterministic,
    gp_policy,
    joint_plan,
    lift_side_information,
    policy_joint,
)
from sdwtc.optimize import FUNCTIONALS, _aux, _search_space, rate_report
from sdwtc.prob import (
    Channel,
    Pmf,
    bernoulli,
    binary_entropy,
    entropy,
    mutual_information,
    _entropy_bits,
    uniform,
)
from sdwtc import rates
from sdwtc.rates import (
    _PAIRWISE,
    _TOKEN,
    CEG,
    CHV,
    FEAS_TOL,
    LN_ENCDEC,
    RA,
    RA_ALT,
    RLN,
    Terms,
    _drop_sums,
    _sum_gather,
    constraint_gap,
    evaluate,
    report,
    transform_to_alt,
)

RNG_SEED = 20240819


# ---------------------------------------------------------------------------
# R_A and its three minimands


def test_ra_constant_auxiliaries_give_zero():
    rng = np.random.default_rng(RNG_SEED)
    model = random_model(rng)
    policy = random_gp_policy(rng, model, cu=1, cv=1)
    assert report(RA, assemble_joint(model, policy)).value == pytest.approx(0.0, abs=1e-10)


def test_ra_report_structure():
    rng = np.random.default_rng(RNG_SEED + 1)
    model = random_model(rng)
    j = assemble_joint(model, random_gp_policy(rng, model))
    rep = report(RA, j)
    assert len(rep.terms) == 3
    values = [v for _, v in rep.terms]
    assert rep.value == min(values)
    assert dict(rep.terms)[rep.active_term] == rep.value


def test_ra_minimand_identity_swap_zs():
    # the second minimand equals the third with I(V;Z|U) replaced by I(V;S|U)
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(60):
        model = random_model(rng)
        j = assemble_joint(model, random_gp_policy(rng, model))
        t2 = dict(report(RA, j).terms)["I(U,V;Y)-I(U,V;S)"]
        swapped = (
            mutual_information(j, ("U", "V"), ("Y",))
            - mutual_information(j, ("U",), ("S",))
            - mutual_information(j, ("V",), ("S",), given=("U",))
        )
        assert t2 == pytest.approx(swapped, abs=1e-10)


def test_ra_minimand_identity_gap_shift():
    # first minimand = third minimand - (I(U;Y) - I(U;S))
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(60):
        model = random_model(rng)
        j = assemble_joint(model, random_gp_policy(rng, model))
        terms = dict(report(RA, j).terms)
        t1 = terms["I(V;Y|U)-I(V;Z|U)"]
        t3 = terms["I(U,V;Y)-I(U;S)-I(V;Z|U)"]
        assert t1 == pytest.approx(t3 - constraint_gap(j), abs=1e-10)


# ---------------------------------------------------------------------------
# the alternative two-term characterization


def test_ra_alt_matches_ra_when_feasible():
    rng = np.random.default_rng(RNG_SEED + 4)
    seen = 0
    for _ in range(200):
        model = random_model(rng)
        j = assemble_joint(model, random_gp_policy(rng, model))
        alt = report(RA_ALT, j)
        if not alt.feasible:
            continue
        seen += 1
        gap = constraint_gap(j)
        diff = report(RA, j).value - alt.value
        assert -1e-10 <= diff <= max(gap, 0.0) + 1e-10
    assert seen >= 20  # the generator must actually produce feasible cases


def test_ra_alt_constant_u_is_chv():
    rng = np.random.default_rng(RNG_SEED + 5)
    for _ in range(30):
        model = random_model(rng)
        j = assemble_joint(model, random_gp_policy(rng, model, cu=1, cv=3))
        alt = report(RA_ALT, j)
        assert alt.feasible
        assert abs(constraint_gap(j)) < 1e-10
        assert alt.value == pytest.approx(report(CHV, j).value, abs=1e-12)


def test_ra_alt_reports_infeasibility():
    # U = S with X independent: I(U;Y) < I(U;S) = H(S)
    model = random_model(np.random.default_rng(RNG_SEED + 6))
    ns, nx = len(model.s_symbols), len(model.x_symbols)
    k = np.zeros((ns, ns, 1, nx))
    for s in range(ns):
        k[s, s, 0, :] = 1.0 / nx
    policy = gp_policy(model.s_symbols, model.s_symbols, (0,), model.x_symbols, k)
    j = assemble_joint(model, policy)
    assert constraint_gap(j) < 0.0
    assert not report(RA_ALT, j).feasible


# ---------------------------------------------------------------------------
# the erasure repair


def _repair_family_model() -> SdWtcModel:
    # clean legitimate channel, erasing eavesdropper: Y = X, Z = BEC(X)
    x_symbols = (0, 1)
    k = np.zeros((2, 2, 2, 3))
    for x in (0, 1):
        for s in (0, 1):
            k[x, s, x, x] = 0.5
            k[x, s, x, 2] = 0.5
    ch = Channel(
        (("X", x_symbols), ("S", (0, 1))), (("Y", (0, 1)), ("Z", (0, 1, "?"))), k
    )
    return SdWtcModel(state_pmf=bernoulli(0.5), channel=ch)


def _noisy_state_tracker_policy(model: SdWtcModel, q: float, rng=None):
    # U = S through a BSC(q), V = X uniform and independent of (U, S)
    ns, nx = len(model.s_symbols), len(model.x_symbols)
    k = np.zeros((ns, 2, nx, nx))
    for s in range(ns):
        for u in range(2):
            p_u = 1.0 - q if u == s else q
            for v in range(nx):
                k[s, u, v, v] = p_u / nx
    if rng is not None:  # small jitter, then renormalize rows
        k = k + rng.dirichlet(np.ones(2 * nx * nx), size=ns).reshape(k.shape) * 0.02
        k = k / k.sum(axis=(1, 2, 3), keepdims=True)
    return gp_policy(model.s_symbols, (0, 1), model.x_symbols, model.x_symbols, k)


def test_repair_returns_feasible_policy_unchanged():
    rng = np.random.default_rng(RNG_SEED + 7)
    model = random_model(rng)
    policy = random_gp_policy(rng, model, cu=1, cv=2)
    j = assemble_joint(model, policy)
    assert constraint_gap(j) >= -1e-10
    out = transform_to_alt(j, policy)
    assert out is policy


def test_repair_zero_erasure_endpoint_gap():
    # at erasure probability 0 the augmented constraint gap collapses to
    # I(U,V;Y) - I(U,V;S) of the original joint
    from sdwtc.rates import _erasure_augmented_policy

    model = _repair_family_model()
    policy = _noisy_state_tracker_policy(model, 0.4)
    j = assemble_joint(model, policy)
    j0 = assemble_joint(model, _erasure_augmented_policy(policy, 0.0))
    want = mutual_information(j, ("U", "V"), ("Y",)) - mutual_information(
        j, ("U", "V"), ("S",)
    )
    assert constraint_gap(j0) == pytest.approx(want, abs=1e-10)


def test_repair_full_erasure_endpoint_is_original_gap():
    from sdwtc.rates import _erasure_augmented_policy

    model = _repair_family_model()
    policy = _noisy_state_tracker_policy(model, 0.4)
    j = assemble_joint(model, policy)
    j1 = assemble_joint(model, _erasure_augmented_policy(policy, 1.0))
    assert constraint_gap(j1) == pytest.approx(constraint_gap(j), abs=1e-10)


def test_repair_recovers_rate_on_infeasible_family():
    rng = np.random.default_rng(RNG_SEED + 8)
    repaired = 0
    for _ in range(25):
        model = _repair_family_model()
        policy = _noisy_state_tracker_policy(model, float(rng.uniform(0.25, 0.45)), rng)
        j = assemble_joint(model, policy)
        before = report(RA, j)
        if constraint_gap(j) >= 0.0 or before.value <= 1e-6:
            continue
        repaired += 1
        new_policy = transform_to_alt(j, policy)
        new_joint = assemble_joint(model, new_policy)
        alt = report(RA_ALT, new_joint)
        assert alt.feasible
        assert alt.value >= before.value - 1e-6
    assert repaired >= 15


def test_repair_margin_is_linear_in_the_erasure_probability():
    # the premise of the closed form: the margin of the eps-augmented policy
    # interpolates its eps = 0 and eps = 1 values
    from sdwtc.rates import _erasure_augmented_policy

    rng = np.random.default_rng(RNG_SEED + 31)
    cases = [(_repair_family_model(), q) for q in (0.25, 0.35, 0.45)]
    cases += [(random_model(rng), None) for _ in range(10)]
    for model, q in cases:
        policy = (random_gp_policy(rng, model) if q is None
                  else _noisy_state_tracker_policy(model, q, rng))

        def gap(eps):
            return constraint_gap(assemble_joint(model, _erasure_augmented_policy(policy, eps)))

        g0, g1 = gap(0.0), gap(1.0)
        for eps in (0.25, 0.5, 0.75):
            assert abs(gap(eps) - ((1.0 - eps) * g0 + eps * g1)) <= 1e-12


def test_repair_lands_on_the_constraint():
    # the draws of criterion 5 (test_acceptance's seed) and of
    # test_repair_recovers_rate_on_infeasible_family
    repaired = 0
    for seed in (20240824 + 5, RNG_SEED + 8):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            model = _repair_family_model()
            policy = _noisy_state_tracker_policy(model, float(rng.uniform(0.25, 0.45)), rng)
            j = assemble_joint(model, policy)
            before = report(RA, j)
            if constraint_gap(j) >= 0.0 or before.value <= 0.0:
                continue
            repaired += 1
            new_joint = assemble_joint(model, transform_to_alt(j, policy))
            alt = report(RA_ALT, new_joint)
            assert abs(constraint_gap(new_joint)) <= 1e-12
            assert alt.feasible
            assert alt.value >= before.value - 1e-12
    assert repaired >= 30


# ---------------------------------------------------------------------------
# R_CHV and the constant-U embedding


def test_chv_independent_v_is_zero():
    rng = np.random.default_rng(RNG_SEED + 9)
    model = random_model(rng)
    ns, nx = 2, 2
    k = np.full((ns, 1, 2, nx), 0.25)  # V uniform, X uniform, all independent
    policy = gp_policy(model.s_symbols, (0,), (0, 1), model.x_symbols, k)
    j = assemble_joint(model, policy)
    assert report(CHV, j).value == pytest.approx(0.0, abs=1e-10)


def test_chv_equals_ra_with_constant_u():
    rng = np.random.default_rng(RNG_SEED + 10)
    for _ in range(60):
        model = random_model(rng)
        policy = random_gp_policy(rng, model, cu=1, cv=2)
        j = assemble_joint(model, policy)
        assert report(RA, j).value == pytest.approx(report(CHV, j).value, abs=1e-12)


def test_chv_state_revealing_policy_stays_below_capacity():
    # V = X = S on the lifted benchmark: weak-secrecy value below (1-σ)(1-h(α))
    lifted = lift_side_information(build_rln_example(0.25, 0.5))
    ns = len(lifted.s_symbols)
    nx = len(lifted.x_symbols)
    k = np.zeros((ns, ns, nx))
    for s in range(ns):
        k[s, s, s] = 1.0
    policy = gp_policy(lifted.s_symbols, (0,), lifted.s_symbols, lifted.x_symbols, k[:, None])
    j = assemble_joint(lifted, policy)
    assert report(CHV, j).value <= 0.094361


# ---------------------------------------------------------------------------
# R_CEG: causal selection variable


def test_ceg_constant_t_is_zero():
    rng = np.random.default_rng(RNG_SEED + 11)
    model = random_model(rng)
    p_t = Pmf((0,), np.array([1.0]))
    kern = np.full((1, 2, 2), 0.5)
    ch = Channel((("T", (0,)), ("S", model.s_symbols)), (("X", model.x_symbols),), kern)
    rep = report(CEG, policy_joint("ceg", model, (p_t, ch)))
    assert rep.value == pytest.approx(0.0, abs=1e-10)


def test_ceg_rejects_correlated_t():
    rng = np.random.default_rng(RNG_SEED + 12)
    j = random_ceg_joint(rng)
    # manufacture correlation by renaming a copy of S as T
    bad = copy_axis(j, "S", "T2")
    mass = bad.mass.sum(axis=bad.axis_index("T"))
    axes = tuple(a for a in bad.axes if a[0] != "T")
    axes = tuple(("T", dict(bad.axes)["S"]) if n == "T2" else (n, a) for n, a in axes)
    from sdwtc.prob import JointPmf

    with pytest.raises(ValueError):
        report(CEG, JointPmf(axes, mass))


def test_ceg_substitution_identities_first_case():
    # with U=T and V=S: I(V;Y,S|U) - I(V;Z|U) = H(S|T,Z)
    #                   I(U,V;Y,S) - I(U,V;S) = I(T;Y|S)
    rng = np.random.default_rng(RNG_SEED + 13)
    for _ in range(60):
        j = copy_axis(random_ceg_joint(rng), "S", "S*")
        lhs1 = mutual_information(j, ("S*",), ("Y", "S"), given=("T",)) - mutual_information(
            j, ("S*",), ("Z",), given=("T",)
        )
        rhs1 = entropy(j, ("S",), given=("T", "Z"))
        assert lhs1 == pytest.approx(rhs1, abs=1e-10)
        lhs2 = mutual_information(j, ("T", "S*"), ("Y", "S")) - mutual_information(
            j, ("T", "S*"), ("S",)
        )
        rhs2 = mutual_information(j, ("T",), ("Y",), given=("S",))
        assert lhs2 == pytest.approx(rhs2, abs=1e-10)


def test_ceg_substitution_identities_second_case():
    # with U=const and V=(T,S): I(V;Y,S) - I(V;Z) = I(T;Y|S) - I(T;Z|S) + H(S|Z)
    #                           I(V;Y,S) - I(V;S) = I(T;Y|S)
    rng = np.random.default_rng(RNG_SEED + 14)
    for _ in range(60):
        j = copy_axis(random_ceg_joint(rng), "S", "S*")
        i_vys = mutual_information(j, ("T", "S*"), ("Y", "S"))
        lhs1 = i_vys - mutual_information(j, ("T", "S*"), ("Z",))
        rhs1 = (
            mutual_information(j, ("T",), ("Y",), given=("S",))
            - mutual_information(j, ("T",), ("Z",), given=("S",))
            + entropy(j, ("S",), given=("Z",))
        )
        assert lhs1 == pytest.approx(rhs1, abs=1e-10)
        lhs2 = i_vys - mutual_information(j, ("T", "S*"), ("S",))
        rhs2 = mutual_information(j, ("T",), ("Y",), given=("S",))
        assert lhs2 == pytest.approx(rhs2, abs=1e-10)


def _ceg_pin_hexes():
    """float.hex of the CEG terms over a seeded sweep: rate_report on random
    ceg policies of random models (|S|, |X|, |Y|, |Z| from 2 to 3, |T| from
    1 to 3), then evaluate on joint_plan stacks of B = 1 and B = 7 policies
    of each."""
    rng = np.random.default_rng(RNG_SEED + 15)
    hexes = []
    for _ in range(40):
        ns, nx, ny, nz = (int(n) for n in rng.integers(2, 4, size=4))
        nt = int(rng.integers(1, 4))
        model = random_model(rng, ns=ns, nx=nx, ny=ny, nz=nz)
        t = tuple(range(nt))
        p_t = Pmf(t, rng.dirichlet(np.full(nt, 0.5)))
        kern = rng.dirichlet(np.full(nx, 0.5), size=(nt, ns))
        kern[rng.random((nt, ns)) < 0.2] = np.eye(nx)[0]
        ch = Channel((("T", t), ("S", model.s_symbols)), (("X", model.x_symbols),), kern)
        hexes += [v.hex() for _, v in rate_report("CEG", model, (p_t, ch)).terms]
        axes, joint_mass = joint_plan("ceg", model, (t,))
        names = tuple(name for name, _ in axes)
        for batch in (1, 7):
            mass = joint_mass([rng.dirichlet(np.full(nt, 0.5), size=batch),
                               rng.dirichlet(np.full(nx, 0.5), size=(batch, nt * ns))])
            values, feasible = evaluate(CEG, names, mass)
            hexes += [float(v).hex() for v in values.ravel()] + [str(f) for f in feasible]
    return hexes


def test_ceg_terms_are_pinned():
    # recorded while the ceg joint's axes were S, T, X, Y, Z; listing T first
    # reorders the axes, not the memory order, so no bit may move
    digest = hashlib.sha256(" ".join(_ceg_pin_hexes()).encode()).hexdigest()
    assert digest == "07babc5bee9ddf34201ddcb0b779dea97452019d6cbe2cd8f6220ffe42a46a2d"


# ---------------------------------------------------------------------------
# R_RLN: reversely-less-noisy product form


def test_rln_remark_form_with_constant_b():
    rng = np.random.default_rng(RNG_SEED + 15)
    rln = random_rln_model(rng, ns2=1)
    p_x, p_a, _ = random_rln_policy(rng, rln, na=3, nb=1)
    p_b = Channel((("A", (0, 1, 2)),), (("B", (0,)),), np.ones((3, 1)))
    rep = rate_report("RLN", rln, (p_x, p_a, p_b))
    j = policy_joint("rln", rln, (p_x, p_a, p_b))
    want1 = mutual_information(j, ("A",), ("S1",))
    want2 = mutual_information(j, ("X",), ("Y",)) - mutual_information(
        j, ("A",), ("S",), given=("S1",)
    )
    terms = [v for _, v in rep.terms]
    assert terms[0] == pytest.approx(want1, abs=1e-10)
    assert terms[1] == pytest.approx(want2, abs=1e-10)


def test_rln_example_closed_form():
    alpha, sigma = 0.25, 0.5
    ex = build_rln_example(alpha, sigma)
    p_x = uniform(ex.x_symbols)
    a_kernel = Channel((("S", ex.s_symbols),), (("A", ex.s_symbols),), np.eye(2))
    b_kernel = Channel((("A", ex.s_symbols),), (("B", (0,)),), np.ones((2, 1)))
    rep = rate_report("RLN", ex, (p_x, a_kernel, b_kernel))
    want = (1.0 - sigma) * (1.0 - binary_entropy(alpha))
    assert rep.value == pytest.approx(want, abs=1e-9)


def test_rln_example_side_information_split():
    # the erased state observation splits the state entropy:
    # I(S;S1) = (1-σ) H(S) and, with A=S, I(A;S|S1) = σ H(S)
    for alpha, sigma in ((0.1, 0.2), (0.25, 0.5), (0.4, 0.8)):
        ex = build_rln_example(alpha, sigma)
        p_x = uniform(ex.x_symbols)
        a_kernel = Channel((("S", ex.s_symbols),), (("A", ex.s_symbols),), np.eye(2))
        b_kernel = Channel((("A", ex.s_symbols),), (("B", (0,)),), np.ones((2, 1)))
        j = policy_joint("rln", ex, (p_x, a_kernel, b_kernel))
        h_s = entropy(ex.state_pmf)
        assert mutual_information(j, ("S",), ("S1",)) == pytest.approx(
            (1.0 - sigma) * h_s, abs=1e-10
        )
        assert mutual_information(j, ("A",), ("S",), given=("S1",)) == pytest.approx(
            sigma * h_s, abs=1e-10
        )


def test_rln_lifted_substitution_identities():
    # V=(A,B), U=(B,X) on the lifted outputs Y'=(Y,S1), Z'=(Z,S2):
    #   I(V;Y'|U) - I(V;Z'|U) = I(A;S1|B) - I(A;S2|B)
    #   I(U,V;Y') - I(U,V;S)  = I(X;Y) - I(A;S|S1)
    rng = np.random.default_rng(RNG_SEED + 16)
    for _ in range(40):
        j = copy_axis(random_rln_joint(rng), "B", "B*")
        lhs1 = mutual_information(j, ("A", "B*"), ("Y", "S1"), given=("B", "X")) - (
            mutual_information(j, ("A", "B*"), ("Z", "S2"), given=("B", "X"))
        )
        rhs1 = mutual_information(j, ("A",), ("S1",), given=("B",)) - mutual_information(
            j, ("A",), ("S2",), given=("B",)
        )
        assert lhs1 == pytest.approx(rhs1, abs=1e-10)
        lhs2 = mutual_information(j, ("A", "B", "X"), ("Y", "S1")) - mutual_information(
            j, ("A", "B", "X"), ("S",)
        )
        rhs2 = mutual_information(j, ("X",), ("Y",)) - mutual_information(
            j, ("A",), ("S",), given=("S1",)
        )
        assert lhs2 == pytest.approx(rhs2, abs=1e-10)


def test_rln_lifted_third_term_redundant():
    # I(V;S|U) dominates I(V;Z'|U), so the third minimand never binds
    rng = np.random.default_rng(RNG_SEED + 17)
    for _ in range(40):
        j = copy_axis(random_rln_joint(rng), "B", "B*")
        i_vs = mutual_information(j, ("A", "B*"), ("S",), given=("B", "X"))
        i_vz = mutual_information(j, ("A", "B*"), ("Z", "S2"), given=("B", "X"))
        assert i_vs >= i_vz - 1e-10


# ---------------------------------------------------------------------------
# semideterministic objective


def _binary_xor_model(w_s=0.5) -> SdWtcModel:
    kz = np.full((2, 2, 1), 1.0)  # constant Z
    ch = Channel((("X", (0, 1)), ("S", (0, 1))), (("Z", (0,)),), kz)
    return build_semideterministic(lambda x, s: x ^ s, ch, bernoulli(w_s))


def test_semidet_y_equals_s_gives_zero():
    kz = np.full((2, 2, 2), 0.5)
    ch = Channel((("X", (0, 1)), ("S", (0, 1))), (("Z", (0, 1)),), kz)
    model = build_semideterministic(lambda x, s: s, ch, bernoulli(0.3))
    rows = np.array([[0.5, 0.5], [0.5, 0.5]])
    pol = Channel((("S", (0, 1)),), (("X", (0, 1)),), rows)
    assert rate_report("semidet", model, pol).value == pytest.approx(0.0, abs=1e-10)


def test_semidet_z_equals_y_gives_zero():
    # eavesdropper sees y = x xor s exactly
    kz = np.zeros((2, 2, 2))
    for x in (0, 1):
        for s in (0, 1):
            kz[x, s, x ^ s] = 1.0
    ch = Channel((("X", (0, 1)), ("S", (0, 1))), (("Z", (0, 1)),), kz)
    model = build_semideterministic(lambda x, s: x ^ s, ch, bernoulli(0.3))
    pol = Channel((("S", (0, 1)),), (("X", (0, 1)),), np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert rate_report("semidet", model, pol).value == pytest.approx(0.0, abs=1e-10)


def test_semidet_xor_uniform_input_hits_one_bit():
    model = _binary_xor_model()
    pol = Channel((("S", (0, 1)),), (("X", (0, 1)),), np.array([[0.5, 0.5], [0.5, 0.5]]))
    rep = rate_report("semidet", model, pol)
    assert rep.value == pytest.approx(1.0, abs=1e-10)  # H(Y|Z)=H(Y)=1, H(Y|S)=1


def test_semidet_rejects_noisy_y():
    rng = np.random.default_rng(RNG_SEED + 18)
    model = random_model(rng)  # generic noisy kernel
    pol = Channel((("S", model.s_symbols),), (("X", model.x_symbols),), np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        rate_report("semidet", model, pol)


# ---------------------------------------------------------------------------
# less-noisy encoder/decoder CSI form


def test_ln_encdec_z_equals_y_reduces_to_state_entropy_term():
    # when Z = Y the second minimand is H(S|Y)
    rng = np.random.default_rng(RNG_SEED + 19)
    ws = rng.dirichlet(np.ones(2))
    ky = rng.dirichlet(np.ones(2), size=(2, 2))
    k = np.einsum("xsy,yz->xsyz", ky, np.eye(2))
    model = SdWtcModel(
        state_pmf=Pmf((0, 1), ws),
        channel=Channel(
            (("X", (0, 1)), ("S", (0, 1))), (("Y", (0, 1)), ("Z", (0, 1))), k
        ),
    )
    pol = Channel((("S", (0, 1)),), (("X", (0, 1)),), rng.dirichlet(np.ones(2), size=2))
    rep = rate_report("LN_encdec", model, pol)
    j = policy_joint("x_given_s", model, pol)
    want = min(
        mutual_information(j, ("X",), ("Y",), given=("S",)),
        entropy(j, ("S",), given=("Y",)),
    )
    assert rep.value == pytest.approx(want, abs=1e-10)


def test_ln_encdec_cross_checks_ceg_at_t_equals_x():
    # for state-blind inputs the causal-selection rate with T=X agrees,
    # whenever the positive-part bracket is active
    rng = np.random.default_rng(RNG_SEED + 20)
    checked = 0
    for _ in range(200):
        model = random_model(rng)
        row = rng.dirichlet(np.ones(2))
        pol = Channel((("S", (0, 1)),), (("X", (0, 1)),), np.stack([row, row]))
        p_t = Pmf((0, 1), row)
        kern = np.zeros((2, 2, 2))
        kern[0, :, 0] = 1.0
        kern[1, :, 1] = 1.0
        ch = Channel((("T", (0, 1)), ("S", model.s_symbols)), (("X", model.x_symbols),), kern)
        j = policy_joint("ceg", model, (p_t, ch))
        bracket = mutual_information(j, ("T",), ("Y", "S")) - mutual_information(
            j, ("T",), ("Z",)
        )
        if bracket <= 1e-6:
            continue
        checked += 1
        ln = rate_report("LN_encdec", model, pol)
        assert report(CEG, j).value == pytest.approx(ln.value, abs=1e-10)
    assert checked >= 30


# ---------------------------------------------------------------------------
# stacked evaluation


def _evaluate_per_marginal(terms, names, mass):
    """rates.evaluate with each entropy summed out of the joints on its own
    (one mass.sum per marginal, laid out in C order as evaluate lays out its
    marginals), its formulas added left to right."""
    def h(keep):
        kept = [n for n in names if n in keep]
        drop = tuple(1 + i for i, n in enumerate(names) if n not in keep)
        m = (mass.sum(axis=drop) if drop else mass).transpose(0, *(1 + kept.index(n) for n in keep))
        return _entropy_bits([np.ascontiguousarray(m)], lead=1)[0]

    def add(acc, sign, v):
        v = -v if sign == "-" else v
        return v if acc is None else acc + v

    def value(formula):
        stack = [["+", None]]  # [sign, running sum] per open bracket
        for sign, tok in _TOKEN.findall(formula):
            if tok == "[":
                stack.append([sign, None])
            elif tok == "]+":
                sign, acc = stack.pop()
                stack[-1][1] = add(stack[-1][1], sign, np.maximum(0.0, acc))
            else:
                body, _, given = tok[2:-1].partition("|")
                c = tuple(given.split(",")) if given else ()
                groups = [tuple(g.split(",")) for g in body.split(";")]
                acc = None
                for g in groups:
                    acc = add(acc, "+", h(g + c))
                if len(groups) == 2:
                    acc = add(acc, "-", h(groups[0] + groups[1] + c))
                if c:
                    acc = add(acc, "-", h(c))
                stack[-1][1] = add(stack[-1][1], sign, acc)
        return stack[0][1]

    values = np.stack([value(label) for label in terms.labels], axis=1)
    feasible = (np.ones(len(mass), dtype=bool) if terms.feasible is None
                else value(terms.feasible) >= -FEAS_TOL)
    return values, feasible


def _functional_instances(rng):
    """A (model, card_u, card_v) instance of each functional, seeded by rng."""
    model = random_model(rng, ns=3, nx=2)
    return {"RA": (model, 2, 3), "RA_alt": (model, 3, 2), "CHV": (model, 1, 3),
            "CEG": (model, 2, 1), "RLN": (random_rln_model(rng), 2, 2),
            "semidet": (_binary_xor_model(0.3), 1, 1), "LN_encdec": (model, 1, 1)}


def test_evaluate_matches_a_per_marginal_reference():
    rng = np.random.default_rng(RNG_SEED + 21)
    for functional, (m, card_u, card_v) in _functional_instances(rng).items():
        entry = FUNCTIONALS[functional]
        shapes, _ = _search_space(entry, m, card_u, card_v)
        stacks = [rng.dirichlet(np.full(d, 0.5), size=(9, rows)) for rows, d in shapes]
        axes, mass = stacked_joint(entry.policy_kinds[0], m, _aux(entry, card_u, card_v), stacks)
        names = tuple(name for name, _ in axes)
        values, feasible = evaluate(entry.terms, names, mass)
        want_values, want_feasible = _evaluate_per_marginal(entry.terms, names, mass)
        assert np.array_equal(values, want_values), functional
        assert np.array_equal(feasible, want_feasible), functional


def _same_bits(a, b):
    """Equal values with equal sign bits (np.array_equal alone takes -0.0 for 0.0)."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _sweep_stacks(rng, functional, model, card_u, card_v, size=8):
    """Seeded (axes, mass) stacks for a functional: Dirichlet(1/2) policies,
    policies with a fifth of their entries zeroed, and vertex (deterministic)
    policies, each stack ending in a joint of zero mass."""
    entry = FUNCTIONALS[functional]
    shapes, _ = _search_space(entry, model, card_u, card_v)
    for kind in ("dirichlet", "sparse", "vertex"):
        stacks = []
        for rows, d in shapes:
            s = rng.dirichlet(np.full(d, 0.5), size=(size, rows))
            if kind == "sparse":
                s[rng.random(s.shape) < 0.2] = 0.0
                s[..., 0] += s.sum(axis=-1) == 0.0
                s /= s.sum(axis=-1, keepdims=True)
            elif kind == "vertex":
                s = np.eye(d)[rng.integers(d, size=(size, rows))]
            stacks.append(s)
        axes, mass = stacked_joint(entry.policy_kinds[0], model, _aux(entry, card_u, card_v), stacks)
        mass[-1] = 0.0
        yield tuple(name for name, _ in axes), mass


def _sweep_instances(rng):
    """functional -> (model, card_u, card_v); CHV's U and the RLN example's
    B and S2 are axes of size 1."""
    model = random_model(rng, ns=3, nx=2)
    return {"RA": (model, 2, 3), "RA_alt": (model, 3, 2), "CHV": (model, 1, 3),
            "CEG": (model, 2, 1), "RLN": (build_rln_example(0.25, 0.5), 2, 1),
            "semidet": (_binary_xor_model(0.3), 1, 1), "LN_encdec": (model, 1, 1)}


@pytest.mark.parametrize("functional", sorted(FUNCTIONALS))
def test_stacked_evaluation_equals_row_by_row_evaluation(functional):
    rng = np.random.default_rng(RNG_SEED + 22)
    model, card_u, card_v = _sweep_instances(rng)[functional]
    terms = FUNCTIONALS[functional].terms
    for names, mass in _sweep_stacks(rng, functional, model, card_u, card_v):
        if functional in ("CHV", "RLN"):
            assert 1 in mass.shape[1:]
        values, feasible = evaluate(terms, names, mass)
        assert np.isfinite(values).all()
        want_values, want_feasible = _evaluate_per_marginal(terms, names, mass)
        assert _same_bits(values, want_values)
        assert np.array_equal(feasible, want_feasible)
        for b in range(len(mass)):
            one, one_feasible = evaluate(terms, names, mass[b:b + 1])
            assert _same_bits(one[0], values[b])
            assert one_feasible[0] == feasible[b]


def _random_layout(rng, base):
    """base (B, *shape) as one of: itself (C order), a permuted copy with the
    batch axis first or anywhere, or an einsum product with ones (einsum
    picks its output layout from the operands'); the same values, zero signs
    kept."""
    kind = int(rng.choice([0, 1, 2, 3]))
    if kind == 0:
        return base
    perm = list(rng.permutation(base.ndim)) if kind == 2 else [0, *(1 + rng.permutation(base.ndim - 1))]
    mass = np.ascontiguousarray(base.transpose(perm)).transpose(np.argsort(perm))
    if kind == 3:
        axis = int(rng.integers(base.ndim))
        mass = np.einsum(mass, list(range(base.ndim)), np.ones(base.shape[axis]), [axis],
                         list(range(base.ndim)))
    return mass


def _random_masses(rng, shape):
    """Nonnegative masses over six decades with +0.0 and -0.0 entries."""
    mass = rng.random(shape) * 10.0 ** rng.integers(-6, 1, size=shape)
    mass[rng.random(shape) < 0.2] = 0.0
    mass[rng.random(shape) < 0.1] = -0.0
    return mass


def test_gathered_drop_sums_equal_add_reduce():
    # every drop set of random C-ordered stacks: the gathered sums, where
    # _sum_gather gives one, equal np.add.reduce on the same stack bit for bit
    rng = np.random.default_rng(RNG_SEED + 24)
    blocks, kept_pairwise = set(), 0
    for case in range(1500):
        nd = int(rng.integers(2, 7))
        shape = tuple(int(n) for n in rng.integers(1, 6, size=nd))
        if case % 5 == 0:  # a trailing run of 8 or more entries
            shape = shape[:-2] + ((2, 4), (8,), (3, 3), (7,))[case // 5 % 4]
        batch = int(rng.choice([1, 2, 3, 16, 512])) if math.prod(shape) <= 400 else 2
        mass = _random_masses(rng, (batch, *shape))
        axes = [1 + i for i, n in enumerate(shape) if n > 1]
        drop = tuple(sorted(a for a in axes if rng.random() < 0.6))
        ids = _sum_gather(shape, drop)
        want = np.add.reduce(mass, axis=drop).reshape(batch, -1) if drop else mass.reshape(batch, -1)
        (got,) = _drop_sums(mass, [drop], [ids])
        assert _same_bits(got, want), (shape, batch, drop)
        if ids is not None:
            blocks.add(len(ids) if ids.ndim == 3 else 1)
        elif drop:
            tail = list(itertools.takewhile(lambda a: a in drop, reversed(axes)))
            kept_pairwise += math.prod(mass.shape[a] for a in tail) >= _PAIRWISE and len(tail) < len(drop)
    assert blocks == set(range(1, _PAIRWISE))  # every gathered block length occurs
    assert kept_pairwise > 50  # pairwise blocks behind other summed axes keep the plain sum


def _random_terms_sweep(rng):
    """Seeded (names, mass) stacks over S, U, V, X, Y, Z with sizes 1 to 8,
    random layouts (the batch axis anywhere in memory), zero masses of both
    signs, and B from 1 to 512."""
    names = ("S", "U", "V", "X", "Y", "Z")
    for case in range(60):
        shape = tuple(int(n) for n in rng.choice([1, 2, 2, 3, 4, 8], size=6))
        batch = (1, 2, 7, 64, 512)[case % 5]
        while batch > 1 and batch * math.prod(shape) > 200_000:
            batch //= 2
        yield names, _random_layout(rng, _random_masses(rng, (batch, *shape)))


def test_evaluate_matches_the_per_marginal_reference_on_random_layouts():
    # gathered sums and the padded entropy reduce against plain sums and one
    # entropy reduce per marginal, bit for bit
    # of the C-ordered copy of each stack; whatever the layout, the first
    # and last rows score alone as in their stack
    rng = np.random.default_rng(RNG_SEED + 25)
    bracket = Terms(("H(S|X,Z)+[I(U,V;Y)-I(X;Z)]+-H(Y)", "I(U;Y|S)-[I(V;Z|U)-H(S)]+"),
                    feasible="I(X;Y,Z)-I(S;U)")
    other_layouts = 0
    for names, mass in _random_terms_sweep(rng):
        other_layouts += not mass.flags.c_contiguous
        for terms in (RA, RA_ALT, CHV, LN_ENCDEC, bracket):
            values, feasible = evaluate(terms, names, mass)
            want_values, want_feasible = _evaluate_per_marginal(terms, names, np.ascontiguousarray(mass))
            assert _same_bits(values, want_values), (terms.labels, mass.shape, mass.strides)
            assert np.array_equal(feasible, want_feasible)
            for b in (0, len(mass) - 1):
                one, one_feasible = evaluate(terms, names, mass[b:b + 1])
                assert _same_bits(one[0], values[b]), (terms.labels, mass.shape, mass.strides)
                assert one_feasible[0] == feasible[b]
    assert other_layouts > 20


@pytest.mark.parametrize("batch", [1, 5, 64])
def test_search_stacks_have_the_batch_axis_outermost(batch):
    # joint_plan's builder makes every kind's stack C-ordered, from the
    # search's views of one array and from the grid's separate arrays, so
    # rates.plan sums none of them through a copy
    rng = np.random.default_rng(RNG_SEED + 29)
    for functional, (m, card_u, card_v) in _functional_instances(rng).items():
        entry = FUNCTIONALS[functional]
        shapes, _ = _search_space(entry, m, card_u, card_v)
        _, joint_mass = joint_plan(entry.policy_kinds[0], m, _aux(entry, card_u, card_v))
        stacks = [rng.dirichlet(np.ones(d), size=(batch, rows)) for rows, d in shapes]
        flat = np.concatenate([s.reshape(batch, -1) for s in stacks], axis=1)
        offsets = np.cumsum([0] + [rows * d for rows, d in shapes])
        views = [flat[:, lo:lo + rows * d].reshape(batch, rows, d) for lo, (rows, d) in zip(offsets, shapes)]
        for blocks in (stacks, views):
            mass = joint_mass(blocks)
            assert mass.flags.c_contiguous, (functional, mass.shape, mass.strides)


def test_formula_fold_pads_rows_with_negative_zero():
    # the entropy of a point mass is -0.0 (minus a sum of +0.0 terms); the
    # fold pads a row narrower than its stage's widest with -0.0, which
    # keeps that sign, where a +0.0 pad would make it +0.0
    names = ("S", "X", "Y", "Z")
    mass = np.zeros((2, 2, 2, 2, 2))
    mass[:, 0] = 1.0 / 8.0  # S = 0 surely, X, Y and Z uniform
    alone, _ = evaluate(Terms(("H(S)",)), names, mass)
    assert np.array_equal(alone, np.zeros((2, 1))) and np.signbit(alone).all()
    for wider in ("I(X;Y)-I(X;Z)", "I(X;Y,Z)", "H(X|Y)+H(Y)"):
        values, _ = evaluate(Terms(("H(S)", wider)), names, mass)
        assert _same_bits(values[:, :1], alone), wider


def test_sum_gathers_are_built_once_per_plan(monkeypatch):
    # plan builds each drop set's _sum_gather from the shape; evaluate calls
    # at B > 1, at B = 1 and on a stack in another layout build none
    rng = np.random.default_rng(RNG_SEED + 26)
    model, card_u, card_v = _sweep_instances(rng)["CEG"]
    names, mass = next(_sweep_stacks(rng, "CEG", model, card_u, card_v))
    seen = []

    def recording(shape, drop):
        ids = _sum_gather(shape, drop)
        seen.append((shape, drop, ids))
        return ids

    monkeypatch.setattr(rates, "_sum_gather", recording)
    rates.plan.cache_clear()
    rates.plan(CEG, names, mass.shape[1:])
    drops = [drop for _, drop, _ in seen]
    assert len(set(drops)) == len(drops) > 0
    assert all(shape == mass.shape[1:] for shape, _, _ in seen)
    assert any(ids is not None for _, _, ids in seen)
    other = np.asfortranarray(mass)
    assert not other.flags.c_contiguous
    for stack in (mass, mass[:1], other):
        values, _ = evaluate(CEG, names, stack)
        assert _same_bits(values, _evaluate_per_marginal(CEG, names, np.ascontiguousarray(stack))[0])
    assert len(seen) == len(drops)


def test_evaluate_refuses_non_finite_terms():
    rng = np.random.default_rng(RNG_SEED + 23)
    names, mass = next(_sweep_stacks(rng, "RLN", build_rln_example(0.25, 0.5), 2, 1, size=3))
    mass[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match=re.escape(f"rate term {RLN.labels[0]} is not finite: got nan")):
        evaluate(RLN, names, mass)
    mass[1, 0, 0] = np.inf
    with pytest.raises(ValueError, match="is not finite"):
        evaluate(RLN, names, mass)
    model = random_model(rng)
    j = assemble_joint(model, random_gp_policy(rng, model))
    mass = j.mass.copy()
    mass.flat[0] = np.nan
    with pytest.raises(ValueError, match=re.escape(f"rate term {RA.labels[0]} is not finite")):
        evaluate(RA, j.names, mass[None])
