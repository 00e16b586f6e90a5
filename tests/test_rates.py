"""Rate functionals: minimand identities, feasibility, and the erasure repair."""
from __future__ import annotations

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
)
from sdwtc.models import (
    SdWtcModel,
    assemble_joint,
    build_rln_example,
    build_semideterministic,
    gp_policy,
    lift_side_information,
    policy_joint,
    vx_policy,
)
from sdwtc.optimize import rate_report
from sdwtc.prob import (
    Channel,
    Pmf,
    bernoulli,
    binary_entropy,
    entropy,
    mutual_information,
    uniform,
)
from sdwtc.rates import CEG, CHV, RA, RA_ALT, constraint_gap, report, transform_to_alt

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
    out = transform_to_alt(j, model, policy)
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
        new_policy = transform_to_alt(j, model, policy)
        new_joint = assemble_joint(model, new_policy)
        alt = report(RA_ALT, new_joint)
        assert alt.feasible
        assert alt.value >= before.value - 1e-6
    assert repaired >= 15


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
    policy = vx_policy(lifted.s_symbols, lifted.s_symbols, lifted.x_symbols, k)
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
