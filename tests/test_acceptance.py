"""End-to-end acceptance gate.

One test per shipped criterion: closed forms, optimizer targets, the
information-identity suite, the exponent calculator, simulation trends, and
artifact determinism.  Every test prints exactly one PASS/FAIL line (visible
with `pytest -s`) and enforces its runtime budget.
"""
from __future__ import annotations

import json
import time

import numpy as np
import pytest

from identities import (
    copy_axis,
    random_ceg_joint,
    random_gp_policy,
    random_model,
    random_rln_joint,
)
from test_cli import const_u_policy_doc, wiretap_doc, write_json, x_given_s_doc
from test_rates import _noisy_state_tracker_policy, _repair_family_model
from test_simulate import _codewords, _scan_decode, _uvy_pmf, bsc_wiretap, uniform_input_policy
from sdwtc.cli import main
from sdwtc.models import (
    assemble_joint,
    build_rln_example,
    build_semideterministic,
    lift_side_information,
    policy_joint,
)
from sdwtc.optimize import OptBudget, exhaustive_small, maximize, rate_report
from sdwtc.prob import (
    Channel,
    JointPmf,
    Pmf,
    bernoulli,
    binary_entropy,
    entropy,
    inv_binary_entropy,
    marginalize,
    mutual_information,
    uniform,
)
from sdwtc.rates import CHV, RA, RA_ALT, constraint_gap, report, transform_to_alt
from sdwtc.simulate import (
    CodeLaw,
    exact_message_channel,
    exact_output_divergence,
    leakage_capacity,
    sample_codebook,
    typicality_decode,
)
from sdwtc.softcover import SoftCoverSpec, best_gamma, failure_probability_bound

RNG_SEED = 20240824

_CAP = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    global _CAP
    _CAP = capsys
    yield
    _CAP = None


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    if _CAP is not None:
        with _CAP.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"criterion {num}: {detail}"


def _achieving_policy(model):
    """A = S, B constant, X uniform."""
    p_x = uniform(model.x_symbols)
    a_kernel = Channel((("S", model.s_symbols),), (("A", model.s_symbols),), np.eye(2))
    b_kernel = Channel((("A", model.s_symbols),), (("B", (0,)),), np.ones((2, 1)))
    return p_x, a_kernel, b_kernel


# ---------------------------------------------------------------------------
# 1. closed form on the benchmark grid


def test_criterion_01_closed_form_grid():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.1, 0.25, 0.4):
        for sigma in (0.2, 0.5, 0.8):
            ex = build_rln_example(alpha, sigma)
            rep = rate_report("RLN", ex, _achieving_policy(ex))
            want = (1.0 - sigma) * (1.0 - binary_entropy(alpha))
            worst = max(worst, abs(rep.value - want))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 1.0
    _report(1, ok, f"closed form on 3x3 grid, worst gap {worst:.2e} ({dt:.2f}s < 1s)")


# ---------------------------------------------------------------------------
# 2./3. optimizer targets on the benchmark


def test_criterion_02_optimizer_attains_example_capacity():
    t0 = time.perf_counter()
    ex = build_rln_example(0.25, 0.5)
    res = maximize("RLN", ex, card_u=2, card_v=1, budget=OptBudget(restarts=64, iterations=500, seed=1))
    dt = time.perf_counter() - t0
    ok = res.value >= 0.99 * 0.094361 and dt < 120.0
    _report(2, ok, f"maximize(RLN) reaches {res.value:.9f} >= 0.99 * 0.094361 ({dt:.1f}s < 120s)")


def test_criterion_03_single_layer_search_stays_below_capacity():
    t0 = time.perf_counter()
    lifted = lift_side_information(build_rln_example(0.25, 0.5))
    res = maximize(
        "CHV", lifted, card_v=4, budget=OptBudget(restarts=64, iterations=500, seed=1)
    )
    dt = time.perf_counter() - t0
    ok = res.value < 0.094361 - 0.005 and dt < 120.0
    _report(3, ok, f"maximize(CHV) on lifted benchmark = {res.value:.9f} < 0.089361 ({dt:.1f}s < 120s)")


# ---------------------------------------------------------------------------
# 4. information-identity suite


def test_criterion_04_information_identity_suite():
    t0 = time.perf_counter()
    tol = 1e-10
    count = 200
    ok = True

    # two rewritings of the three-term minimum's members
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(count):
        model = random_model(rng)
        j = assemble_joint(model, random_gp_policy(rng, model))
        terms = dict(report(RA, j).terms)
        swapped = (
            mutual_information(j, ("U", "V"), ("Y",))
            - mutual_information(j, ("U",), ("S",))
            - mutual_information(j, ("V",), ("S",), given=("U",))
        )
        ok &= abs(terms["I(U,V;Y)-I(U,V;S)"] - swapped) <= tol
        ok &= (
            abs(terms["I(V;Y|U)-I(V;Z|U)"] - (terms["I(U,V;Y)-I(U;S)-I(V;Z|U)"] - constraint_gap(j)))
            <= tol
        )

    # constant-U embedding
    for _ in range(count):
        model = random_model(rng)
        j = assemble_joint(model, random_gp_policy(rng, model, cu=1, cv=2))
        ok &= abs(report(RA, j).value - report(CHV, j).value) <= tol

    # erased side information splits the state entropy
    for _ in range(count):
        alpha = float(rng.uniform(0.05, 0.45))
        sigma = float(rng.uniform(0.05, 0.95))
        ex = build_rln_example(alpha, sigma)
        j = policy_joint("rln", ex, _achieving_policy(ex))
        h_s = entropy(ex.state_pmf)
        ok &= abs(mutual_information(j, ("S",), ("S1",)) - (1.0 - sigma) * h_s) <= tol
        ok &= (
            abs(mutual_information(j, ("A",), ("S",), given=("S1",)) - sigma * h_s) <= tol
        )

    # substitution identities for the causal selection variable, both cases
    for _ in range(count):
        j = copy_axis(random_ceg_joint(rng), "S", "S*")
        lhs = mutual_information(j, ("S*",), ("Y", "S"), given=("T",)) - mutual_information(
            j, ("S*",), ("Z",), given=("T",)
        )
        ok &= abs(lhs - entropy(j, ("S",), given=("T", "Z"))) <= tol
        i_ty_s = mutual_information(j, ("T",), ("Y",), given=("S",))
        lhs = mutual_information(j, ("T", "S*"), ("Y", "S")) - mutual_information(
            j, ("T", "S*"), ("S",)
        )
        ok &= abs(lhs - i_ty_s) <= tol
        i_vys = mutual_information(j, ("T", "S*"), ("Y", "S"))
        lhs = i_vys - mutual_information(j, ("T", "S*"), ("Z",))
        rhs = (
            i_ty_s
            - mutual_information(j, ("T",), ("Z",), given=("S",))
            + entropy(j, ("S",), given=("Z",))
        )
        ok &= abs(lhs - rhs) <= tol

    # substitution identities on the lifted product-form joint
    for _ in range(count):
        j = copy_axis(random_rln_joint(rng), "B", "B*")
        lhs = mutual_information(j, ("A", "B*"), ("Y", "S1"), given=("B", "X")) - (
            mutual_information(j, ("A", "B*"), ("Z", "S2"), given=("B", "X"))
        )
        rhs = mutual_information(j, ("A",), ("S1",), given=("B",)) - mutual_information(
            j, ("A",), ("S2",), given=("B",)
        )
        ok &= abs(lhs - rhs) <= tol
        lhs = mutual_information(j, ("A", "B", "X"), ("Y", "S1")) - mutual_information(
            j, ("A", "B", "X"), ("S",)
        )
        rhs = mutual_information(j, ("X",), ("Y",)) - mutual_information(
            j, ("A",), ("S",), given=("S1",)
        )
        ok &= abs(lhs - rhs) <= tol

    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _report(4, ok, f"identity suite, {count} instances per group at 1e-10 ({dt:.1f}s < 30s)")


# ---------------------------------------------------------------------------
# 5. the erasure repair recovers the rate


def test_criterion_05_erasure_repair_recovers_rate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 5)
    ok = True
    repaired = 0
    attempts = 0
    while repaired < 50 and attempts < 500:
        attempts += 1
        model = _repair_family_model()
        policy = _noisy_state_tracker_policy(model, float(rng.uniform(0.25, 0.45)), rng)
        j = assemble_joint(model, policy)
        before = report(RA, j)
        if constraint_gap(j) >= 0.0 or before.value <= 1e-6:
            continue
        repaired += 1
        new_policy = transform_to_alt(j, policy)
        alt = report(RA_ALT, assemble_joint(model, new_policy))
        ok &= alt.feasible and alt.value >= before.value - 1e-6
    dt = time.perf_counter() - t0
    ok = ok and repaired == 50 and dt < 60.0
    _report(5, ok, f"repair kept the rate on {repaired}/50 infeasible instances ({dt:.1f}s < 60s)")


# ---------------------------------------------------------------------------
# 6. exponent calculator against a dense grid


_ALPHAS = np.arange(1.01, 64.005, 0.02)
_F = (_ALPHAS - 1.0) / (2.0 * _ALPHAS - 1.0)


def _renyi_curve(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    keep = p > 0
    lp, lq = np.log(p[keep]), np.log(q[keep])
    s = np.exp(_ALPHAS[:, None] * lp[None, :] + (1.0 - _ALPHAS)[:, None] * lq[None, :])
    return np.log2(s.sum(axis=1)) / (_ALPHAS - 1.0)


def _dense_gamma_grid(j: JointPmf, r1: float, r2: float, n2: int) -> float:
    """Plain sup over a dense (order, d1) grid and n2 points of d2; no shared
    search code.  beta2 falls as d2 grows, so n2 = 1 (d2 at its lowest
    point only) must give the same float as the full grid."""
    mass = j.mass
    m_uw = mass.sum(axis=1)
    top1 = _F * (r1 - _renyi_curve(m_uw.ravel(), np.outer(m_uw.sum(1), m_uw.sum(0)).ravel()))
    top2 = _F * (
        r1 + r2 - _renyi_curve(mass.ravel(), (mass.sum(axis=2)[:, :, None] * m_uw.sum(0)).ravel())
    )
    m1 = r1 - mutual_information(j, ("U",), ("W",))
    m2 = r1 + r2 - mutual_information(j, ("U", "V"), ("W",))
    best = 0.0
    for d1 in np.linspace(1e-4 * m1, m1 * (1 - 1e-9), 200):
        hi = min(2.0 * d1, m2)
        if hi <= d1:
            continue
        d2s = np.linspace(d1 * (1 + 1e-7), hi * (1 - 1e-7), n2)
        row = np.minimum(top1 - _F * d1, d1 / 4.0)
        vals = np.minimum(row[None, :], top2[None, :] - _F[None, :] * d2s[:, None]).max(axis=1)
        best = max(best, float(vals.max()))
    return best


def test_criterion_06_exponent_calculator_against_dense_grid():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    axes = (("U", (0, 1)), ("V", (0, 1)), ("W", (0, 1)))
    ok = True
    worst = 0.0
    for i in range(20):
        w = rng.dirichlet(np.ones(8)) + 0.01
        j = JointPmf(axes, (w / w.sum()).reshape(2, 2, 2))
        r1 = mutual_information(j, ("U",), ("W",)) + 0.3
        r2 = mutual_information(j, ("V",), ("W",), given=("U",)) + 0.3
        bg = best_gamma(j, r1, r2)
        ok &= bg.gamma > 0.0 and not bg.degenerate
        dense = _dense_gamma_grid(j, r1, r2, 1)
        if i == 0:
            ok &= _dense_gamma_grid(j, r1, r2, 160) == dense
        worst = max(worst, abs(bg.gamma - dense))
        # failure bound at a wide fixed window (margins are 0.3 and 0.6 by
        # construction, so this window is always valid)
        d1 = 0.95 * 0.3
        spec = SoftCoverSpec(j, r1, r2, d1, 1.98 * d1)
        bounds = [failure_probability_bound(spec, n) for n in (50, 100, 200)]
        ok &= bounds[0].log2_bound > bounds[1].log2_bound > bounds[2].log2_bound
        ok &= not any(b.vacuous for b in bounds)
    dt = time.perf_counter() - t0
    ok = ok and worst <= 1e-3 and dt < 60.0
    _report(6, ok, f"20 joints: gamma > 0, grid gap {worst:.1e} <= 1e-3, bounds fall ({dt:.1f}s < 60s)")


# ---------------------------------------------------------------------------
# 7. covering divergence trend at +/- 0.1-bit margins


def test_criterion_07_covering_divergence_trend():
    t0 = time.perf_counter()
    # U degenerate, V uniform, W a noiseless read of V: both covering
    # thresholds are exact and the 0.1-bit margins are meaningful at tiny n
    q_u = Pmf((0,), np.array([1.0]))
    q_v_given_u = Channel((("U", (0,)),), (("V", (0, 1)),), np.array([[0.5, 0.5]]))
    q_w_given_uv = Channel(
        (("U", (0,)), ("V", (0, 1))), (("W", (0, 1)),), np.eye(2)[None, :, :]
    )
    q_w = Pmf((0, 1), np.array([0.5, 0.5]))
    joint = JointPmf(
        (("U", (0,)), ("V", (0, 1)), ("W", (0, 1))), 0.5 * np.eye(2)[None, :, :]
    )
    i_uw = mutual_information(joint, ("U",), ("W",))
    i_uvw = mutual_information(joint, ("U", "V"), ("W",))
    r1 = i_uw + 0.1

    def medians(r2: float, base: int) -> dict[int, float]:
        out = {}
        for n in (4, 10):
            vals = [
                exact_output_divergence(
                    sample_codebook(q_u, q_v_given_u, n, r1, r2, 0.0, base + s),
                    q_w_given_uv,
                    q_w,
                )
                for s in range(50)
            ]
            out[n] = float(np.median(vals))
        return out

    above = medians(i_uvw + 0.1 - r1, 9000)
    below = medians(i_uvw - 0.1 - r1, 9500)
    dt = time.perf_counter() - t0
    ok = above[10] < above[4] and below[10] >= 0.5 * below[4] and dt < 300.0
    _report(
        7,
        ok,
        f"medians above {above[4]:.3f}->{above[10]:.3f} fall, "
        f"below {below[4]:.3f}->{below[10]:.3f} do not halve ({dt:.1f}s < 300s)",
    )


# ---------------------------------------------------------------------------
# 8. decoder equals the brute-force scan


def test_criterion_08_decoder_matches_full_scan():
    t0 = time.perf_counter()
    model = bsc_wiretap(0.11)
    policy = uniform_input_policy(model)
    joint = assemble_joint(model, policy)
    flat = _uvy_pmf(marginalize(joint, ("U", "V", "Y")))
    law = CodeLaw.of(joint)
    rng = np.random.default_rng(RNG_SEED + 8)
    agree = 0
    for k in range(100):
        cb = sample_codebook(law.q_u, law.q_v_given_u, 6, 0.3, 0.3, 0.3, 8100 + k)
        words = _codewords(cb)
        for t in range(100):
            y = tuple(rng.integers(0, 2, size=6).tolist())
            eps = (0.2, 0.5, 0.9, 1.2)[t % 4]
            agree += typicality_decode(y, cb, law, eps) == _scan_decode(y, words, flat, eps)
    dt = time.perf_counter() - t0
    ok = agree == 10_000 and dt < 60.0
    _report(8, ok, f"{agree}/10000 decode calls match the full scan ({dt:.1f}s < 60s)")


# ---------------------------------------------------------------------------
# 9. leakage capacity: grid oracle + tiny-n trend


def test_criterion_09_leakage_capacity_and_trend():
    t0 = time.perf_counter()
    # 3-message toy channel against a fine simplex grid
    k = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]])
    cap = leakage_capacity(Channel((("M", (0, 1, 2)),), (("Z", (0, 1, 2)),), k))
    step = 1e-3
    row_gain = (k * np.log2(np.where(k > 0, k, 1.0))).sum(axis=1)
    best = 0.0
    for a in np.arange(0.0, 1.0 + step / 2, step):
        b = np.arange(0.0, 1.0 - a + step / 2, step)
        pm = np.clip(np.stack([np.full_like(b, a), b, 1.0 - a - b], axis=1), 0.0, 1.0)
        q = pm @ k
        h_q = -(q * np.log2(np.where(q > 0, q, 1.0))).sum(axis=1)
        best = max(best, float((pm @ row_gain + h_q).max()))
    grid_ok = abs(cap.bits - best) <= 1e-4

    # tiny-n system: perfect-copy eavesdropper, outer rate 0.15 above its
    # conditional coupling, two messages at every blocklength
    model = bsc_wiretap(0.1, tap="copy")
    policy = uniform_input_policy(model)
    joint = assemble_joint(model, policy)
    i_vz_u = mutual_information(joint, ("V",), ("Z",), given=("U",))
    r2 = i_vz_u + 0.15
    law = CodeLaw.of(joint)
    meds = {}
    for n in (4, 6, 8, 10):
        vals = []
        for s in range(20):
            cb = sample_codebook(law.q_u, law.q_v_given_u, n, 0.0, r2, 1.0 / n, 7000 + s)
            vals.append(leakage_capacity(exact_message_channel(model, policy, cb)).bits)
        meds[n] = float(np.median(vals))
    trend_ok = meds[4] >= meds[6] >= meds[8] >= meds[10]
    dt = time.perf_counter() - t0
    ok = grid_ok and trend_ok and dt < 300.0
    _report(
        9,
        ok,
        f"capacity-grid gap {abs(cap.bits - best):.1e}, leakage medians "
        f"{meds[4]:.3f} >= {meds[6]:.3f} >= {meds[8]:.3f} >= {meds[10]:.3f} ({dt:.1f}s < 300s)",
    )


# ---------------------------------------------------------------------------
# 10. semi-deterministic objective against the exhaustive grid


def test_criterion_10_semidet_grid_oracle():
    t0 = time.perf_counter()
    kz = np.full((2, 2, 1), 1.0)
    ch = Channel((("X", (0, 1)), ("S", (0, 1))), (("Z", (0,)),), kz)
    model = build_semideterministic(lambda x, s: x ^ s, ch, bernoulli(0.5))
    res = maximize("semidet", model, budget=OptBudget(restarts=8, iterations=120, seed=4))
    oracle = exhaustive_small("semidet", model, 1.0 / 512.0)
    dt = time.perf_counter() - t0
    ok = abs(res.value - oracle) <= 5e-3 and dt < 60.0
    _report(10, ok, f"xor toy: |maximize - grid| = {abs(res.value - oracle):.1e} <= 5e-3 ({dt:.1f}s < 60s)")


# ---------------------------------------------------------------------------
# 11. every subcommand reruns byte-identically


def test_criterion_11_subcommand_reruns_byte_identical(tmp_path, capsys):
    t0 = time.perf_counter()
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    gp = write_json(tmp_path / "gp.json", const_u_policy_doc())
    xs = write_json(tmp_path / "xs.json", x_given_s_doc())
    alpha_star = inv_binary_entropy(1.0 - binary_entropy(0.25))
    hs = binary_entropy(0.25)
    ra = 1.1 * hs
    rbin = ra - 0.25
    commands = {
        "rate": ["rate", "--channel", ch, "--policy", gp, "--functional", "RA", "--seed", "5"],
        "optimize": ["optimize", "--channel", ch, "--functional", "CHV", "--card-v", "2",
                     "--restarts", "2", "--iters", "30", "--seed", "9"],
        "example": ["example", "--alpha", "0.25", "--sigma", "0.5",
                    "--restarts", "2", "--iters", "40", "--seed", "1"],
        "softcov-exponent": ["softcov-exponent", "--channel", ch, "--policy", xs,
                             "--r1", "0.6", "--r2", "0.6"],
        "softcov-sim": ["softcov-sim", "--channel", ch, "--policy", xs,
                        "--r1", "0.7", "--r2", "0.7", "--n", "3", "--trials", "4", "--seed", "2"],
        "codec-sim": ["codec-sim", "--channel", ch, "--policy", xs, "--r1", "0.25",
                      "--r2", "0.25", "--n", "4", "--trials", "6", "--eps", "1.0", "--seed", "11"],
        "binning-sim": ["binning-sim", "--alpha", str(alpha_star), "--sigma", "0.05",
                        "--ra", str(ra), "--rbin", str(rbin), "--r", "0.2",
                        "--n", "6", "--trials", "4", "--eps", "1.25", "--seed", "3"],
    }
    ok = True
    for name, argv in commands.items():
        out_csv = tmp_path / f"{name}.csv"
        status_a = main(argv + ["--out", str(out_csv)])
        stdout_a = capsys.readouterr().out
        bytes_a = out_csv.read_bytes()
        status_b = main(argv + ["--out", str(out_csv)])
        stdout_b = capsys.readouterr().out
        ok &= status_a == 0 and status_b == 0
        ok &= stdout_a == stdout_b
        ok &= out_csv.read_bytes() == bytes_a
        ok &= json.loads(stdout_a)["csv"] == str(out_csv)
    dt = time.perf_counter() - t0
    _report(11, ok, f"{len(commands)} subcommands rerun byte-identically ({dt:.1f}s)")
