"""Superposition soft-covering exponents and the failure-probability bound."""
from __future__ import annotations

import math

import numpy as np
import pytest

from test_cli import wiretap_doc, x_given_s_doc
from sdwtc import softcover
from sdwtc.cli import _covering_joint
from sdwtc.models import as_input_policy, assemble_joint, model_from_dict, policy_from_dict
from sdwtc.prob import LN2, JointPmf, Pmf, mutual_information, renyi_divergence
from sdwtc.softcover import (
    _ALPHA_GRID,
    _GOLDEN,
    BestGammaResult,
    FailureBound,
    GammaResult,
    SoftCoverSpec,
    _betas,
    _divergence_tables,
    best_gamma,
    failure_probability_bound,
    gamma_exponent,
)

RNG_SEED = 20240821

UVW_AXES = (("U", (0, 1)), ("V", (0, 1)), ("W", (0, 1)))


def random_uvw(rng: np.random.Generator, floor: float = 0.01) -> JointPmf:
    w = rng.dirichlet(np.ones(8)) + floor
    return JointPmf(UVW_AXES, (w / w.sum()).reshape(2, 2, 2))


def independent_uvw() -> JointPmf:
    uv = np.array([[0.3, 0.2], [0.1, 0.4]])
    w = np.array([0.5, 0.5])
    return JointPmf(UVW_AXES, uv[:, :, None] * w[None, None, :])


def spec_with_margins(
    joint: JointPmf, m1: float, m2: float, d1: float, d2: float
) -> SoftCoverSpec:
    i_uw = mutual_information(joint, ("U",), ("W",))
    i_uvw = mutual_information(joint, ("U", "V"), ("W",))
    r1 = i_uw + m1
    r2 = max(i_uvw + m2 - r1, 0.0)
    return SoftCoverSpec(joint, r1, r2, d1, d2)


# ---------------------------------------------------------------------------
# spec validity


def test_spec_rejects_negative_rates():
    j = independent_uvw()
    with pytest.raises(ValueError):
        SoftCoverSpec(j, -0.1, 0.5, 0.1, 0.15)


@pytest.mark.parametrize("field", ["r1", "r2", "d1", "d2"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_spec_rejects_non_finite_rates_and_confidences(field, value):
    args = {"r1": 1.0, "r2": 1.0, "d1": 0.1, "d2": 0.15, field: value}
    with pytest.raises(ValueError, match="must be finite"):
        SoftCoverSpec(independent_uvw(), **args)


def test_spec_requires_uvw_axes():
    j = JointPmf((("A", (0, 1)), ("B", (0, 1))), np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        SoftCoverSpec(j, 1.0, 1.0, 0.1, 0.15)


def test_validity_window():
    j = independent_uvw()  # both mutual informations are zero
    assert SoftCoverSpec(j, 1.0, 1.0, 0.2, 0.3).is_valid()
    assert not SoftCoverSpec(j, 1.0, 1.0, 0.0, 0.3).is_valid()  # d1 at 0
    assert not SoftCoverSpec(j, 1.0, 1.0, 1.1, 1.5).is_valid()  # d1 >= margin
    assert not SoftCoverSpec(j, 1.0, 1.0, 0.2, 0.2).is_valid()  # needs d1 < d2
    assert not SoftCoverSpec(j, 1.0, 1.0, 0.2, 0.4).is_valid()  # needs d2 < 2 d1
    assert not SoftCoverSpec(j, 1.0, 1.0, 0.2, 1.95).is_valid()  # d2 >= margin


def test_rate_margins_values():
    rng = np.random.default_rng(RNG_SEED)
    j = random_uvw(rng)
    spec = SoftCoverSpec(j, 1.5, 0.75, 0.1, 0.15)
    m1, m2 = spec.rate_margins
    assert m1 == pytest.approx(1.5 - mutual_information(j, ("U",), ("W",)), abs=1e-12)
    assert m2 == pytest.approx(
        2.25 - mutual_information(j, ("U", "V"), ("W",)), abs=1e-12
    )


# ---------------------------------------------------------------------------
# beta exponents


def beta_pair(spec: SoftCoverSpec, order: float) -> tuple[float, float]:
    """beta1 and beta2 of the spec at one Renyi order alpha > 1."""
    b1, b2 = _betas(_divergence_tables(spec.joint), np.array([order]),
                    spec.r1, spec.r2, spec.d1, spec.d2)
    return float(b1[0]), float(b2[0])


def test_betas_vanish_as_order_drops_to_one():
    rng = np.random.default_rng(RNG_SEED + 1)
    spec = spec_with_margins(random_uvw(rng), 0.5, 0.6, 0.26, 0.45)
    for order in (1.1, 1.01, 1.001, 1.0001):
        b1, b2 = beta_pair(spec, order)
        scale = (order - 1.0) / (2.0 * order - 1.0)
        assert abs(b1) <= scale * 4.0
        assert abs(b2) <= scale * 4.0
    b1, b2 = beta_pair(spec, 1.0 + 1e-9)
    assert b1 == pytest.approx(0.0, abs=1e-8)
    assert b2 == pytest.approx(0.0, abs=1e-8)


def test_beta_independence_closed_form():
    spec = SoftCoverSpec(independent_uvw(), 1.0, 1.0, 0.2, 0.3)
    for order in (1.5, 2.0, 8.0):
        scale = (order - 1.0) / (2.0 * order - 1.0)
        b1, b2 = beta_pair(spec, order)
        assert b1 == pytest.approx(scale * (1.0 - 0.2), abs=1e-12)
        assert b2 == pytest.approx(scale * (2.0 - 0.3), abs=1e-12)


def test_beta_uses_renyi_of_joint_vs_product():
    # binary symmetric (U, W) coupling; divergence checked from scratch
    mass = np.array([[0.4, 0.1], [0.1, 0.4]])
    j = JointPmf(UVW_AXES, mass[:, None, :] * np.array([1.0, 0.0])[None, :, None])
    spec = SoftCoverSpec(j, 2.0, 1.0, 0.2, 0.3)
    flat_joint = Pmf(tuple(range(4)), mass.ravel())
    prod = np.outer(mass.sum(axis=1), mass.sum(axis=0))
    flat_prod = Pmf(tuple(range(4)), prod.ravel())
    d2 = renyi_divergence(flat_joint, flat_prod, 2.0)
    b1, _ = beta_pair(spec, 2.0)
    assert b1 == pytest.approx((1.0 / 3.0) * (2.0 - 0.2 - d2), abs=1e-10)


# ---------------------------------------------------------------------------
# gamma exponent


def test_gamma_zero_outside_validity():
    j = independent_uvw()
    res = gamma_exponent(SoftCoverSpec(j, 1.0, 1.0, 1.2, 1.5))
    assert isinstance(res, GammaResult)
    assert res.gamma == 0.0
    assert res.degenerate


def test_gamma_saturates_at_quarter_delta():
    # with zero divergences and roomy rates the min pins to d1/4
    res = gamma_exponent(SoftCoverSpec(independent_uvw(), 1.0, 1.0, 0.2, 0.3))
    assert not res.degenerate
    assert res.gamma == pytest.approx(0.05, abs=1e-9)


def test_gamma_positive_strictly_inside():
    rng = np.random.default_rng(RNG_SEED + 2)
    checked = 0
    for _ in range(25):
        j = random_uvw(rng)
        m1 = float(rng.uniform(0.2, 0.8))
        m2 = float(rng.uniform(0.2, 0.8))
        d1 = float(rng.uniform(0.3, 0.7)) * m1
        d2 = min(float(rng.uniform(1.05, 1.9)) * d1, 0.999 * m2)
        if not (d1 < d2 < 2 * d1):
            continue
        res = gamma_exponent(spec_with_margins(j, m1, m2, d1, d2))
        assert not res.degenerate
        assert res.gamma > 0.0
        assert 1.0 < res.alpha <= 64.0
        assert math.isfinite(res.c) and res.c > 0.0
        checked += 1
    assert checked >= 10


def test_gamma_line_search_matches_dense_alpha_grid():
    rng = np.random.default_rng(RNG_SEED + 3)
    spec = spec_with_margins(random_uvw(rng), 0.6, 1.0, 0.26, 0.45)
    res = gamma_exponent(spec)
    grid = np.arange(1.01, 64.005, 0.01)
    best = max(
        min(*beta_pair(spec, float(a)), spec.d1 / 4.0) for a in grid
    )
    assert res.gamma >= best - 1e-6
    assert res.gamma == pytest.approx(best, abs=1e-6)


def test_gamma_continuous_under_delta_perturbation():
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(10):
        j = random_uvw(rng)
        spec = spec_with_margins(j, 0.5, 0.6, 0.26, 0.45)
        base = gamma_exponent(spec).gamma
        bumped = gamma_exponent(
            SoftCoverSpec(j, spec.r1, spec.r2, spec.d1 + 1e-6, spec.d2 + 1e-6)
        ).gamma
        assert abs(bumped - base) < 1e-3


# ---------------------------------------------------------------------------
# best gamma over the delta window


def test_best_gamma_rejects_rates_below_thresholds():
    # U correlated with W  =>  I(U;W) > 0, so r1 can sit below it
    mass = np.array([[0.4, 0.1], [0.1, 0.4]])
    coupled = JointPmf(UVW_AXES, mass[:, None, :] * np.array([0.5, 0.5])[None, :, None])
    with pytest.raises(ValueError):
        best_gamma(coupled, 0.1, 5.0)
    # W follows V through a flip channel  =>  I(U,V;W) is large
    w_given_v = np.array([[0.9, 0.1], [0.1, 0.9]])
    layered = JointPmf(UVW_AXES, np.tile(0.25 * w_given_v[None, :, :], (2, 1, 1)))
    with pytest.raises(ValueError):
        best_gamma(layered, 0.2, 0.25)


def test_best_gamma_dominates_sampled_specs():
    rng = np.random.default_rng(RNG_SEED + 6)
    j = random_uvw(rng)
    r1 = mutual_information(j, ("U",), ("W",)) + 0.5
    r2 = max(mutual_information(j, ("U", "V"), ("W",)) + 0.6 - r1, 0.1)
    res = best_gamma(j, r1, r2)
    assert isinstance(res, BestGammaResult)
    assert res.gamma > 0.0
    spec = SoftCoverSpec(j, r1, r2, res.d1, res.d2)
    assert spec.is_valid()
    m1, m2 = spec.rate_margins
    for _ in range(10):
        d1 = float(rng.uniform(0.05, 0.95)) * m1
        d2 = min(float(rng.uniform(1.05, 1.95)) * d1, 0.999 * m2)
        if not (0 < d1 < m1 and d1 < d2 < min(2 * d1, m2)):
            continue
        sampled = gamma_exponent(SoftCoverSpec(j, r1, r2, d1, d2))
        assert res.gamma >= sampled.gamma - 1e-9


def _oracle_best_gamma(j: JointPmf, r1: float, r2: float) -> float:
    """From-scratch sup over (d1, d2, alpha): dense order grid, 40x40 delta grid
    with zoom rounds.  Shares no search code with the library."""
    mass = j.mass if j.names == ("U", "V", "W") else np.moveaxis(
        j.mass, [j.names.index(a) for a in ("U", "V", "W")], [0, 1, 2]
    )
    alphas = np.arange(1.01, 64.005, 0.01)

    def renyi_curve(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        keep = p > 0
        lp, lq = np.log(p[keep]), np.log(q[keep])
        s = np.exp(alphas[:, None] * lp[None, :] + (1.0 - alphas)[:, None] * lq[None, :])
        return np.log2(s.sum(axis=1)) / (alphas - 1.0)

    m_uw = mass.sum(axis=1)
    m_uvw = mass
    f = (alphas - 1.0) / (2.0 * alphas - 1.0)
    top1 = f * (r1 - renyi_curve(m_uw.ravel(), np.outer(m_uw.sum(1), m_uw.sum(0)).ravel()))
    top2 = f * (
        r1 + r2 - renyi_curve(
            m_uvw.ravel(), (m_uvw.sum(axis=2)[:, :, None] * m_uw.sum(0)).ravel()
        )
    )
    m1 = r1 - mutual_information(j, ("U",), ("W",))
    m2 = r1 + r2 - mutual_information(j, ("U", "V"), ("W",))

    def sweep(d1s: np.ndarray, best: tuple[float, float, float]) -> tuple[float, float, float]:
        for d1 in d1s:
            hi = min(2.0 * float(d1), m2)
            if hi <= d1:
                continue
            d2s = np.linspace(float(d1) * (1 + 1e-7), hi * (1 - 1e-7), 40)
            row = np.minimum(top1 - f * float(d1), float(d1) / 4.0)
            vals = np.minimum(row[None, :], top2[None, :] - f[None, :] * d2s[:, None]).max(axis=1)
            k = int(np.argmax(vals))
            if vals[k] > best[0]:
                best = (float(vals[k]), float(d1), float(d2s[k]))
        return best

    best = sweep(np.geomspace(1e-3 * m1, m1 * (1 - 1e-6), 40), (0.0, m1 / 2, m1 * 0.75))
    width = m1
    for _ in range(6):
        width *= 0.15
        lo = max(best[1] - width, 1e-9)
        hi = min(best[1] + width, m1 * (1 - 1e-9))
        best = sweep(np.linspace(lo, hi, 40), best)
    return best[0]


def test_best_gamma_agrees_with_grid_oracle():
    rng = np.random.default_rng(RNG_SEED + 7)
    j = random_uvw(rng)
    r1 = mutual_information(j, ("U",), ("W",)) + 0.4
    r2 = max(mutual_information(j, ("U", "V"), ("W",)) + 0.5 - r1, 0.1)
    res = best_gamma(j, r1, r2)
    oracle = _oracle_best_gamma(j, r1, r2)
    assert res.gamma == pytest.approx(oracle, abs=1e-4)


# ---------------------------------------------------------------------------
# the array search against its sequential form


def _sequential_alpha(spec: SoftCoverSpec, tables, cap: float | None) -> tuple[float, float]:
    """sup over alpha of min(beta1, beta2[, cap]): the 400-point grid, then a
    golden section over t = ln(alpha - 1) that scores one order per call."""

    def objective_at(alpha: float) -> float:
        v1, v2 = _betas(tables, np.array([alpha]), spec.r1, spec.r2, spec.d1, spec.d2)
        v = min(v1[0], v2[0])
        return v if cap is None else min(v, cap)

    b1, b2 = _betas(tables, _ALPHA_GRID, spec.r1, spec.r2, spec.d1, spec.d2)
    curve = np.minimum(b1, b2)
    if cap is not None:
        curve = np.minimum(curve, cap)
    k = int(np.argmax(curve))
    t = np.log(_ALPHA_GRID - 1.0)
    a, b = t[max(k - 1, 0)], t[min(k + 1, t.size - 1)]
    fa_x = a + (1.0 - _GOLDEN) * (b - a)
    fb_x = a + _GOLDEN * (b - a)
    fa, fb = objective_at(1.0 + math.exp(fa_x)), objective_at(1.0 + math.exp(fb_x))
    while b - a > 1e-9:
        if fa < fb:
            a, fa_x, fa = fa_x, fb_x, fb
            fb_x = a + _GOLDEN * (b - a)
            fb = objective_at(1.0 + math.exp(fb_x))
        else:
            b, fb_x, fb = fb_x, fa_x, fa
            fa_x = a + (1.0 - _GOLDEN) * (b - a)
            fa = objective_at(1.0 + math.exp(fa_x))
    alpha = 1.0 + math.exp(0.5 * (a + b))
    refined = objective_at(alpha)
    if refined < curve[k]:
        alpha, refined = float(_ALPHA_GRID[k]), float(curve[k])
    return alpha, float(refined)


def _sequential_gamma(spec: SoftCoverSpec, tables) -> GammaResult:
    """The exponent with its capped and uncapped golden sections run one
    after the other: the reference the lockstep lanes must match bit for bit."""
    alpha, value = _sequential_alpha(spec, tables, spec.d1 / 4.0)
    valid = spec.is_valid()
    gamma = max(0.0, value) if valid else 0.0
    _, sup_min = _sequential_alpha(spec, tables, None)
    log2_e = 1.0 / LN2
    return GammaResult(
        gamma=gamma,
        alpha=alpha,
        c=4.0 * (log2_e + 2.0 * sup_min) + log2_e + 2.0 * tables[2],
        degenerate=(not valid) or gamma <= 0.0,
    )


def _sequential_best_gamma(joint: JointPmf, r1: float, r2: float) -> BestGammaResult:
    """best_gamma with a full (d1, d2) grid scanned one d1 at a time: the
    reference for the d1-only array scan."""
    m1, m2 = SoftCoverSpec(joint, r1, r2, 1.0, 1.5).rate_margins
    tables = _divergence_tables(joint)
    factor = (_ALPHA_GRID - 1.0) / (2.0 * _ALPHA_GRID - 1.0)
    a1, a2 = _betas(tables, _ALPHA_GRID, r1, r2, 0.0, 0.0)

    def scan(d1s: np.ndarray, n2: int, best: tuple[float, float, float]) -> tuple[float, float, float]:
        for d1 in d1s:
            hi = min(2.0 * d1, m2)
            if hi <= d1:
                continue
            width = hi - d1
            d2s = np.linspace(d1 + 1e-4 * width, hi - 1e-4 * width, n2)
            rows = np.minimum(a1 - factor * d1, d1 / 4.0)
            curve = np.minimum(rows[None, :], a2[None, :] - factor[None, :] * d2s[:, None])
            vals = curve.max(axis=1)
            j = int(np.argmax(vals))
            if vals[j] > best[0]:
                best = (float(vals[j]), float(d1), float(d2s[j]))
        return best

    best = (-math.inf, m1 / 2.0, min(0.75 * m1, m2 * 0.99))
    best = scan(np.linspace(m1 * 1e-3, m1 * (1.0 - 1e-3), 48), 48, best)
    span = m1 / 48.0
    for _ in range(3):
        lo = max(best[1] - 2.0 * span, m1 * 1e-6)
        hi = min(best[1] + 2.0 * span, m1 * (1.0 - 1e-6))
        best = scan(np.linspace(lo, hi, 15), 15, best)
        span *= 4.0 / 15.0
    res = _sequential_gamma(SoftCoverSpec(joint, r1, r2, best[1], best[2]), tables)
    return BestGammaResult(res.gamma, res.alpha, best[1], best[2], res.c, res.degenerate)


def _random_covering_joint(rng: np.random.Generator) -> JointPmf:
    """|U| = 2, |V| and |W| in {2, 3}; Dirichlet(1/2) masses, so some are tiny."""
    nv, nw = (int(x) for x in rng.integers(2, 4, size=2))
    axes = (("U", (0, 1)), ("V", tuple(range(nv))), ("W", tuple(range(nw))))
    return JointPmf(axes, rng.dirichlet(np.full(2 * nv * nw, 0.5)).reshape(2, nv, nw))


def _rates_with_margins(joint: JointPmf, m1: float, m2: float) -> tuple[float, float]:
    spec = spec_with_margins(joint, m1, m2, 0.0, 0.0)
    return spec.r1, spec.r2


def criterion_11_joint() -> JointPmf:
    """The (U, V, S) covering joint of the wiretap and x_given_s documents."""
    model = model_from_dict(wiretap_doc())
    policy = as_input_policy(model, policy_from_dict(x_given_s_doc(), model))
    return _covering_joint(assemble_joint(model, policy), "S")


def test_best_gamma_matches_the_sequential_search():
    rng = np.random.default_rng(RNG_SEED + 8)
    cases = [(criterion_11_joint(), r1, r2) for r1, r2 in ((0.6, 0.6), (0.7, 0.7), (0.3, 0.4))]
    for _ in range(120):
        j = _random_covering_joint(rng)
        # m2 < m1 in about a quarter of the draws, so some d1 points have no room for d2
        cases.append((j, *_rates_with_margins(j, rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.5))))
    for j, r1, r2 in cases:
        assert best_gamma(j, r1, r2) == _sequential_best_gamma(j, r1, r2)


def test_best_gamma_scores_its_golden_sections_a_tree_at_a_time(monkeypatch):
    # at every bench rate pair: two grid calls, one for the first four probes,
    # ten trees and one for the two midpoints; one probe per call took 43 calls
    calls = []
    monkeypatch.setattr(softcover, "_betas", lambda *args: calls.append(args) or _betas(*args))
    for r1, r2 in ((0.6, 0.6), (0.7, 0.7), (0.3, 0.4)):
        calls.clear()
        best_gamma(criterion_11_joint(), r1, r2)
        assert len(calls) <= 14, (r1, r2)


def test_gamma_exponent_matches_the_sequential_golden_sections():
    rng = np.random.default_rng(RNG_SEED + 9)
    for _ in range(120):
        j = _random_covering_joint(rng)
        m1, m2 = rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.5)
        d1 = float(rng.uniform(0.0, 1.2)) * m1
        d2 = float(rng.uniform(0.5, 2.5)) * d1  # valid and invalid windows
        spec = spec_with_margins(j, m1, m2, d1, d2)
        assert gamma_exponent(spec) == _sequential_gamma(spec, _divergence_tables(j))


# ---------------------------------------------------------------------------
# failure-probability bound


def _wide_valid_spec() -> SoftCoverSpec:
    return SoftCoverSpec(independent_uvw(), 1.0, 1.0, 0.45, 0.89)


def test_bound_vacuous_at_tiny_blocklength():
    b = failure_probability_bound(_wide_valid_spec(), 1)
    assert isinstance(b, FailureBound)
    assert b.vacuous
    assert b.log2_bound >= 0.0
    assert b.probability == 1.0


def test_bound_decreases_with_blocklength():
    spec = _wide_valid_spec()
    b30 = failure_probability_bound(spec, 30)
    b60 = failure_probability_bound(spec, 60)
    assert b60.log2_bound < b30.log2_bound
    assert not b60.vacuous
    assert 0.0 <= b60.probability < 1.0


def test_bound_collapses_at_large_blocklength():
    b = failure_probability_bound(_wide_valid_spec(), 200)
    nats = b.log2_bound * math.log(2.0)
    assert nats < -1e6
    assert b.probability == 0.0


def test_bound_threshold_tracks_gamma():
    spec = _wide_valid_spec()
    res = gamma_exponent(spec)
    for n in (30, 60):
        b = failure_probability_bound(spec, n)
        assert b.threshold == pytest.approx(res.c * n * 2.0 ** (-n * res.gamma), rel=1e-9)


def test_bound_reads_the_w_alphabet_off_the_spec():
    # t2 and t3 carry n ln|W|; a three-symbol W axis gives n ln 3
    axes = (("U", (0, 1)), ("V", (0, 1)), ("W", (0, 1, 2)))
    spec = SoftCoverSpec(JointPmf(axes, np.full((2, 2, 3), 1.0 / 12.0)), 1.0, 1.0, 0.45, 0.89)
    n = 30
    t1 = n * spec.r2 * math.log(2.0) - 2.0 ** (n * spec.d1) / 3.0
    t2 = n * math.log(3.0) + n * spec.r1 * math.log(2.0) - 2.0 ** (n * spec.d2 / 2.0)
    t3 = n * math.log(3.0) - 2.0 ** (n * (spec.d2 - spec.d1) / 2.0) / 3.0
    want = np.logaddexp(np.logaddexp(t1, t2), t3) / math.log(2.0)
    assert failure_probability_bound(spec, n).log2_bound == pytest.approx(want, rel=1e-12)


def test_bound_vacuous_flag_outside_validity():
    j = independent_uvw()
    bad = SoftCoverSpec(j, 1.0, 1.0, 0.2, 0.5)  # d2 >= 2 d1
    b = failure_probability_bound(bad, 50)
    assert b.vacuous
