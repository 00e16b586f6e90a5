"""Soft-covering exponents for random superposition codebooks.

A codebook of 2^{nR1} outer words, each carrying 2^{nR2} inner words,
approximates the output distribution Q_W^n through a memoryless kernel
Q_{W|U,V}.  The relative entropy between the codebook-induced output and
Q_W^n falls like n 2^{-n gamma} except with doubly-exponentially small
probability; this module computes gamma, optimizes it over the confidence
parameters (delta1, delta2), and evaluates the finite-n tail bound.

All rates, divergences, and exponents are in bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .prob import (
    LN2,
    ZERO_MASS,
    JointPmf,
    _marginal_mass,
    _renyi_from_logs,
    mutual_information,
)

_ALPHA_GRID = 1.0 + np.geomspace(1e-9, 63.0, 400)
_T_GRID = np.log(_ALPHA_GRID - 1.0)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_DEPTH = 4  # golden-section steps per _betas call: a tree of 2 + 4 + 8 + 16 probes


def _log_ratio_terms(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = p.ravel() > ZERO_MASS
    return np.log(p.ravel()[mask]), np.log(q.ravel()[mask])


@dataclass(frozen=True)
class SoftCoverSpec:
    """A superposition covering problem: joint over (U, V, W), rates, confidences."""

    joint: JointPmf
    r1: float
    r2: float
    d1: float
    d2: float

    def __post_init__(self) -> None:
        if set(self.joint.names) != {"U", "V", "W"}:
            raise ValueError(f"joint must have axes U, V, W, got {self.joint.names}")
        if not all(map(math.isfinite, (self.r1, self.r2, self.d1, self.d2))):
            raise ValueError(f"rates and confidences must be finite, got {self.r1, self.r2, self.d1, self.d2}")
        if self.r1 < 0.0 or self.r2 < 0.0:
            raise ValueError(f"rates must be nonnegative, got ({self.r1}, {self.r2})")

    @cached_property
    def rate_margins(self) -> tuple[float, float]:
        """(r1 - I(U;W), r1 + r2 - I(U,V;W)), both of which must be exceeded."""
        i_uw = mutual_information(self.joint, ("U",), ("W",))
        i_uvw = mutual_information(self.joint, ("U", "V"), ("W",))
        return self.r1 - i_uw, self.r1 + self.r2 - i_uvw

    def is_valid(self) -> bool:
        """Whether (d1, d2) sit inside the region where the tail bound bites."""
        return _inside(self.rate_margins, self.d1, self.d2)


def _inside(margins: tuple[float, float], d1: float, d2: float) -> bool:
    return 0.0 < d1 < margins[0] and 0.0 < d2 < margins[1] and d1 < d2 < 2.0 * d1


@dataclass(frozen=True)
class GammaResult:
    """An achieved exponent, the order attaining it, and the level coefficient."""

    gamma: float
    alpha: float
    c: float
    degenerate: bool


def _divergence_tables(joint: JointPmf) -> tuple:
    """Log-mass pairs for d_alpha(Q_UW || Q_U Q_W) and d_alpha(Q_UVW || Q_UV Q_W), log2 of the
    inverse smallest supported W mass (for the coefficient c), and both d_alpha on _ALPHA_GRID."""
    m_uw = _marginal_mass(joint, ("U", "W"))
    m_u = m_uw.sum(axis=1)
    m_w = m_uw.sum(axis=0)
    m_uvw = _marginal_mass(joint, ("U", "V", "W"))
    m_uv = m_uvw.sum(axis=2)
    pair1 = _log_ratio_terms(m_uw, np.multiply.outer(m_u, m_w))
    pair2 = _log_ratio_terms(m_uvw, np.multiply.outer(m_uv, m_w))
    qw_min = m_w[m_w > ZERO_MASS].min()
    grid = (_renyi_from_logs(*pair1, _ALPHA_GRID), _renyi_from_logs(*pair2, _ALPHA_GRID))
    return pair1, pair2, float(np.log2(1.0 / qw_min)), grid


def _betas(
    tables, orders: np.ndarray, r1: float, r2: float, d1: float, d2: float
) -> tuple[np.ndarray, np.ndarray]:
    """beta1 and beta2 at each order: ((a-1)/(2a-1)) (r - d - d_a) for the two
    divergences of the _divergence_tables; at _ALPHA_GRID itself, the tables'
    divergences on it."""
    div1, div2 = tables[3] if orders is _ALPHA_GRID else (_renyi_from_logs(*pair, orders) for pair in tables[:2])
    factor = (orders - 1.0) / (2.0 * orders - 1.0)
    return factor * (r1 - d1 - div1), factor * (r1 + r2 - d2 - div2)


def _gamma(spec: SoftCoverSpec, tables, valid: bool) -> GammaResult:
    """gamma_exponent on the spec's precomputed _divergence_tables and validity.

    Two lanes maximize min(beta1, beta2, cap) over t = ln(alpha - 1): cap d1/4
    gives gamma, no cap the c of the tail bound on D >= c n 2^{-n gamma}.  Each
    lane runs its own golden section from its best _ALPHA_GRID point.  A probe
    depends only on which way the steps before it went, so one _betas call
    scores each open lane's tree of probes for its next _DEPTH steps, and the
    lane walks it.  numpy reduces the rows one by one, so a lane reads what
    it would read scoring one probe per call.
    """
    caps = np.array([spec.d1 / 4.0, math.inf])

    def objective(ts: list[float], lanes: list[int]) -> tuple[np.ndarray, np.ndarray]:
        orders = np.array([1.0 + math.exp(t) for t in ts])
        b1, b2 = _betas(tables, orders, spec.r1, spec.r2, spec.d1, spec.d2)
        return orders, np.minimum(np.minimum(b1, b2), caps[lanes])

    b1, b2 = _betas(tables, _ALPHA_GRID, spec.r1, spec.r2, spec.d1, spec.d2)
    curves = np.minimum(np.minimum(b1, b2), caps[:, None])
    k = curves.argmax(axis=1)
    a = _T_GRID[np.maximum(k - 1, 0)].tolist()
    b = _T_GRID[np.minimum(k + 1, _T_GRID.size - 1)].tolist()
    xa = [lo + (1.0 - _GOLDEN) * (hi - lo) for lo, hi in zip(a, b)]
    xb = [lo + _GOLDEN * (hi - lo) for lo, hi in zip(a, b)]
    fa, fb = objective(xa + xb, [0, 1, 0, 1])[1].reshape(2, 2).tolist()
    size = 2 ** (_DEPTH + 1)  # a tree's brackets in heap order: node j goes up to 2j, down to 2j + 1
    while live := [i for i in (0, 1) if b[i] - a[i] > 1e-9]:
        trees = [[None, (a[i], b[i], xa[i], xb[i])] for i in live]
        for tree in trees:
            for j in range(1, size // 2):
                lo, hi, pa, pb = tree[j]
                tree += [(pa, hi, pb, pa + _GOLDEN * (hi - pa)), (lo, pb, lo + (1.0 - _GOLDEN) * (pb - lo), pa)]
        ts = [tree[j][3 - j % 2] for tree in trees for j in range(2, size)]  # each node's new probe
        f = objective(ts, [i for i in live for _ in range(2, size)])[1].tolist()
        for n, (i, tree) in enumerate(zip(live, trees)):
            j = 1
            while j < size // 2 and b[i] - a[i] > 1e-9:
                j = 2 * j + (not fa[i] < fb[i])
                a[i], b[i], xa[i], xb[i] = tree[j]
                v = f[n * (size - 2) + j - 2]
                fa[i], fb[i] = (fb[i], v) if j % 2 == 0 else (v, fa[i])
    alphas, values = objective([0.5 * (lo + hi) for lo, hi in zip(a, b)], [0, 1])
    on_grid = curves[[0, 1], k]
    worse = values < on_grid
    alphas, values = np.where(worse, _ALPHA_GRID[k], alphas), np.where(worse, on_grid, values)
    gamma = max(0.0, float(values[0])) if valid else 0.0
    log2_e = 1.0 / LN2
    return GammaResult(
        gamma=gamma,
        alpha=float(alphas[0]),
        c=4.0 * (log2_e + 2.0 * float(values[1])) + log2_e + 2.0 * tables[2],
        degenerate=(not valid) or gamma <= 0.0,
    )


def gamma_exponent(spec: SoftCoverSpec) -> GammaResult:
    """The soft-covering exponent sup_alpha min{beta1, beta2, d1/4}.

    The supremum over alpha > 1 is never negative (both betas vanish as
    alpha -> 1), so the result is clamped at zero; `degenerate` flags specs
    whose confidence parameters fall outside the valid region or whose
    exponent is zero.
    """
    return _gamma(spec, _divergence_tables(spec.joint), spec.is_valid())


@dataclass(frozen=True)
class BestGammaResult:
    """The exponent optimized over (d1, d2); I(U;W) and I(U,V;W), uncompared."""

    gamma: float
    alpha: float
    d1: float
    d2: float
    c: float
    degenerate: bool
    i_uw: float = field(default=math.nan, compare=False)
    i_uvw: float = field(default=math.nan, compare=False)


def best_gamma(joint: JointPmf, r1: float, r2: float) -> BestGammaResult:
    """Optimize the exponent over 0 < d1 < d2 < 2 d1 inside the rate margins.

    At a fixed alpha, beta2 falls as d2 grows ((alpha-1)/(2alpha-1) >= 0), so
    the exponent is best as d2 -> d1+: the search fixes d2 a 1e-4 share of the
    way from d1 to min(2 d1, r1 + r2 - I(U,V;W)) and scans d1 alone, a coarse
    grid plus three zoom rounds, before the refined alpha search.  The tail
    bound at that pair is vacuous: its third term, n ln|W| - 2^{n(d2-d1)/2}/3,
    stays near n ln|W| (log2_bound is about n at n = 10, 100 and 1000 on the
    bench wiretap fixture at r1 = r2 = 0.6).
    """
    SoftCoverSpec(joint, r1, r2, 1.0, 1.5)  # refuses other axes and non-finite or negative rates
    i_uw = mutual_information(joint, ("U",), ("W",))
    i_uvw = mutual_information(joint, ("U", "V"), ("W",))
    m1, m2 = r1 - i_uw, r1 + r2 - i_uvw  # SoftCoverSpec.rate_margins
    if not m1 > 0.0 or not m2 > 0.0:
        raise ValueError(f"rates sit below the covering thresholds: margins are ({m1!r}, {m2!r})")

    tables = _divergence_tables(joint)
    factor = (_ALPHA_GRID - 1.0) / (2.0 * _ALPHA_GRID - 1.0)
    a1, a2 = _betas(tables, _ALPHA_GRID, r1, r2, 0.0, 0.0)

    def scan(d1s: np.ndarray, best: tuple[float, float, float]) -> tuple[float, float, float]:
        hi = np.minimum(2.0 * d1s, m2)
        d2s = d1s + 1e-4 * (hi - d1s)
        rows = np.minimum(a1 - factor * d1s[:, None], d1s[:, None] / 4.0)
        vals = np.minimum(rows, a2 - factor * d2s[:, None]).max(axis=1)
        vals[hi <= d1s] = -math.inf
        j = int(np.argmax(vals))
        if vals[j] > best[0]:
            best = (float(vals[j]), float(d1s[j]), float(d2s[j]))
        return best

    best = (-math.inf, m1 / 2.0, min(0.75 * m1, m2 * 0.99))
    best = scan(np.linspace(m1 * 1e-3, m1 * (1.0 - 1e-3), 48), best)
    span = m1 / 48.0
    for _ in range(3):
        lo = max(best[1] - 2.0 * span, m1 * 1e-6)
        hi = min(best[1] + 2.0 * span, m1 * (1.0 - 1e-6))
        best = scan(np.linspace(lo, hi, 15), best)
        span *= 4.0 / 15.0

    res = _gamma(SoftCoverSpec(joint, r1, r2, best[1], best[2]), tables, _inside((m1, m2), best[1], best[2]))
    return BestGammaResult(
        gamma=res.gamma,
        alpha=res.alpha,
        d1=best[1],
        d2=best[2],
        c=res.c,
        degenerate=res.degenerate,
        i_uw=i_uw,
        i_uvw=i_uvw,
    )


@dataclass(frozen=True)
class FailureBound:
    """The finite-n tail bound P(D >= threshold) <= 2^{log2_bound}."""

    n: int
    threshold: float
    log2_bound: float
    vacuous: bool

    @property
    def probability(self) -> float:
        if self.log2_bound >= 0.0:
            return 1.0
        if self.log2_bound < -1074.0:
            return 0.0
        return float(2.0 ** self.log2_bound)


def failure_probability_bound(spec: SoftCoverSpec, n: int) -> FailureBound:
    """Evaluate the three-term tail bound at blocklength n.

    ln-domain terms (W = |W|, the size of the spec joint's W axis):
      t1 = n r2 ln 2 - (1/3) 2^{n d1}
      t2 = n ln W + n r1 ln 2 - 2^{n d2 / 2}
      t3 = n ln W - (1/3) 2^{n (d2 - d1) / 2}
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n!r}")
    res = gamma_exponent(spec)
    threshold = res.c * n * 2.0 ** (-n * res.gamma)

    def pow2(x: float) -> float:
        return float(2.0 ** min(x, 1020.0))

    ln_w = n * math.log(len(spec.joint.alphabet("W")))
    t1 = n * spec.r2 * LN2 - pow2(n * spec.d1) / 3.0
    t2 = ln_w + n * spec.r1 * LN2 - pow2(n * spec.d2 / 2.0)
    t3 = ln_w - pow2(n * (spec.d2 - spec.d1) / 2.0) / 3.0
    ln_total = np.logaddexp(np.logaddexp(t1, t2), t3)
    log2_bound = float(ln_total / LN2)
    return FailureBound(
        n=n,
        threshold=float(threshold),
        log2_bound=log2_bound,
        vacuous=(not spec.is_valid()) or log2_bound >= 0.0,
    )
