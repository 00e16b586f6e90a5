"""Finite-alphabet probability layer: entropies, divergences, typicality."""
from __future__ import annotations

import math

import numpy as np
import pytest

from sdwtc.prob import (
    Channel,
    JointPmf,
    Pmf,
    bernoulli,
    binary_entropy,
    channel_from_joint,
    entropy,
    inv_binary_entropy,
    is_letter_typical,
    marginalize,
    mutual_information,
    relative_entropy,
    renyi_divergence,
    total_variation,
    uniform,
)

RNG_SEED = 20240817

# hand-frozen reference values (all bits)
H_BERN_QUARTER = 0.8112781244591328  # -(1/4)log(1/4) - (3/4)log(3/4)
KL_HALF_QUARTER = 0.2075187496394219  # 1 - log2(3)/2
RENYI2_HALF_QUARTER = 0.4150374992788438  # log2(4/3)


def random_pmf(rng: np.random.Generator, k: int, floor: float = 0.0) -> Pmf:
    w = rng.dirichlet(np.ones(k)) + floor
    return Pmf(tuple(range(k)), w / w.sum())


def random_joint(rng: np.random.Generator, shape: tuple[int, ...], names: tuple[str, ...]) -> JointPmf:
    w = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    axes = tuple((n, tuple(range(k))) for n, k in zip(names, shape))
    return JointPmf(axes, w)


# ---------------------------------------------------------------------------
# constructors and validation


def test_pmf_rejects_negative_mass():
    with pytest.raises(ValueError):
        Pmf((0, 1), np.array([1.2, -0.2]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_mass_is_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        Pmf((0, 1), [bad, bad])
    with pytest.raises(ValueError, match="non-finite"):
        Pmf((0, 1), [bad, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        JointPmf((("A", (0, 1)), ("B", (0,))), np.array([[bad], [0.5]]))
    with pytest.raises(ValueError, match="non-finite"):
        Channel((("X", (0, 1)),), (("Y", (0, 1)),), np.array([[1.0, 0.0], [bad, 0.5]]))


def test_pmf_rejects_unnormalized_mass():
    with pytest.raises(ValueError):
        Pmf((0, 1), np.array([0.6, 0.5]))


def test_joint_rejects_duplicate_axis_names():
    w = np.full((2, 2), 0.25)
    with pytest.raises(ValueError):
        JointPmf((("X", (0, 1)), ("X", (0, 1))), w)


def test_axes_refuse_duplicate_labels():
    # the arithmetic runs on indices, so two equal labels would name two cells
    with pytest.raises(ValueError, match="axis B alphabet labels must be unique, got \\(0, 0\\)"):
        JointPmf((("A", (0, 1)), ("B", (0, 0))), np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="axis X alphabet labels must be unique"):
        Channel((("X", ("a", "a")),), (("Y", (0, 1)),), np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="axis Y alphabet labels must be unique"):
        Channel((("X", (0, 1)),), (("Y", (1, 1.0)),), np.full((2, 2), 0.5))


def test_channel_rejects_nonstochastic_rows():
    k = np.array([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ValueError):
        Channel((("S", (0, 1)),), (("X", (0, 1)),), k)


def test_channel_shape_properties():
    k = np.full((2, 3, 2), 1.0 / 6.0)
    ch = Channel((("S", (0, 1)),), (("U", (0, 1, 2)), ("X", (0, 1))), k)
    assert ch.in_shape == (2,)
    assert ch.out_shape == (3, 2)
    assert ch.in_names == ("S",)
    assert ch.out_names == ("U", "X")


def test_point_mass_and_uniform():
    p = Pmf((0, 1, 2), [0.0, 1.0, 0.0])
    assert p.probs.tolist() == [0.0, 1.0, 0.0]
    q = uniform("ab")
    assert np.allclose(q.probs, 0.5)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_bernoulli_quarter():
    assert entropy(bernoulli(0.25)) == pytest.approx(H_BERN_QUARTER, abs=1e-12)


def test_entropy_uniform_is_log_cardinality():
    for k in (2, 3, 5, 8):
        assert entropy(uniform(range(k))) == pytest.approx(math.log2(k), abs=1e-12)


def test_entropy_point_mass_is_zero():
    assert entropy(Pmf((0, 1, 2), [0.0, 0.0, 1.0])) == 0.0


def test_conditional_entropy_chain_rule():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        j = random_joint(rng, (3, 4), ("A", "B"))
        h_ab = entropy(j)
        h_a = entropy(j, axes=("A",))
        h_b_given_a = entropy(j, axes=("B",), given=("A",))
        assert h_ab == pytest.approx(h_a + h_b_given_a, abs=1e-10)


def test_conditioning_reduces_entropy():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(50):
        j = random_joint(rng, (3, 3), ("A", "B"))
        assert entropy(j, axes=("B",), given=("A",)) <= entropy(j, axes=("B",)) + 1e-10


def test_entropy_rejects_overlapping_groups():
    j = random_joint(np.random.default_rng(0), (2, 2), ("A", "B"))
    with pytest.raises(ValueError):
        entropy(j, axes=("A",), given=("A",))


def test_binary_entropy_endpoints_and_symmetry():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)
    assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), abs=1e-12)


def test_inv_binary_entropy_round_trip():
    for y in (0.05, 0.1887218755408671, 0.25, 0.5, 0.75, 0.999):
        p = inv_binary_entropy(y)
        assert 0.0 <= p <= 0.5
        assert binary_entropy(p) == pytest.approx(y, abs=1e-9)


def test_inv_binary_entropy_half_bit():
    # h(p) = 1/2 at p ~ 0.11003; frozen from a high-precision bisection
    assert inv_binary_entropy(0.5) == pytest.approx(0.11002786443835959, abs=1e-9)


# ---------------------------------------------------------------------------
# marginalization / conditioning / channel extraction


def test_marginalize_keeps_order_and_mass():
    rng = np.random.default_rng(RNG_SEED + 2)
    j = random_joint(rng, (2, 3, 4), ("A", "B", "C"))
    m = marginalize(j, ("C", "A"))
    assert m.names == ("C", "A")
    assert m.mass.shape == (4, 2)
    assert m.mass.sum() == pytest.approx(1.0, abs=1e-12)
    direct = j.mass.sum(axis=1).T
    assert np.allclose(m.mass, direct, atol=1e-15)


def test_channel_from_joint_recovers_conditional():
    rng = np.random.default_rng(RNG_SEED + 4)
    j = random_joint(rng, (3, 4), ("A", "B"))
    ch = channel_from_joint(j, ("A",), ("B",))
    assert ch.in_names == ("A",)
    assert ch.out_names == ("B",)
    rows = j.mass / j.mass.sum(axis=1, keepdims=True)
    assert np.allclose(ch.kernel, rows, atol=1e-12)


def test_channel_from_joint_uniform_fill_on_null_rows():
    mass = np.array([[0.5, 0.5], [0.0, 0.0]]) * np.array([[1.0], [0.0]])
    mass = mass / mass.sum()
    j = JointPmf((("A", (0, 1)), ("B", (0, 1))), mass)
    ch = channel_from_joint(j, ("A",), ("B",))
    assert np.allclose(ch.kernel[1], 0.5)


def test_channel_from_joint_rejects_overlap():
    j = random_joint(np.random.default_rng(0), (2, 2), ("A", "B"))
    with pytest.raises(ValueError):
        channel_from_joint(j, ("A",), ("A",))


# ---------------------------------------------------------------------------
# mutual information


def test_mutual_information_product_is_zero():
    p = bernoulli(0.3)
    q = uniform(range(3))
    mass = np.outer(p.probs, q.probs)
    j = JointPmf((("A", p.symbols), ("B", q.symbols)), mass)
    assert mutual_information(j, ("A",), ("B",)) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_identity_is_entropy():
    p = bernoulli(0.25)
    mass = np.diag(p.probs)
    j = JointPmf((("A", p.symbols), ("B", p.symbols)), mass)
    assert mutual_information(j, ("A",), ("B",)) == pytest.approx(H_BERN_QUARTER, abs=1e-12)


def test_mutual_information_nonnegative_and_symmetric():
    rng = np.random.default_rng(RNG_SEED + 5)
    for _ in range(100):
        j = random_joint(rng, (3, 4), ("A", "B"))
        i_ab = mutual_information(j, ("A",), ("B",))
        i_ba = mutual_information(j, ("B",), ("A",))
        assert i_ab >= -1e-12
        assert i_ab == pytest.approx(i_ba, abs=1e-10)


def test_conditional_mutual_information_chain_rule():
    # I(A; B, C) = I(A; B) + I(A; C | B)
    rng = np.random.default_rng(RNG_SEED + 6)
    for _ in range(50):
        j = random_joint(rng, (2, 3, 3), ("A", "B", "C"))
        lhs = mutual_information(j, ("A",), ("B", "C"))
        rhs = mutual_information(j, ("A",), ("B",)) + mutual_information(
            j, ("A",), ("C",), given=("B",)
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_markov_chain_has_zero_conditional_mi():
    # A - B - C built from kernels: I(A; C | B) = 0
    rng = np.random.default_rng(RNG_SEED + 7)
    pa = rng.dirichlet(np.ones(3))
    kb = rng.dirichlet(np.ones(3), size=3)
    kc = rng.dirichlet(np.ones(4), size=3)
    mass = np.einsum("a,ab,bc->abc", pa, kb, kc)
    j = JointPmf((("A", (0, 1, 2)), ("B", (0, 1, 2)), ("C", (0, 1, 2, 3))), mass)
    assert mutual_information(j, ("A",), ("C",), given=("B",)) == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# divergences


def test_relative_entropy_frozen_value():
    assert relative_entropy(bernoulli(0.5), bernoulli(0.25)) == pytest.approx(
        KL_HALF_QUARTER, abs=1e-12
    )


def test_relative_entropy_zero_iff_equal():
    rng = np.random.default_rng(RNG_SEED + 8)
    p = random_pmf(rng, 4, floor=0.01)
    assert relative_entropy(p, p) == pytest.approx(0.0, abs=1e-12)
    q = random_pmf(rng, 4, floor=0.01)
    if not np.allclose(p.probs, q.probs):
        assert relative_entropy(p, q) > 0.0


def test_relative_entropy_support_violation():
    p = Pmf((0, 1), np.array([0.5, 0.5]))
    q = Pmf((0, 1), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        relative_entropy(p, q)


def test_total_variation_bounds_and_values():
    assert total_variation(bernoulli(0.5), bernoulli(0.5)) == 0.0
    assert total_variation(bernoulli(0.0), bernoulli(1.0)) == 1.0
    assert total_variation(bernoulli(0.5), bernoulli(0.25)) == pytest.approx(0.25, abs=1e-12)


def test_divergence_dominates_squared_total_variation():
    # D(p||q) >= (2/ln 2) TV^2 for every random pair with full support
    rng = np.random.default_rng(RNG_SEED + 9)
    for _ in range(200):
        p = random_pmf(rng, 5, floor=0.02)
        q = random_pmf(rng, 5, floor=0.02)
        d = relative_entropy(p, q)
        tv = total_variation(p, q)
        assert d >= 2.0 * tv * tv / math.log(2.0) - 1e-12


def test_renyi_divergence_frozen_value():
    assert renyi_divergence(bernoulli(0.5), bernoulli(0.25), 2.0) == pytest.approx(
        RENYI2_HALF_QUARTER, abs=1e-12
    )


def test_renyi_decreases_to_kl_as_order_drops():
    rng = np.random.default_rng(RNG_SEED + 10)
    for _ in range(50):
        p = random_pmf(rng, 4, floor=0.02)
        q = random_pmf(rng, 4, floor=0.02)
        kl = relative_entropy(p, q)
        prev = math.inf
        for order in (8.0, 4.0, 2.0, 1.5, 1.01, 1.0001):
            d = renyi_divergence(p, q, order)
            assert d <= prev + 1e-10
            prev = d
        assert prev >= kl - 1e-4


def test_renyi_rejects_order_at_most_one():
    with pytest.raises(ValueError):
        renyi_divergence(bernoulli(0.5), bernoulli(0.25), 1.0)


# ---------------------------------------------------------------------------
# letter typicality


def test_typicality_counts_binary_half():
    # number of length-10 binary words with both letter frequencies
    # within 20% of 1/2: exactly the words with 4, 5, or 6 ones -> 672
    p = bernoulli(0.5)
    hits = 0
    for w in range(1 << 10):
        seq = [(w >> t) & 1 for t in range(10)]
        hits += is_letter_typical(seq, p, 0.2)
    assert hits == 672


def test_typicality_rejects_unknown_symbols():
    assert not is_letter_typical([0, 1, 2], bernoulli(0.5), 0.9)


def test_typicality_requires_every_supported_letter():
    # a supported letter that never appears violates the relative bound
    assert not is_letter_typical([0, 0, 0, 0], bernoulli(0.25), 0.9)
    assert is_letter_typical([0, 0, 0, 1], bernoulli(0.25), 0.2)


def test_typicality_zero_eps_needs_exact_composition():
    p = bernoulli(0.25)
    assert is_letter_typical([0, 0, 0, 1], p, 0.0)
    assert not is_letter_typical([0, 0, 1, 1], p, 0.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -0.1])
def test_typicality_refuses_an_eps_that_is_not_finite_and_nonnegative(eps):
    # a NaN eps made every comparison False, so [0, 0, 0, 0] was typical for a fair coin
    with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
        is_letter_typical([0, 0, 0, 0], Pmf((0, 1), np.array([0.5, 0.5])), eps)


def test_typicality_empty_sequence_rejected():
    with pytest.raises(ValueError):
        is_letter_typical([], bernoulli(0.5), 0.1)


def test_typicality_monotone_in_eps():
    rng = np.random.default_rng(RNG_SEED + 11)
    p = Pmf((0, 1, 2), np.array([0.5, 0.3, 0.2]))
    for _ in range(200):
        seq = rng.choice(3, size=10, p=p.probs).tolist()
        flags = [is_letter_typical(seq, p, e) for e in (0.1, 0.3, 0.6, 1.0)]
        for a, b in zip(flags, flags[1:]):
            assert (not a) or b  # typical at eps stays typical at larger eps


# ---------------------------------------------------------------------------
# misc


def test_entropy_of_an_independent_product_adds():
    p = bernoulli(0.25)
    q = uniform(range(3))
    pq = Pmf([(a, b) for a in p.symbols for b in q.symbols], np.outer(p.probs, q.probs).ravel())
    assert entropy(pq) == pytest.approx(entropy(p) + entropy(q), abs=1e-12)
