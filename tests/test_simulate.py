"""Codebook sampling, likelihood encoding, typicality decoding, exact
enumerations, and the Monte Carlo experiments."""
from __future__ import annotations

import dataclasses
import hashlib
import math
import re
import time
import tracemalloc
from itertools import product as iter_product
from pathlib import Path

import numpy as np
import pytest

from identities import random_gp_policy, random_model
from sdwtc import simulate
from sdwtc.cli import _covering_joint, load_channel_spec, load_policy_spec
from sdwtc.models import (
    ERASURE,
    SdWtcModel,
    as_input_policy,
    assemble_joint,
    build_rln_example,
    gp_policy,
    model_from_dict,
)
from sdwtc.prob import (
    Channel,
    JointPmf,
    Pmf,
    bernoulli,
    binary_entropy,
    channel_from_joint,
    inv_binary_entropy,
    is_letter_typical,
    marginalize,
    mutual_information,
)
from sdwtc.rng import derive_seeds
from sdwtc.softcover import best_gamma
from sdwtc.simulate import (
    BinningResult,
    CodeLaw,
    CodeRates,
    Codebook,
    EncoderFailure,
    ReliabilityResult,
    TrialRecord,
    _RANK_TABLE,
    _TRIAL_CHUNK,
    _decode,
    _distinct_words,
    _encode,
    _encoder_weights,
    _fill,
    _inverse_cdf,
    _product_chain,
    _replay_choice,
    _reseeded,
    _seed_words,
    _typical_rows,
    approximation_gap,
    binning_otp_protocol,
    exact_message_channel,
    exact_output_divergence,
    index_count,
    leakage_capacity,
    likelihood_encode,
    run_reliability_experiment,
    sample_codebook,
    typicality_decode,
    wilson_interval,
)

RNG_SEED = 20240822

CHI2_CRIT_1DF_999 = 10.827566170662733  # chi-square(1) quantile at 1 - 1e-3


def bsc_wiretap(q: float, tap: str = "const") -> SdWtcModel:
    """Y = BSC(q)(X) ignoring the state; Z constant or a perfect copy of X."""
    if tap == "const":
        kern = np.zeros((2, 2, 2, 1))
        for x in (0, 1):
            kern[x, :, x, 0] = 1.0 - q
            kern[x, :, 1 - x, 0] = q
        z_axis = ("Z", (0,))
    else:
        kern = np.zeros((2, 2, 2, 2))
        for x in (0, 1):
            kern[x, :, x, x] = 1.0 - q
            kern[x, :, 1 - x, x] = q
        z_axis = ("Z", (0, 1))
    ch = Channel((("X", (0, 1)), ("S", (0, 1))), (("Y", (0, 1)), z_axis), kern)
    return SdWtcModel(state_pmf=bernoulli(0.5), channel=ch)


def uniform_input_policy(model: SdWtcModel):
    """U a singleton, V = X uniform and independent of the state."""
    nx = len(model.x_symbols)
    k = np.zeros((len(model.s_symbols), 1, nx, nx))
    for v in range(nx):
        k[:, 0, v, v] = 1.0 / nx
    return gp_policy(model.s_symbols, (0,), model.x_symbols, model.x_symbols, k)


def chain_covering_setup():
    """U -> V -> W chain used for the divergence-trend checks."""
    bsc02 = np.array([[0.8, 0.2], [0.2, 0.8]])
    bsc01 = np.array([[0.9, 0.1], [0.1, 0.9]])
    mass = 0.5 * bsc02[:, :, None] * bsc01[None, :, :]
    j = JointPmf((("U", (0, 1)), ("V", (0, 1)), ("W", (0, 1))), mass)
    q_u = Pmf((0, 1), np.array([0.5, 0.5]))
    q_v_given_u = Channel((("U", (0, 1)),), (("V", (0, 1)),), bsc02)
    q_w_given_uv = Channel(
        (("U", (0, 1)), ("V", (0, 1))),
        (("W", (0, 1)),),
        np.broadcast_to(bsc01[None, :, :], (2, 2, 2)).copy(),
    )
    q_w = Pmf((0, 1), np.array([0.5, 0.5]))
    return j, q_u, q_v_given_u, q_w_given_uv, q_w


def kernel_law(q_s_uv: Channel, q_x_uvs: Channel) -> CodeLaw:
    """The code law of a joint built from hand-set kernels: (U, V) uniform, Y constant."""
    mass = np.einsum("uvs,uvsx->suvx", q_s_uv.kernel, q_x_uvs.kernel) / q_s_uv.kernel[..., 0].size
    axes = (q_s_uv.out_axes[0], *q_s_uv.in_axes, q_x_uvs.out_axes[0], ("Y", (0,)))
    return CodeLaw.of(JointPmf(axes, mass[..., None]))


def tiny_codebook() -> tuple[Codebook, Channel, CodeLaw]:
    """Fixed n=3 codebook with four (i, j) pairs, its Q_{S|U,V} and its law."""
    q_s_uv = Channel(
        (("U", (0, 1)), ("V", (0, 1))),
        (("S", (0, 1)),),
        np.array([[[0.8, 0.2], [0.5, 0.5]], [[0.3, 0.7], [0.9, 0.1]]]),
    )
    q_x_uvs = Channel(
        (("U", (0, 1)), ("V", (0, 1)), ("S", (0, 1))),
        (("X", (0, 1)),),
        np.full((2, 2, 2, 2), 0.5),
    )
    cb = Codebook(
        n=3,
        r1=0.4,
        r2=0.4,
        r=0.0,
        u_symbols=(0, 1),
        v_symbols=(0, 1),
        u_words=np.array([[0, 0, 1], [1, 0, 1]]),
        v_words=np.array([[[[0, 1, 1]], [[1, 0, 0]]], [[[0, 0, 1]], [[1, 1, 0]]]]),
        seed=0,
    )
    return cb, q_s_uv, kernel_law(q_s_uv, q_x_uvs)


# ---------------------------------------------------------------------------
# index sizes and intervals


def test_index_count_floor_convention():
    assert index_count(10, 0.0) == 1
    assert index_count(4, 0.5) == 4
    assert index_count(3, 0.5) == 2  # floor(2^1.5)
    assert index_count(10, 0.3) == 8  # 2^3 exactly
    with pytest.raises(ValueError):
        index_count(10, -0.1)


@pytest.mark.parametrize("n, rate, message", [
    (1, math.nan, "rates must be finite and nonnegative, got nan"),
    (3, math.inf, "rates must be finite and nonnegative, got inf"),
    (1, 1100.0, "n*rate = 1100.0"),
    (9, 7.0, "n*rate = 63.0"),
])
def test_index_count_refuses_rates_it_cannot_count(n, rate, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        index_count(n, rate)
    assert index_count(1, 62.0) == 2 ** 62


def test_wilson_interval_basics():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(3, 40)
    assert 0.0 <= lo < 3 / 40 < hi <= 1.0
    # z = 0 collapses the interval onto the point estimate
    assert wilson_interval(3, 40, z=0.0) == pytest.approx((0.075, 0.075))
    w_small = np.diff(wilson_interval(5, 50))[0]
    w_large = np.diff(wilson_interval(50, 500))[0]
    assert w_large < w_small


# ---------------------------------------------------------------------------
# codebook sampling


def _boolean_inverse_cdf(rows, draws):
    """The reference sampler: count the cumulative masses (the last set to 1)
    below each draw in one (..., K) boolean tensor, clamped at K - 1."""
    cdf = np.cumsum(rows, axis=-1)
    cdf[..., -1] = 1.0
    idx = (draws[..., None] > cdf).sum(axis=-1)
    return np.minimum(idx, rows.shape[-1] - 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_inverse_cdf_matches_the_boolean_count(k):
    rng = np.random.default_rng(RNG_SEED + k)
    rows = rng.random((5, 1, 1, 7, k))
    rows[rng.random(rows.shape) < 0.3] = 0.0  # zero-mass entries, some whole rows
    rows[0, 0, 0, 0] = 0.0
    rows[0, 0, 0, 0, -1] = 1.0
    rows /= np.where(rows.sum(axis=-1, keepdims=True) > 0, rows.sum(axis=-1, keepdims=True), 1.0)
    draws = rng.random((5, 3, 2, 7))  # a codebook's (N1, N2, M, n) against (N1, 1, 1, n, K)
    cdf = np.cumsum(rows, axis=-1)
    at = rng.integers(0, k, size=draws.shape)
    at_cdf = np.take_along_axis(np.broadcast_to(cdf, draws.shape + (k,)), at[..., None], -1)[..., 0]
    hit = (rng.random(draws.shape) < 0.4) & (at_cdf < 1.0)  # uniforms lie in [0, 1)
    draws[hit] = at_cdf[hit]
    draws[0, 0, 0, :2] = (0.0, np.nextafter(1.0, 0.0))
    got = _inverse_cdf(rows, draws)
    assert got.dtype == np.int64
    assert np.array_equal(got, _boolean_inverse_cdf(rows, draws))
    assert np.array_equal(_inverse_cdf(rows[0, 0, 0], draws[0, 0, 0]),
                          _boolean_inverse_cdf(rows[0, 0, 0], draws[0, 0, 0]))


def _inverse_cdf_by_element(rows, draws):
    """The scalar reference: for each draw, walk its row's cumulative masses
    as Python floats and count the first K - 1 that it exceeds."""
    lead = np.broadcast_shapes(rows.shape[:-1], draws.shape)
    rows = np.broadcast_to(rows, lead + rows.shape[-1:])
    draws = np.broadcast_to(draws, lead)
    out = np.empty(lead, dtype=np.int64)
    for at in np.ndindex(*lead):
        acc, idx = 0.0, 0
        for mass in rows[at][:-1].tolist():
            acc += mass
            idx += float(draws[at]) > acc
        out[at] = idx
    return out


def test_inverse_cdf_edge_sweep_matches_a_loop_over_elements():
    rng = np.random.default_rng(RNG_SEED + 41)
    short = 0
    for case in range(300):
        k = int(rng.integers(1, 11))
        rows = rng.random((int(rng.integers(1, 5)), 1, k)) ** int(rng.integers(1, 4))
        rows[:, :, rng.random(k) < 0.25] = 0.0  # zero-mass columns
        if case % 3 == 0 and k > 1:
            rows[:, :, :] = 1.0 / k  # a sum that can round below 1 (k = 10: 1 - 2^-53)
        rows[rows.sum(axis=-1) == 0.0, -1] = 1.0
        rows /= rows.sum(axis=-1, keepdims=True)
        cdf = np.cumsum(rows, axis=-1)
        draws = rng.random((rows.shape[0], int(rng.integers(1, 7))))
        # draws exactly on cumulative masses below 1, at 0, and just below 1
        at = np.take_along_axis(np.broadcast_to(cdf, draws.shape + (k,)),
                                rng.integers(0, k, size=draws.shape)[..., None], -1)[..., 0]
        on = (rng.random(draws.shape) < 0.5) & (at < 1.0)
        draws[on] = at[on]
        draws[0, 0] = 0.0
        draws[-1, -1] = np.nextafter(1.0, 0.0)
        got = _inverse_cdf(rows, draws)
        assert got.dtype == np.int64
        assert np.array_equal(got, _inverse_cdf_by_element(rows, draws)), case
        # a row whose sum rounds below 1 gives the draws above its sum the last index
        above = draws > cdf[..., -1]
        assert np.all(got[above] == k - 1)
        short += int(above.sum())
    assert short > 0


def _trial_gens(seeds):
    """One generator re-seeded to each seed in turn, as the Monte Carlo runs draw."""
    return _reseeded(np.random.default_rng(0), _seed_words(seeds))


def test_reseeded_states_are_numpys_own_seeding():
    # every Monte Carlo draw rests on this: a numpy that seeds PCG64 otherwise
    # fails here instead of silently moving the outcomes
    edge = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
    for seeds in (edge, derive_seeds(RNG_SEED, 3000)):
        words = _seed_words(seeds)
        assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
        for seed, row in zip(seeds, words):
            assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))
        got = [gen.bit_generator.state for gen in _trial_gens(seeds)]
        assert got == [np.random.PCG64(seed).state for seed in seeds]


def test_reseeded_generator_draws_what_default_rng_draws():
    seeds = derive_seeds(RNG_SEED + 1, 40)
    for seed, gen in zip(seeds, _trial_gens(seeds)):
        lone = np.random.default_rng(seed)
        assert gen.random() == lone.random()
        assert gen.integers(3) == lone.integers(3)
        assert gen.random() == lone.random()
        # a buffered 32-bit half-word, which the next trial's state must drop
        assert gen.bit_generator.state["has_uint32"] == 1


def _choice_laws(rng, k):
    """Seeded laws over k letters with zero-mass and trailing-zero entries."""
    p = rng.random(k)
    p[rng.random(k) < 0.3] = 0.0
    if k >= 3 and k % 2:
        p[-(k // 3):] = 0.0
    p[0] += p.sum() == 0.0
    return p / p.sum()


@pytest.mark.parametrize("k", range(1, 40))
def test_choice_replay_matches_generator_choice(k):
    # the replay reads numpy's own rule for choice(k, p=p); this pins it, and
    # that the generator's next draw is unmoved
    rng = np.random.default_rng(RNG_SEED + 400 + k)
    p = _choice_laws(rng, k)
    for size in (None, 9, (3, 2, 5)):
        seed = int(rng.integers(2 ** 63))
        lone, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        want = lone.choice(k, size=size, p=p)
        got = _replay_choice(p, np.asarray(replay.random(size)))
        if size is None:
            assert int(got) == want
        else:
            assert got.dtype == np.int64 and np.array_equal(got, want)
        assert replay.random() == lone.random()
    # (T, k) rows, one draw each from its own generator
    rows = np.stack([_choice_laws(rng, k) for _ in range(6)])
    seeds = [int(s) for s in rng.integers(2 ** 63, size=6)]
    draws = np.empty((6, 1))
    _fill(_trial_gens(seeds), draws)
    want = [np.random.default_rng(s).choice(k, p=row) for s, row in zip(seeds, rows)]
    assert _replay_choice(rows, draws[:, 0]).tolist() == want


def test_choice_replay_on_draws_that_sit_on_the_cdf():
    # dyadic masses sum exactly, so draws can sit on cdf values; the last law
    # sums to 1 - 2^-40, so only a normalised cdf places the draw 0.5
    for p in (np.array([0.25, 0.5, 0.25]), np.array([0.5, 0.0, 0.25, 0.25, 0.0]),
              np.array([0.125] * 8), np.array([0.5, 0.5 - 2.0 ** -40])):
        cdf = p.cumsum()
        cdf /= cdf[-1]
        draws = np.concatenate([[0.0, 0.5, np.nextafter(1.0, 0.0)], cdf, np.nextafter(cdf, 0.0)])
        draws = draws[draws < 1.0]
        want = cdf.searchsorted(draws, side="right")
        assert np.array_equal(_replay_choice(p, draws), want)
        rows = np.broadcast_to(p, (draws.size, p.size))
        assert np.array_equal(_replay_choice(rows, draws), want)


def test_codebook_degenerate_rates_single_pair():
    q_u = bernoulli(0.3)
    q_v = Channel((("U", (0, 1)),), (("V", (0, 1)),), np.array([[0.9, 0.1], [0.2, 0.8]]))
    cb = sample_codebook(Pmf((0, 1), q_u.probs), q_v, 5, 0.0, 0.0, 0.0, seed=1)
    assert cb.num_u == cb.num_v == cb.num_messages == 1
    assert cb.u_words.shape == (1, 5)
    assert cb.v_words.shape == (1, 1, 1, 5)


def test_codebook_seed_determinism():
    q_u = Pmf((0, 1), np.array([0.4, 0.6]))
    q_v = Channel((("U", (0, 1)),), (("V", (0, 1)),), np.array([[0.7, 0.3], [0.1, 0.9]]))
    a = sample_codebook(q_u, q_v, 6, 0.4, 0.3, 0.2, seed=99)
    b = sample_codebook(q_u, q_v, 6, 0.4, 0.3, 0.2, seed=99)
    c = sample_codebook(q_u, q_v, 6, 0.4, 0.3, 0.2, seed=100)
    assert np.array_equal(a.u_words, b.u_words)
    assert np.array_equal(a.v_words, b.v_words)
    assert not (np.array_equal(a.u_words, c.u_words) and np.array_equal(a.v_words, c.v_words))


_PIN_LAWS = {
    2: (Pmf((0, 1), np.array([0.4, 0.6])),
        Channel((("U", (0, 1)),), (("V", (0, 1)),), np.array([[0.7, 0.3], [0.1, 0.9]]))),
    3: (Pmf(("a", "b", "c"), np.array([0.2, 0.5, 0.3])),
        Channel((("U", ("a", "b", "c")),), (("V", (0, 1, 2)),),
                np.array([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6], [1 / 3, 1 / 3, 1 / 3]]))),
}


@pytest.mark.parametrize("card, n, rates, seed, shape, digest", [
    (2, 6, (0.4, 0.3, 0.2), 99, (5, 3, 2, 6),
     "ab80d02a8fd0cfbb91ab8ec0586cd20cdc69b8f32d1cc60a3e2ff96646962cd0"),
    (2, 1, (0.0, 0.0, 0.0), 3, (1, 1, 1, 1),
     "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"),
    (3, 8, (0.25, 0.5, 0.125), 7, (4, 16, 2, 8),
     "b654cffbe72d7d0ffaa3180f39cbc2ce15454f55fea25920e3879f30189d01f1"),
    # 40 960 and 393 216 outer letters: more than one _TRIAL_CHUNK of draws
    (3, 10, (0.3, 0.6, 0.3), 12345, (8, 64, 8, 10),
     "accb4aa79a52ab3409ff056a497acfb34705ce402cd5ea9a1fb54d57554e762b"),
    (2, 12, (0.5, 0.5, 0.25), 2 ** 40 + 1, (64, 64, 8, 12),
     "7ba84f50770354c68c950efb5c7463edf8c9e6e78dbc42e035a570c59b31b269"),
])
def test_codebook_words_are_pinned(card, n, rates, seed, shape, digest):
    # sha256 of the int64 inner then outer words, as one random((N1, n)) and
    # one random((N1, N2, M, n)) draw from default_rng(seed) gave them
    cb = sample_codebook(*_PIN_LAWS[card], n, *rates, seed)
    assert cb.v_words.shape == shape and cb.u_words.shape == (shape[0], n)
    words = cb.u_words.astype("<i8").tobytes() + cb.v_words.astype("<i8").tobytes()
    assert hashlib.sha256(words).hexdigest() == digest


def test_codebook_inner_word_frequencies():
    # n=8, R1=0.5 -> 16 inner words; per-seed chi-square never rejects at 1e-3
    q_u = Pmf((0, 1), np.array([0.3, 0.7]))
    q_v = Channel((("U", (0, 1)),), (("V", (0, 1)),), np.array([[0.6, 0.4], [0.4, 0.6]]))
    for s in range(100):
        cb = sample_codebook(q_u, q_v, 8, 0.5, 0.0, 0.0, seed=60000 + s)
        assert cb.num_u == 16
        counts = np.bincount(cb.u_words.ravel(), minlength=2)
        expected = counts.sum() * q_u.probs
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < CHI2_CRIT_1DF_999


def test_codebook_size_guard():
    q_u = Pmf((0, 1), np.array([0.5, 0.5]))
    q_v = Channel((("U", (0, 1)),), (("V", (0, 1)),), np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="codebook"):
        sample_codebook(q_u, q_v, 20, 0.9, 0.9, 0.9, seed=0)


def test_codebook_kernel_validation():
    q_u = Pmf((0, 1), np.array([0.5, 0.5]))
    bad_axes = Channel((("A", (0, 1)),), (("V", (0, 1)),), np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        sample_codebook(q_u, bad_axes, 4, 0.5, 0.0, 0.0, seed=0)
    bad_alpha = Channel((("U", (0, 1, 2)),), (("V", (0, 1)),), np.full((3, 2), 0.5))
    with pytest.raises(ValueError):
        sample_codebook(q_u, bad_alpha, 4, 0.5, 0.0, 0.0, seed=0)
    with pytest.raises(ValueError):
        sample_codebook(q_u, Channel((("U", (0, 1)),), (("V", (0, 1)),), np.full((2, 2), 0.5)), 0, 0.0, 0.0, 0.0, seed=0)


# ---------------------------------------------------------------------------
# likelihood encoder


def test_encoder_single_pair_always_selected():
    cb, _, law = tiny_codebook()
    solo = Codebook(
        n=3, r1=0.0, r2=0.0, r=0.0, u_symbols=(0, 1), v_symbols=(0, 1),
        u_words=cb.u_words[:1], v_words=cb.v_words[:1, :1], seed=0,
    )
    for k in range(20):
        i, j, x = likelihood_encode(0, (0, 1, 0), solo, law, seed=k)
        assert (i, j) == (0, 0)
        assert len(x) == 3 and set(x) <= {0, 1}


def test_encoder_skips_zero_likelihood_pair():
    # P(S=0 | u=0, v) = 0, so the state (0,) forces the u=1 row
    q_s_uv = Channel(
        (("U", (0, 1)), ("V", (0,))),
        (("S", (0, 1)),),
        np.array([[[0.0, 1.0]], [[0.5, 0.5]]]),
    )
    q_x_uvs = Channel(
        (("U", (0, 1)), ("V", (0,)), ("S", (0, 1))),
        (("X", (0, 1)),),
        np.full((2, 1, 2, 2), 0.5),
    )
    cb = Codebook(
        n=1, r1=1.0, r2=0.0, r=0.0, u_symbols=(0, 1), v_symbols=(0,),
        u_words=np.array([[0], [1]]), v_words=np.zeros((2, 1, 1, 1), dtype=np.int64),
        seed=0,
    )
    law = kernel_law(q_s_uv, q_x_uvs)
    for k in range(50):
        i, _, _ = likelihood_encode(0, (0,), cb, law, seed=k)
        assert i == 1


def test_encoder_failure_when_state_unreachable():
    q_s_uv = Channel(
        (("U", (0,)), ("V", (0,))), (("S", (0, 1)),), np.array([[[0.0, 1.0]]])
    )
    q_x_uvs = Channel(
        (("U", (0,)), ("V", (0,)), ("S", (0, 1))), (("X", (0,)),), np.ones((1, 1, 2, 1))
    )
    cb = Codebook(
        n=2, r1=0.0, r2=0.0, r=0.0, u_symbols=(0,), v_symbols=(0,),
        u_words=np.zeros((1, 2), dtype=np.int64),
        v_words=np.zeros((1, 1, 1, 2), dtype=np.int64), seed=0,
    )
    with pytest.raises(EncoderFailure):
        likelihood_encode(0, (0, 0), cb, kernel_law(q_s_uv, q_x_uvs), seed=3)


def test_encoder_argument_validation():
    cb, _, law = tiny_codebook()
    with pytest.raises(ValueError, match="message"):
        likelihood_encode(1, (0, 1, 0), cb, law, seed=0)
    with pytest.raises(ValueError, match="length"):
        likelihood_encode(0, (0, 1), cb, law, seed=0)
    with pytest.raises(ValueError, match="alphabet"):
        likelihood_encode(0, (0, 2, 0), cb, law, seed=0)


def test_encoder_selection_frequencies_match_exact_law():
    # tiny instance (n=3, 4 pairs): 1e5 draws vs the exact posterior, 3 sigma,
    # run as one stacked call of the encoder on the one-trial seeds
    cb, q_s_uv, law = tiny_codebook()
    s_seq = (0, 1, 0)
    exact = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            p = 1.0
            for t in range(3):
                p *= q_s_uv.kernel[cb.u_words[i, t], cb.v_words[i, j, 0, t], s_seq[t]]
            exact[i, j] = p
    exact /= exact.sum()

    draws = 100_000
    pick_draws, x_draws = np.empty((draws, 1)), np.empty((draws, 3))
    _fill(_trial_gens([77_000 + k for k in range(draws)]), pick_draws, x_draws)
    stack = lambda a: np.broadcast_to(a, (draws, *a.shape))
    ok, i, j, x_idx = _encode(law, stack(cb.u_words), stack(cb.v_words[:, :, 0]),
                              stack(np.array(s_seq)), pick_draws, x_draws)
    assert ok.all()
    counts = np.zeros((2, 2))
    np.add.at(counts, (i, j), 1)
    ones = int(x_idx.sum())
    for idx in np.ndindex(2, 2):
        p = exact[idx]
        assert abs(counts[idx] - draws * p) <= 3.0 * math.sqrt(draws * p * (1 - p))
    # the input sampler is an unbiased coin here
    assert abs(ones / (3 * draws) - 0.5) < 0.01


def test_one_trial_encoder_and_decoder_are_rows_of_the_core():
    law = CodeLaw.of(assemble_joint(*_two_layer_case()))
    trials, n = 40, 6
    rng = np.random.default_rng(RNG_SEED + 5)
    cbs = [sample_codebook(law.q_u, law.q_v_given_u, n, 0.2, 0.3, 0.4, seed=300 + t)
           for t in range(trials)]
    u = np.stack([cb.u_words for cb in cbs])
    v = np.stack([cb.v_words for cb in cbs])
    m = rng.integers(cbs[0].num_messages, size=trials)
    s = rng.integers(2, size=(trials, n))
    y = rng.integers(2, size=(trials, n))
    seeds = [500 + t for t in range(trials)]
    pick_draws, x_draws = np.empty((trials, 1)), np.empty((trials, n))
    _fill(_trial_gens(seeds), pick_draws, x_draws)
    ok, i, j, x_idx = _encode(law, u, v[np.arange(trials), :, :, m], s, pick_draws, x_draws)
    assert 0 < ok.sum() < trials  # some states have no likelihood under any pair
    flat = _decode(law, u, v, y, 1.0)
    assert 0 < (flat < 0).sum() < trials
    k = 0
    for t, cb in enumerate(cbs):
        if ok[t]:
            want = (int(i[k]), int(j[k]), tuple(x_idx[k].tolist()))
            assert likelihood_encode(int(m[t]), tuple(s[t]), cb, law, seeds[t]) == want
            k += 1
        else:
            with pytest.raises(EncoderFailure):
                likelihood_encode(int(m[t]), tuple(s[t]), cb, law, seeds[t])
        got = typicality_decode(tuple(y[t]), cb, law, 1.0)
        assert got == (ERASURE if flat[t] < 0 else np.unravel_index(flat[t], v.shape[1:4]))


# ---------------------------------------------------------------------------
# typicality decoder


def _uvy_pmf(q_uvy):
    """The (U, V, Y) marginal as one Pmf over (u, v, y) letters, for _scan_decode."""
    order = [q_uvy.names.index(a) for a in ("U", "V", "Y")]
    mass = np.transpose(q_uvy.mass, order)
    symbols = tuple(iter_product(q_uvy.alphabet("U"), q_uvy.alphabet("V"), q_uvy.alphabet("Y")))
    return Pmf(symbols, mass.ravel())


def _codewords(cb):
    """Each codeword of a codebook as ((i, j, m), its u letters, its v
    letters), for _scan_decode."""
    u_words, v_words = cb.u_words.tolist(), cb.v_words.tolist()
    return [((i, j, m), [cb.u_symbols[u] for u in u_words[i]], [cb.v_symbols[v] for v in v_words[i][j][m]])
            for i in range(cb.num_u) for j in range(cb.num_v) for m in range(cb.num_messages)]


def _scan_decode(y, codewords, flat, eps):
    """Brute-force reference: test every triple with is_letter_typical
    against the flat (U, V, Y) Pmf of _uvy_pmf, codewords from _codewords."""
    try:
        hits = [ijm for ijm, u_letters, v_letters in codewords
                if is_letter_typical(tuple(zip(u_letters, v_letters, y)), flat, eps)]
    except ValueError:  # a bad eps or an empty word: every codeword alike is refused
        hits = []
    return hits[0] if len(hits) == 1 else ERASURE


@pytest.mark.parametrize("rows, k, n", [(1, 3, 1), (64, 8, 6), (500, 12, 12)])
def test_typical_rows_match_the_per_row_count(rows, k, n):
    rng = np.random.default_rng(RNG_SEED + rows)
    probs = rng.dirichlet(np.ones(k))
    probs[0] = 0.0  # a letter off the support must not occur in a typical row
    probs /= probs.sum()
    codes = rng.integers(0, k, size=(rows, n))
    for eps in (0.0, 0.3, 1.25):
        want = [
            not np.any(np.abs(np.bincount(row, minlength=k) / n - probs) > eps * probs)
            for row in codes
        ]
        assert _typical_rows(codes, probs, eps, n).tolist() == want


def test_decoder_matches_full_scan():
    model = bsc_wiretap(0.11)
    policy = uniform_input_policy(model)
    joint = assemble_joint(model, policy)
    flat = _uvy_pmf(marginalize(joint, ("U", "V", "Y")))
    law = CodeLaw.of(joint)

    rng = np.random.default_rng(RNG_SEED)
    agreements = 0
    for trial in range(60):
        seed = int(rng.integers(2**31))
        cb = sample_codebook(law.q_u, law.q_v_given_u, 6, 0.3, 0.3, 0.3, seed=seed)
        words = _codewords(cb)
        for _ in range(5):
            y = tuple(rng.integers(0, 2, size=6).tolist())
            eps = float(rng.choice([0.2, 0.5, 0.9, 1.2]))
            assert typicality_decode(y, cb, law, eps) == _scan_decode(y, words, flat, eps)
            agreements += 1
    assert agreements == 300


def test_decoder_unique_exact_word():
    model = bsc_wiretap(0.0)
    policy = uniform_input_policy(model)
    law = CodeLaw.of(assemble_joint(model, policy))
    cb = Codebook(
        n=4, r1=0.0, r2=0.0, r=0.0, u_symbols=(0,), v_symbols=(0, 1),
        u_words=np.zeros((1, 4), dtype=np.int64),
        v_words=np.array([0, 1, 1, 0]).reshape(1, 1, 1, 4), seed=0,
    )
    assert typicality_decode((0, 1, 1, 0), cb, law, 1.0) == (0, 0, 0)


def test_decoder_erases_on_ambiguity_and_unknown_symbols():
    model = bsc_wiretap(0.0)
    policy = uniform_input_policy(model)
    law = CodeLaw.of(assemble_joint(model, policy))
    word = np.array([0, 1, 1, 0])
    cb = Codebook(
        n=4, r1=0.0, r2=0.25, r=0.0, u_symbols=(0,), v_symbols=(0, 1),
        u_words=np.zeros((1, 4), dtype=np.int64),
        v_words=np.stack([word, word]).reshape(1, 2, 1, 4), seed=0,
    )
    assert typicality_decode((0, 1, 1, 0), cb, law, 1.0) == ERASURE
    assert typicality_decode((0, 1, 1, 7), cb, law, 1.0) == ERASURE


def test_decoder_argument_validation():
    model = bsc_wiretap(0.0)
    policy = uniform_input_policy(model)
    joint = assemble_joint(model, policy)
    law = CodeLaw.of(joint)
    cb = Codebook(
        n=4, r1=0.0, r2=0.0, r=0.0, u_symbols=(0,), v_symbols=(0, 1),
        u_words=np.zeros((1, 4), dtype=np.int64),
        v_words=np.zeros((1, 1, 1, 4), dtype=np.int64), seed=0,
    )
    with pytest.raises(ValueError, match="joint"):
        typicality_decode((0, 0, 0, 0), cb, CodeLaw.of(marginalize(joint, ("U", "V", "Z"))), 0.5)
    with pytest.raises(ValueError, match="length"):
        typicality_decode((0, 0), cb, law, 0.5)
    for eps in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
            typicality_decode((0, 0, 0, 0), cb, law, eps)


# ---------------------------------------------------------------------------
# exact output divergence


def test_divergence_zero_for_constant_kernel():
    q_w = Pmf((0, 1), np.array([0.35, 0.65]))
    kernel = Channel(
        (("U", (0, 1)), ("V", (0, 1))),
        (("W", (0, 1)),),
        np.broadcast_to(q_w.probs, (2, 2, 2)).copy(),
    )
    q_u = Pmf((0, 1), np.array([0.5, 0.5]))
    q_v = Channel((("U", (0, 1)),), (("V", (0, 1)),), np.full((2, 2), 0.5))
    cb = sample_codebook(q_u, q_v, 5, 0.4, 0.4, 0.0, seed=8)
    assert exact_output_divergence(cb, kernel, q_w) <= 1e-12


def test_divergence_zero_for_exhaustive_codebook():
    # v-words enumerate every sequence once; W copies V; target is uniform
    n = 4
    words = np.array(list(iter_product((0, 1), repeat=n)))
    cb = Codebook(
        n=n, r1=0.0, r2=1.0, r=0.0, u_symbols=(0,), v_symbols=(0, 1),
        u_words=np.zeros((1, n), dtype=np.int64),
        v_words=words.reshape(1, 16, 1, n), seed=0,
    )
    copy_v = Channel(
        (("U", (0,)), ("V", (0, 1))), (("W", (0, 1)),), np.eye(2)[None, :, :].copy()
    )
    assert exact_output_divergence(cb, copy_v, Pmf((0, 1), np.array([0.5, 0.5]))) <= 1e-12


def test_divergence_single_word_deterministic_channel():
    word = (0, 1, 0, 1)
    cb = Codebook(
        n=4, r1=0.0, r2=0.0, r=0.0, u_symbols=(0,), v_symbols=(0, 1),
        u_words=np.zeros((1, 4), dtype=np.int64),
        v_words=np.array(word).reshape(1, 1, 1, 4), seed=0,
    )
    copy_v = Channel(
        (("U", (0,)), ("V", (0, 1))), (("W", (0, 1)),), np.eye(2)[None, :, :].copy()
    )
    q_w = Pmf((0, 1), np.array([0.3, 0.7]))
    expected = sum(math.log2(1.0 / q_w.probs[w]) for w in word)
    assert exact_output_divergence(cb, copy_v, q_w) == pytest.approx(expected, abs=1e-12)


def test_divergence_trend_with_covering_margins():
    j, q_u, q_v_given_u, q_w_given_uv, q_w = chain_covering_setup()
    r1 = mutual_information(j, ("U",), ("W",)) + 0.45
    r2 = mutual_information(j, ("U", "V"), ("W",)) + 0.45 - r1
    medians = {}
    for n in (4, 10):
        ds = [
            exact_output_divergence(
                sample_codebook(q_u, q_v_given_u, n, r1, r2, 0.0, 5000 + s),
                q_w_given_uv,
                q_w,
            )
            for s in range(20)
        ]
        medians[n] = float(np.median(ds))
    assert medians[10] < medians[4]


def test_divergence_guards_and_validation():
    q_w = Pmf((0, 1), np.array([0.5, 0.5]))
    copy_v = Channel(
        (("U", (0,)), ("V", (0, 1))), (("W", (0, 1)),), np.eye(2)[None, :, :].copy()
    )
    big = Codebook(
        n=30, r1=0.0, r2=0.0, r=0.0, u_symbols=(0,), v_symbols=(0, 1),
        u_words=np.zeros((1, 30), dtype=np.int64),
        v_words=np.zeros((1, 1, 1, 30), dtype=np.int64), seed=0,
    )
    with pytest.raises(ValueError, match="enumeration"):
        exact_output_divergence(big, copy_v, q_w)
    small = Codebook(
        n=2, r1=0.0, r2=0.0, r=0.0, u_symbols=(0,), v_symbols=(0, 1),
        u_words=np.zeros((1, 2), dtype=np.int64),
        v_words=np.zeros((1, 1, 1, 2), dtype=np.int64), seed=0,
    )
    bad_inputs = Channel((("A", (0,)), ("V", (0, 1))), (("W", (0, 1)),), np.eye(2)[None].copy())
    with pytest.raises(ValueError):
        exact_output_divergence(small, bad_inputs, q_w)
    mismatched = Pmf((0, 1, 2), np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ValueError):
        exact_output_divergence(small, copy_v, mismatched)


def per_codeword_output_divergence(cb, q_w_given_uv, q_w):
    """The reference formulation: each codeword's product law over the two
    halves, averaged in one matrix product A B^T / Ncw over all codewords."""
    u = np.broadcast_to(cb.u_words[:, None, None, :], cb.v_words.shape).reshape(-1, cb.n)
    rows = q_w_given_uv.kernel[u, cb.v_words.reshape(-1, cb.n)]  # (Ncw, n, |W|)
    h = cb.n // 2
    induced = (_product_chain(rows[:, :h]) @ _product_chain(rows[:, h:]).T).ravel() / len(rows)
    reference = _product_chain(q_w.probs[None, None, :].repeat(cb.n, axis=1))[:, 0]
    mask = induced > 1e-300
    return max(0.0, float(np.sum(induced[mask] * np.log2(induced[mask] / reference[mask]))))


@pytest.mark.parametrize("p, width, rows", [
    (2, 5, 400), (3, 1, 9), (40, 13, 300), (7, 30, 200), (5, 0, 6), (4, 3, 1),
])
def test_distinct_words_partition_matches_numpy_unique(p, width, rows):
    # 40^13 and 7^30 exceed 2^63, so the keys are re-ranked on the way
    rng = np.random.default_rng(RNG_SEED + 100 * p + width)
    codes = rng.integers(0, p, size=(rows, width))
    codes = codes[rng.integers(0, rows, size=rows)]  # repeated rows
    codes[: rows // 2, : width // 2] = 0  # shared prefixes
    words, index = _distinct_words(codes, p)
    want, want_index = np.unique(codes, axis=0, return_inverse=True)
    assert words.shape == want.shape and np.array_equal(words, want)
    assert np.array_equal(index, want_index.ravel())


def test_distinct_words_edge_sweep_matches_numpy_unique():
    rng = np.random.default_rng(RNG_SEED + 42)
    checked = 0
    for p in (1, 2, 3, 5, 40, 2 ** 20, 2 ** 31):
        letters = 0  # the most letters whose keys stay below 2^62 without re-ranking
        while p > 1 and p ** (letters + 1) <= 2 ** 62:
            letters += 1
        widths = {1, 2, 70} if p == 1 else {letters, letters + 1, letters + 2, 2 * letters + 3}
        for width in sorted(widths):
            for rows in (1, 2, 50):
                codes = rng.integers(0, p, size=(rows, width))
                for case in (codes, codes[rng.integers(0, rows, size=rows)], np.repeat(codes[:1], rows, axis=0)):
                    words, index = _distinct_words(case, p)
                    want, want_index = np.unique(case, axis=0, return_inverse=True)
                    assert words.shape == want.shape and np.array_equal(words, want), (p, width, rows)
                    assert np.array_equal(index, want_index.ravel()), (p, width, rows)
                    checked += 1
    assert checked == 3 * 3 * (3 + 6 * 4)


def _spy(monkeypatch, name: str) -> list:
    """Record what each np.<name> call returns until monkeypatch.undo()."""
    real, seen = getattr(np, name), []

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(np, name, spy)
    return seen


@pytest.mark.parametrize("rows", [1, 7])
def test_distinct_words_count_up_to_the_table_bound(monkeypatch, rows):
    # key spaces one below, at and one above _RANK_TABLE rows, then p = 1,
    # width 0 and a wide binary word, re-ranked on the way; only an alphabet
    # wider than the bound sorts
    limit = _RANK_TABLE * rows
    rng = np.random.default_rng(RNG_SEED + rows)
    for p, width in ((limit - 1, 1), (limit, 1), (limit + 1, 1), (1, 3), (5, 0), (2, 40)):
        codes = rng.integers(0, p, size=(rows, width))
        sorts = _spy(monkeypatch, "unique")
        words, index = _distinct_words(codes, p)
        monkeypatch.undo()
        want, want_index = np.unique(codes, axis=0, return_inverse=True)
        assert words.shape == want.shape and np.array_equal(words, want), (p, width)
        assert np.array_equal(index, want_index.ravel()), (p, width)
        assert bool(sorts) == (width > 0 and p > limit), (p, width)


def test_output_divergence_counts_pairs_as_numpy_unique(monkeypatch):
    rng = np.random.default_rng(RNG_SEED + 77)
    for _ in range(12):
        card_u, card_v, card_w, n = (int(x) for x in rng.integers((1, 1, 2, 1), (4, 4, 4, 9)))
        q_u = Pmf(tuple(range(card_u)), _random_kernel(rng, card_u))
        q_v = Channel((("U", q_u.symbols),), (("V", tuple(range(card_v))),),
                      _random_kernel(rng, (card_u, card_v)))
        q_w_given_uv = Channel((("U", q_u.symbols), ("V", tuple(range(card_v)))),
                               (("W", tuple(range(card_w))),), _random_kernel(rng, (card_u, card_v, card_w)))
        q_w = Pmf(tuple(range(card_w)), _random_kernel(rng, card_w))
        cb = sample_codebook(q_u, q_v, n, *rng.uniform(0.2, 0.8, size=2), 0.0, seed=int(rng.integers(100)))
        counted = _spy(monkeypatch, "bincount")
        exact_output_divergence(cb, q_w_given_uv, q_w)
        monkeypatch.undo()
        uv = simulate._uv_codes(cb).reshape(-1, n)
        _, ia = np.unique(uv[:, : n // 2], axis=0, return_inverse=True)
        second, ib = np.unique(uv[:, n // 2:], axis=0, return_inverse=True)
        _, want = np.unique(ia.ravel() * len(second) + ib.ravel(), return_counts=True)
        assert len(counted) == 1 and np.array_equal(counted[0], want)


def test_bench_codebooks_rank_their_words_without_sorting(monkeypatch):
    # softcov-sim at n = 10: 32 keys per half in 16 384 codewords; the leakage
    # job at n = 8: 256 keys in each message's 588 pairs
    model = load_channel_spec(str(_FIXTURES / "wiretap.json"))
    policy = as_input_policy(model, load_policy_spec(str(_FIXTURES / "x_given_s.json"), model))
    joint = assemble_joint(model, policy)
    cover = _covering_joint(joint, "S")
    law = CodeLaw.of(joint)
    cb = sample_codebook(law.q_u, law.q_v_given_u, 10, 0.7, 0.7, 0.0, derive_seeds(11, 1)[0])
    assert cb.num_u * cb.num_v * cb.num_messages == 16384
    q_w = marginalize(cover, ("W",)).as_pmf()
    sorts = _spy(monkeypatch, "unique")
    exact_output_divergence(cb, channel_from_joint(cover, ("U", "V"), ("W",)), q_w)
    model, policy, cb = bench_code(8, 7100)
    exact_message_channel(model, policy, cb)
    assert sorts == []


def _random_kernel(rng, shape):
    k = rng.random(shape) + 0.05
    return k / k.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("card_u, card_v, card_w, r", [(2, 2, 2, 0.7), (4, 4, 3, 0.4)])
def test_output_divergence_matches_the_per_codeword_product(n, card_u, card_v, card_w, r):
    # (2, 2): at most 2^h distinct half-words; (4, 4): nearly every half distinct
    rng = np.random.default_rng(RNG_SEED + 10 * n + card_u)
    q_u = Pmf(tuple(range(card_u)), _random_kernel(rng, card_u))
    q_v = Channel((("U", q_u.symbols),), (("V", tuple(range(card_v))),),
                  _random_kernel(rng, (card_u, card_v)))
    q_w_given_uv = Channel((("U", q_u.symbols), ("V", tuple(range(card_v)))),
                           (("W", tuple(range(card_w))),), _random_kernel(rng, (card_u, card_v, card_w)))
    q_w = Pmf(tuple(range(card_w)), _random_kernel(rng, card_w))
    for seed, (r1, r2) in enumerate([(r, r), (0.0, 0.0)]):  # the second holds one codeword
        cb = sample_codebook(q_u, q_v, n, r1, r2, 0.0, seed=n + seed)
        got = exact_output_divergence(cb, q_w_given_uv, q_w)
        assert got == pytest.approx(per_codeword_output_divergence(cb, q_w_given_uv, q_w),
                                    rel=0, abs=1e-12)


def test_output_divergence_of_the_exhaustive_codebook_matches_the_per_codeword_product():
    # every (u, v) pair sequence once, over a noisy kernel
    n = 6
    rng = np.random.default_rng(RNG_SEED)
    words = np.array(list(iter_product(range(4), repeat=n)))  # pair codes u * 2 + v
    cb = Codebook(
        n=n, r1=2.0, r2=0.0, r=0.0, u_symbols=(0, 1), v_symbols=(0, 1),
        u_words=words // 2, v_words=(words % 2).reshape(-1, 1, 1, n), seed=0,
    )
    q_w_given_uv = Channel((("U", (0, 1)), ("V", (0, 1))), (("W", (0, 1, 2)),),
                           _random_kernel(rng, (2, 2, 3)))
    q_w = Pmf((0, 1, 2), _random_kernel(rng, 3))
    assert exact_output_divergence(cb, q_w_given_uv, q_w) == pytest.approx(
        per_codeword_output_divergence(cb, q_w_given_uv, q_w), rel=0, abs=1e-12)


# ---------------------------------------------------------------------------
# exact enumerations against the dense product chain


def _dense_chain(rows):
    """(C, n, K) per-letter rows -> (C, K^n) product laws, lexicographic."""
    cur = np.ones((rows.shape[0], 1))
    for t in range(rows.shape[1]):
        cur = (cur[:, :, None] * rows[:, t, None, :]).reshape(rows.shape[0], -1)
    return cur


def dense_message_channel(model, policy, cb):
    """P(z^n | m) as one chain per (pair, state sequence); a state sequence
    no pair supports weighs every pair alike."""
    joint = assemble_joint(model, policy)
    k_s = channel_from_joint(joint, ("U", "V"), ("S",)).kernel
    k_x = channel_from_joint(joint, ("U", "V", "S"), ("X",)).kernel
    k_z = np.einsum("uvsx,xsz->uvsz", k_x, model.channel.kernel.sum(axis=2))
    n_s, n_z = k_z.shape[2:]
    s_seqs = np.array(list(iter_product(range(n_s), repeat=cb.n)))  # (Ns, n)
    ws = model.state_pmf.probs[s_seqs].prod(axis=1)
    u = np.broadcast_to(cb.u_words[:, None, None, :], cb.v_words.shape[:2] + (1, cb.n))
    kernel = []
    for m in range(cb.num_messages):
        v = cb.v_words[:, :, None, m, :]
        lik = k_s[u, v, s_seqs].prod(axis=-1)  # (N1, N2, Ns)
        norm = lik.sum(axis=(0, 1))
        p_hat = np.where(norm > 0.0, lik / np.where(norm > 0.0, norm, 1.0), 1.0 / lik[..., 0].size)
        weights = (p_hat * ws).ravel()
        kernel.append(weights @ _dense_chain(k_z[u, v, s_seqs].reshape(-1, cb.n, n_z)))
    return np.array(kernel)


def dense_output_divergence(cb, q_w_given_uv, q_w):
    """D(P_W^(B) || Q_W^n) from one chain per codeword; positive kernels only."""
    u = np.broadcast_to(cb.u_words[:, None, None, :], cb.v_words.shape).reshape(-1, cb.n)
    induced = _dense_chain(q_w_given_uv.kernel[u, cb.v_words.reshape(-1, cb.n)]).mean(axis=0)
    reference = _dense_chain(q_w.probs[None, None, :].repeat(cb.n, axis=1))[0]
    return float(np.sum(induced * np.log2(induced / reference)))


@pytest.mark.parametrize("n_s, n_z", [(3, 2), (2, 3)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exact_enumerations_match_the_dense_chain(n, n_s, n_z):
    rng = np.random.default_rng(RNG_SEED + 10 * n + n_s)
    model = random_model(rng, ns=n_s, nx=2, ny=2, nz=n_z)
    policy = random_gp_policy(rng, model, cu=2, cv=3)
    joint = assemble_joint(model, policy)
    law = CodeLaw.of(joint)
    cb = sample_codebook(law.q_u, law.q_v_given_u, n, 1.0 / n, 1.6 / n, 1.0 / n, seed=n)
    assert (cb.num_u, cb.num_v, cb.num_messages) == (2, 3, 2)

    kernel = exact_message_channel(model, policy, cb).kernel
    assert kernel.shape == (2, n_z ** n)
    np.testing.assert_allclose(kernel, dense_message_channel(model, policy, cb), rtol=0, atol=1e-12)
    np.testing.assert_allclose(kernel.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    q_z_given_uv = channel_from_joint(joint, ("U", "V"), ("Z",))
    q_z = Pmf(joint.alphabet("Z"), marginalize(joint, ("Z",)).mass)
    assert exact_output_divergence(cb, q_z_given_uv, q_z) == pytest.approx(
        dense_output_divergence(cb, q_z_given_uv, q_z), rel=0, abs=1e-12
    )


def test_message_channel_guard_counts_the_letter_contraction():
    # sum_t 2^(n-t+1) 2^t = n 2^(n+1) operations trip the guard, while
    # approximation_gap's count, n 2^n, would not; the check comes before any allocation
    model = bsc_wiretap(0.1, tap="copy")
    n = 22
    cb = Codebook(
        n=n, r1=0.0, r2=0.0, r=0.0, u_symbols=(0,), v_symbols=(0, 1),
        u_words=np.zeros((1, n), dtype=np.int64),
        v_words=np.zeros((1, 1, 1, n), dtype=np.int64), seed=0,
    )
    assert n * 2 ** n <= 10 ** 8 < n * 2 ** (n + 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"enumeration needs ~{n * 2 ** (n + 1)} operations"):
            exact_message_channel(model, uniform_input_policy(model), cb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_encoder_weights_match_the_masked_normalisation():
    # V copies S, so a state sequence off every codeword has no likelihood and
    # its weights fall back to uniform over the four pairs
    model = bsc_wiretap(0.1, tap="copy")
    k = np.zeros((2, 1, 2, 2))
    for s in (0, 1):
        k[s, 0, s, :] = 0.5
    law = CodeLaw.of(assemble_joint(model, gp_policy((0, 1), (0,), (0, 1), (0, 1), k)))
    v = np.array([[0, 0, 1], [0, 1, 1], [0, 1, 0], [0, 0, 0]])
    cb = Codebook(
        n=3, r1=0.0, r2=2 / 3, r=1 / 3, u_symbols=(0,), v_symbols=(0, 1),
        u_words=np.zeros((1, 3), dtype=np.int64),
        v_words=np.stack([v, v[::-1]], axis=1)[None], seed=0,
    )
    ws, codes = simulate._state_law(model, 3), simulate._uv_codes(cb)
    unsupported = 0
    # the second message's words stand for 1, 2, 3 and 2 of eight pairs
    for m, counts in ((0, np.ones(4)), (1, np.array([1.0, 2.0, 3.0, 2.0]))):
        lik = _product_chain(law.log_q_s_given_uv.reshape(-1, 2)[codes[0, :, m]], np.add)  # (8, 4)
        top = lik.max(axis=1, keepdims=True)
        w = np.exp(lik - np.where(np.isneginf(top), 0.0, top)) * counts
        norm = w.sum(axis=1, keepdims=True)
        want = np.where(norm > 0.0, w * (ws / np.where(norm > 0.0, norm, 1.0)),
                        ws * (counts / counts.sum()))
        unsupported += np.isneginf(top).sum()
        assert np.array_equal(_encoder_weights(lik, counts, ws, int(counts.sum())), want)
    assert unsupported == 2 * 4  # s_1 = 1 in both messages


def test_message_channel_over_repeated_words_matches_the_dense_chain():
    # 12 pairs per message over at most 6 distinct (u, v) words (2 inner words,
    # 3 outer rows); where u = 0, V copies S, so most state sequences match no
    # pair and fall back to uniform weights
    model = bsc_wiretap(0.1, tap="copy")
    k = np.zeros((2, 2, 2, 2))
    for s in (0, 1):
        k[s, 0, s] = 0.5 * np.array([0.8, 0.2] if s == 0 else [0.2, 0.8])
        for v in (0, 1):
            k[s, 1, v] = 0.5 * (0.7 if v == s else 0.3) * np.array([0.5, 0.5])
    policy = gp_policy((0, 1), (0, 1), (0, 1), (0, 1), k)
    law = CodeLaw.of(assemble_joint(model, policy))
    pool = np.array([[0, 0, 1, 1], [1, 0, 1, 0], [1, 1, 1, 1]])
    pick = np.random.default_rng(RNG_SEED).integers(0, 3, size=(2, 6, 2))
    cb = Codebook(
        n=4, r1=0.25, r2=math.log2(6) / 4, r=0.25, u_symbols=(0, 1), v_symbols=(0, 1),
        u_words=np.array([[0, 0, 0, 0], [0, 1, 0, 1]]), v_words=pool[pick], seed=0,
    )
    codes = simulate._uv_codes(cb)
    for m in range(2):
        lik = _product_chain(law.log_q_s_given_uv.reshape(-1, 2)[codes[:, :, m].reshape(-1, 4)], np.add)
        # at least half of the 16 state sequences match no pair
        assert np.isneginf(lik.max(axis=1)).sum() >= 8
        assert len(np.unique(codes[:, :, m].reshape(-1, 4), axis=0)) <= 6

    kernel = exact_message_channel(model, policy, cb).kernel
    np.testing.assert_allclose(kernel, dense_message_channel(model, policy, cb), rtol=0, atol=1e-12)
    np.testing.assert_allclose(kernel.sum(axis=1), 1.0, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# induced vs idealized joints


def _correlated_state_policy(model: SdWtcModel):
    """U a singleton; V tracks S with fidelity 0.8; X = V."""
    k = np.zeros((2, 1, 2, 2))
    for s in (0, 1):
        for v in (0, 1):
            k[s, 0, v, v] = 0.8 if v == s else 0.2
    return gp_policy((0, 1), (0,), (0, 1), (0, 1), k)


def test_approximation_gap_normalization_and_structure():
    model = bsc_wiretap(0.0)
    policy = _correlated_state_policy(model)
    law = CodeLaw.of(assemble_joint(model, policy))
    cb = sample_codebook(law.q_u, law.q_v_given_u, 4, 0.0, 0.75, 0.25, seed=5)
    res = approximation_gap(model, policy, cb)
    assert res.induced.sum() == pytest.approx(1.0, abs=1e-10)
    assert res.idealized.sum() == pytest.approx(1.0, abs=1e-10)
    assert all(0.0 <= tv <= 1.0 for tv in res.per_message)
    assert res.total_variation == pytest.approx(float(np.mean(res.per_message)), abs=1e-12)
    m = len(res.per_message)
    assert res.tv_under([1.0 / m] * m) == pytest.approx(res.total_variation, abs=1e-12)
    point = [0.0] * m
    point[0] = 1.0
    assert res.tv_under(point) == pytest.approx(res.per_message[0], abs=1e-12)
    with pytest.raises(ValueError):
        res.tv_under([1.0] * (m + 1))
    with pytest.raises(ValueError):
        res.tv_under([0.7] * m)
    assert m == 2
    for bad in ([1.5, -0.5], [math.nan, math.nan], [math.inf, -math.inf], [math.inf, 0.0]):
        with pytest.raises(ValueError, match="p_m must be a distribution"):
            res.tv_under(bad)


def test_approximation_gap_single_pair_oracle():
    # single (u, v) pair: induced S-marginal is W_S^n, idealized is Q_{S|u,v}^n
    model = bsc_wiretap(0.0)
    policy = _correlated_state_policy(model)
    law = CodeLaw.of(assemble_joint(model, policy))
    cb = sample_codebook(law.q_u, law.q_v_given_u, 4, 0.0, 0.0, 0.0, seed=11)
    res = approximation_gap(model, policy, cb)
    expected = 0.0
    for k in range(5):
        expected += math.comb(4, k) * abs(0.5**4 - 0.8**k * 0.2 ** (4 - k))
    expected *= 0.5
    assert res.total_variation == pytest.approx(expected, rel=1e-10)
    assert res.total_variation > 0.25


def dense_approximation_gap(model, policy, cb):
    """The induced and idealized (M, N1, N2, Ns) joints and the per-message
    TVs from one chain per (pair, state sequence); a state sequence no pair
    supports weighs every pair alike."""
    k_s = channel_from_joint(assemble_joint(model, policy), ("U", "V"), ("S",)).kernel
    s_seqs = np.array(list(iter_product(range(k_s.shape[2]), repeat=cb.n)))  # (Ns, n)
    ws = model.state_pmf.probs[s_seqs].prod(axis=1)
    u = np.broadcast_to(cb.u_words[:, None, None, :], cb.v_words.shape[:2] + (1, cb.n))
    m_count, pairs = cb.num_messages, cb.num_u * cb.num_v
    induced, idealized = [], []
    for m in range(m_count):
        lik = k_s[u, cb.v_words[:, :, None, m, :], s_seqs].prod(axis=-1)  # (N1, N2, Ns)
        norm = lik.sum(axis=(0, 1))
        p_hat = np.where(norm > 0.0, lik / np.where(norm > 0.0, norm, 1.0), 1.0 / pairs)
        induced.append(p_hat * ws / m_count)
        idealized.append(lik / (pairs * m_count))
    induced, idealized = np.array(induced), np.array(idealized)
    return induced, idealized, 0.5 * np.abs(induced - idealized).sum(axis=(1, 2, 3)) * m_count


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("n_s", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_approximation_gap_matches_the_dense_chain(n, n_s, sparse):
    # four pairs per message over three words; a sparse policy leaves state
    # sequences that no pair supports
    rng = np.random.default_rng(RNG_SEED + 10 * n + n_s + 100 * sparse)
    model = random_model(rng, ns=n_s, nx=2, ny=2, nz=2)
    k = rng.dirichlet(np.ones(4), size=n_s).reshape(n_s, 1, 2, 2)
    if sparse:
        k[np.arange(n_s), 0, (np.arange(n_s) + 1) % 2] = 0.0  # V is never the parity flip of S
        k /= k.sum(axis=(1, 2, 3), keepdims=True)
    policy = gp_policy(model.s_symbols, (0,), (0, 1), model.x_symbols, k)
    cb = repeated_word_codebook(n, rng.integers(0, 2, size=(3, n)), rng.integers(0, 3, size=(4, 2)))
    res = approximation_gap(model, policy, cb)
    induced, idealized, per_message = dense_approximation_gap(model, policy, cb)
    assert res.induced.shape == induced.shape == (2, 1, 4, n_s ** n)
    np.testing.assert_allclose(res.induced, induced, rtol=0, atol=1e-15)
    np.testing.assert_allclose(res.idealized, idealized, rtol=0, atol=1e-15)
    np.testing.assert_allclose(res.per_message, per_message, rtol=0, atol=1e-15)
    assert res.total_variation == pytest.approx(per_message.mean(), rel=0, abs=1e-15)


def test_approximation_gap_guard_counts_every_pair():
    # M N1 N2 |S|^n n over every pair, though the five pairs share two words;
    # refused before any table is built
    model = bsc_wiretap(0.1, tap="copy")
    n = 20
    assert 4 * n * 2 ** n <= 10 ** 8 < 5 * n * 2 ** n
    words = np.array([np.arange(n) % 2, np.arange(n) // 3 % 2])
    cb = repeated_word_codebook(n, words, np.array([[0], [1], [0], [1], [0]]))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"enumeration needs ~{5 * n * 2 ** n} operations"):
            approximation_gap(model, uniform_input_policy(model), cb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_approximation_gap_shrinks_with_huge_rates():
    model = bsc_wiretap(0.0)
    policy = _correlated_state_policy(model)
    law = CodeLaw.of(assemble_joint(model, policy))
    tvs = []
    for s in range(5):
        cb = sample_codebook(law.q_u, law.q_v_given_u, 4, 0.0, 2.4, 0.0, seed=21 + s)
        tvs.append(approximation_gap(model, policy, cb).total_variation)
    assert float(np.median(tvs)) < 0.05


# ---------------------------------------------------------------------------
# exact leakage


def test_leakage_zero_when_tap_is_constant():
    model = bsc_wiretap(0.1, tap="const")
    policy = uniform_input_policy(model)
    law = CodeLaw.of(assemble_joint(model, policy))
    cb = sample_codebook(law.q_u, law.q_v_given_u, 4, 0.0, 0.0, 0.25, seed=2)
    ch = exact_message_channel(model, policy, cb)
    assert ch.in_names == ("M",) and ch.out_names == ("Zn",)
    assert ch.kernel.shape[0] == cb.num_messages
    cap = leakage_capacity(ch)
    assert cap.bits <= 1e-9
    assert cap.upper - cap.lower <= 1e-9


def test_leakage_full_bit_when_tap_copies_distinct_words():
    model = bsc_wiretap(0.0, tap="copy")
    policy = uniform_input_policy(model)
    law = CodeLaw.of(assemble_joint(model, policy))
    cb = sample_codebook(law.q_u, law.q_v_given_u, 4, 0.0, 0.0, 0.25, seed=7)
    assert not np.array_equal(cb.v_words[0, 0, 0], cb.v_words[0, 0, 1])
    cap = leakage_capacity(exact_message_channel(model, policy, cb))
    assert cap.bits == pytest.approx(1.0, abs=1e-9)
    assert cap.bits <= math.log2(cb.num_messages) + 1e-12


def test_leakage_capacity_identity_and_independence():
    ident = Channel((("M", (0, 1)),), (("Z", (0, 1)),), np.eye(2))
    assert leakage_capacity(ident).bits == pytest.approx(1.0, abs=1e-9)
    flat = Channel((("M", (0, 1, 2)),), (("Z", (0, 1)),), np.full((3, 2), 0.5))
    assert leakage_capacity(flat).bits <= 1e-9


def test_leakage_capacity_matches_simplex_grid():
    k = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]])
    cap = leakage_capacity(Channel((("M", (0, 1, 2)),), (("Z", (0, 1, 2)),), k))
    step = 1e-3
    p1 = np.arange(0.0, 1.0 + step / 2, step)
    grids = []
    row_gain = (k * np.log2(np.where(k > 0, k, 1.0))).sum(axis=1)
    best = 0.0
    for a in p1:
        b = np.arange(0.0, 1.0 - a + step / 2, step)
        pm = np.stack([np.full_like(b, a), b, 1.0 - a - b], axis=1)
        pm = np.clip(pm, 0.0, 1.0)
        q = pm @ k
        h_q = -(q * np.log2(np.where(q > 0, q, 1.0))).sum(axis=1)
        best = max(best, float((pm @ row_gain + h_q).max()))
    assert cap.bits == pytest.approx(best, abs=1e-4)
    assert cap.lower <= cap.bits <= cap.upper


# ---------------------------------------------------------------------------
# reliability experiment


def test_reliability_noiseless_single_message_is_perfect():
    model = bsc_wiretap(0.0)
    policy = uniform_input_policy(model)
    res = run_reliability_experiment(
        model, policy, 6, CodeRates(0.0, 0.0, 0.0), eps=1.5, trials=40, seed=12
    )
    assert res.num_messages == 1
    assert res.average_error_rate == 0.0
    assert res.erasures == 0 and res.encoder_failures == 0
    lo, hi = res.average_interval
    assert lo == 0.0 and hi < 0.2


def test_reliability_is_deterministic_with_records():
    model = bsc_wiretap(0.11)
    policy = uniform_input_policy(model)
    run = lambda: run_reliability_experiment(
        model, policy, 6, (0.0, 0.0, 0.3), eps=1.0, trials=25, seed=42, keep_records=True
    )
    a, b = run(), run()
    assert a == b
    assert len(a.records) == 25
    for rec in a.records:
        assert rec.decoded == ERASURE or (
            0 <= rec.decoded[0] < 1 and 0 <= rec.decoded[2] < a.num_messages
        )
        assert len(rec.state) == 6 and len(rec.received) == 6
    assert a.message_trials == (9, 8, 8)  # messages cycle through the set


def test_reliability_error_improves_with_blocklength():
    # error at n=12 below error at n=6 in >= 80% of 20 seeds
    model = bsc_wiretap(0.11)
    policy = uniform_input_policy(model)
    wins = 0
    for s in range(20):
        e6 = run_reliability_experiment(
            model, policy, 6, (0.0, 0.0, 0.3), eps=1.0, trials=30, seed=900 + s
        ).average_error_rate
        e12 = run_reliability_experiment(
            model, policy, 12, (0.0, 0.0, 0.3), eps=1.0, trials=30, seed=900 + s
        ).average_error_rate
        wins += e12 < e6
    assert wins >= 16


def test_reliability_stays_bad_above_capacity():
    # message rate 0.2 bits above the main channel capacity: no error decay
    model = bsc_wiretap(0.25)
    policy = uniform_input_policy(model)
    rate = (1.0 - binary_entropy(0.25)) + 0.2
    medians = {}
    for n in (6, 9, 12):
        errs = [
            run_reliability_experiment(
                model, policy, n, (0.0, 0.0, rate), eps=0.9, trials=10, seed=300 + s
            ).average_error_rate
            for s in range(20)
        ]
        medians[n] = float(np.median(errs))
    assert min(medians.values()) >= 0.5


def test_reliability_validation():
    model = bsc_wiretap(0.1)
    policy = uniform_input_policy(model)
    with pytest.raises(ValueError, match="trials"):
        run_reliability_experiment(model, policy, 4, (0.0, 0.0, 0.0), trials=0)
    for n in (0, -3):
        with pytest.raises(ValueError, match="blocklength"):
            run_reliability_experiment(model, policy, n, (0.0, 0.0, 0.0), trials=2)
    # the codeword guard holds before any chunk buffer is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="codebook would hold"):
            run_reliability_experiment(model, policy, 20, (0.9, 0.9, 0.9), trials=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # V = S: a lone 8-letter word rarely matches the state, so every trial is
    # an encoder failure and no decode would see the negative eps
    k = np.zeros((2, 1, 2, 2))
    k[0, 0, 0, 0] = k[1, 0, 1, 1] = 1.0
    tracking = gp_policy((0, 1), (0,), (0, 1), (0, 1), k)
    with pytest.raises(ValueError, match="eps"):
        run_reliability_experiment(model, tracking, 8, (0.0, 0.0, 0.0), eps=-0.1, trials=2)


# ---------------------------------------------------------------------------
# binning / one-time-pad protocol


def _surrogate_example():
    alpha_star = inv_binary_entropy(1.0 - binary_entropy(0.25))
    return build_rln_example(alpha_star, 0.05), alpha_star


def test_binning_rejects_impossible_rates():
    ex, _ = _surrogate_example()
    with pytest.raises(ValueError, match="pad"):
        binning_otp_protocol(ex, 8, 0.6, 0.3, 0.5, trials=5, seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        binning_otp_protocol(ex, 8, 0.6, -0.1, 0.2, trials=5, seed=0)
    with pytest.raises(ValueError, match="trials"):
        binning_otp_protocol(ex, 8, 0.6, 0.3, 0.2, trials=0, seed=0)
    for n, eps in ((0, 1.0), (-3, 1.0), (8, -0.5)):
        with pytest.raises(ValueError, match="blocklength n >= 1 and eps >= 0"):
            binning_otp_protocol(ex, n, 0.6, 0.3, 0.2, trials=5, seed=0, eps=eps)


def test_binning_requires_constant_s2():
    from identities import random_rln_model

    rng = np.random.default_rng(RNG_SEED)
    rln = random_rln_model(rng, ns2=2)
    with pytest.raises(ValueError, match="S2"):
        binning_otp_protocol(rln, 6, 0.6, 0.3, 0.2, trials=5, seed=0)


def test_binning_is_deterministic():
    ex, _ = _surrogate_example()
    a = binning_otp_protocol(ex, 6, 0.9, 0.2, 0.5, trials=15, seed=5, eps=1.25)
    b = binning_otp_protocol(ex, 6, 0.9, 0.2, 0.5, trials=15, seed=5, eps=1.25)
    assert a == b
    assert a.num_bins == index_count(6, 0.2)
    assert a.num_keys == index_count(6, 0.7)
    assert a.num_messages == index_count(6, 0.5)
    assert a.csi_failures + a.x_decode_failures + a.key_decode_failures <= a.errors
    assert a.errors <= a.trials


def test_binning_error_falls_with_blocklength():
    # rates 10% inside the region; medians over 20 seeds
    ex, alpha_star = _surrogate_example()
    hs = binary_entropy(0.25)
    cap = 1.0 - binary_entropy(alpha_star)
    r_a = 1.1 * hs
    r_bin = r_a - 0.9 * 0.95 * hs
    r = 0.9 * (cap - r_bin)
    medians = {}
    for n in (6, 12):
        errs = [
            binning_otp_protocol(ex, n, r_a, r_bin, r, trials=20, seed=4200 + s, eps=1.25).error_rate
            for s in range(20)
        ]
        medians[n] = float(np.median(errs))
    assert medians[12] < medians[6]


def test_binning_pad_key_close_to_uniform():
    ex, _ = _surrogate_example()
    hs = binary_entropy(0.25)
    r_a = 1.1 * hs
    res = binning_otp_protocol(ex, 12, r_a, r_a - 0.25, 0.2, trials=400, seed=77, eps=0.4)
    assert res.num_keys == 8
    assert res.trials - res.csi_failures > 150  # enough picks to estimate the law
    assert res.key_tv_from_uniform < 0.1


def test_monte_carlo_outcomes_are_pinned():
    # exact outcomes recorded before the codebook laws moved into one record
    # and the typicality scan became one bincount
    model = bsc_wiretap(0.05)
    pair = np.array([[[0.4, 0.3], [0.3, 0.0]], [[0.1, 0.2], [0.3, 0.4]]])  # (s, u, v)
    policy = gp_policy((0, 1), (0, 1), (0, 1), (0, 1), pair[..., None] * np.eye(2))  # X = V
    pinned = {
        3: ((2, 3, 2, 1), 7, 1,
            ((0, 0, 0), ERASURE, ERASURE, (1, 1, 3), ERASURE, ERASURE, ERASURE, ERASURE,
             ERASURE, (1, 1, 2), (0, 0, 3))),
        4: ((2, 2, 2, 1), 5, 2,
            ((0, 0, 0), (0, 1, 2), (1, 0, 3), ERASURE, ERASURE, ERASURE, ERASURE, (1, 1, 1),
             ERASURE, (1, 0, 3))),
    }
    for seed, (errors, erasures, failures, decoded) in pinned.items():
        res = run_reliability_experiment(
            model, policy, 8, (0.125, 0.125, 0.25), eps=1.5, trials=12, seed=seed,
            keep_records=True,
        )
        assert res.message_errors == errors
        assert (res.erasures, res.encoder_failures) == (erasures, failures)
        assert tuple(rec.decoded for rec in res.records) == decoded

    ex, _ = _surrogate_example()
    r_a = 1.1 * binary_entropy(0.25)
    for seed, counts, tv in ((5, (19, 9, 2, 8), 0.3846153846153846),
                             (6, (22, 11, 5, 6), 0.46153846153846145)):
        res = binning_otp_protocol(ex, 8, r_a, 0.3, 0.2, trials=30, seed=seed, eps=1.25)
        assert (res.errors, res.csi_failures, res.x_decode_failures,
                res.key_decode_failures) == counts
        assert res.key_tv_from_uniform == tv


_FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures"


def bench_code(n: int, seed: int):
    """The code-exact job's model, policy and codebook at n: outer rate 0.15
    above I(V;Z|U), two messages."""
    model = load_channel_spec(str(_FIXTURES / "bsc_q010_copy_tap.json"))
    policy = load_policy_spec(str(_FIXTURES / "uniform_v_is_x.json"), model)
    joint = assemble_joint(model, policy)
    law = CodeLaw.of(joint)
    r2 = mutual_information(joint, ("V",), ("Z",), ("U",)) + 0.15
    return model, policy, sample_codebook(law.q_u, law.q_v_given_u, n, 0.0, r2, 1.0 / n, seed)


def test_message_channel_memory_on_the_bench_codebook():
    # the code-exact job's n = 8 codebook: 588 pairs per message over 234
    # distinct words; the dense (M, N1, N2, |S|^n) tables alone were 4.6 MiB
    model, policy, cb = bench_code(8, 7100)
    assert (cb.num_u, cb.num_v, cb.num_messages) == (1, 588, 2)
    exact_message_channel(model, policy, cb)
    tracemalloc.start()
    try:
        kernel = exact_message_channel(model, policy, cb).kernel
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20
    np.testing.assert_allclose(kernel.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_message_channel_at_n10_on_the_bench_codebook():
    # 2 896 pairs per message over 981 and 956 distinct words: 4.0e7
    # multiply-adds, where counting every pair gave 1.19e8 and was refused
    model, policy, cb = bench_code(10, 7000)
    assert (cb.num_u, cb.num_v, cb.num_messages) == (1, 2896, 2)
    codes = simulate._uv_codes(cb)
    assert [len(_distinct_words(codes[0, :, m], 2)[0]) for m in range(2)] == [981, 956]
    tracemalloc.start()
    try:
        channel = exact_message_channel(model, policy, cb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    np.testing.assert_allclose(channel.kernel.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert leakage_capacity(channel).bits.hex() == "0x1.259dfd4341863p-3"


def test_code_exact_bench_outputs_are_pinned():
    # the code-exact jobs' settings, recorded before the distinct words were
    # ranked by counting and the golden sections scored a tree at a time;
    # these values read the same with numpy's AVX-512 dispatch on and off
    model = load_channel_spec(str(_FIXTURES / "wiretap.json"))
    policy = as_input_policy(model, load_policy_spec(str(_FIXTURES / "x_given_s.json"), model))
    joint = assemble_joint(model, policy)
    cover = _covering_joint(joint, "S")
    exponents = {  # gamma, alpha, d1, d2, c
        (0.6, 0.6): ("0x1.98718c5360c59p-4", "0x1.e18c6e68623b3p+5", "0x1.98718c5360c59p-2",
                     "0x1.987c0119f0a0bp-2", "0x1.54f9f8815b209p+3"),
        (0.7, 0.7): ("0x1.dc84790bf0e67p-4", "0x1.e18c6e68623b3p+5", "0x1.dc84790bf0e67p-2",
                     "0x1.dc90abf398bb7p-2", "0x1.593bc18c54f1cp+3"),
        (0.3, 0.4): ("0x1.8ce48916539b3p-5", "0x1.8d283b42c6cc0p+2", "0x1.8ce48916539b3p-3",
                     "0x1.8ceeb229cf77ap-3", "0x1.47e5dcc88356bp+3"),
    }
    for (r1, r2), want in exponents.items():
        res = best_gamma(cover, r1, r2)
        assert tuple(float.hex(x) for x in (res.gamma, res.alpha, res.d1, res.d2, res.c)) == want
        assert not res.degenerate

    # softcov-sim --r1 0.7 --r2 0.7 --seed 1, two trials at each n
    law = CodeLaw.of(joint)
    q_w = marginalize(cover, ("W",)).as_pmf()
    q_w_given_uv = channel_from_joint(cover, ("U", "V"), ("W",))
    divergences = {
        8: ("0x1.d48a748353fbcp-11", "0x1.b3bdabf048324p-11"),
        10: ("0x1.7920f0f95f470p-14", "0x1.659de9c44fe78p-13"),
        12: ("0x1.c27d754840818p-16", "0x1.39a176419c440p-15"),
    }
    for n, want in divergences.items():
        got = []
        for k in range(2):
            cb = sample_codebook(law.q_u, law.q_v_given_u, n, 0.7, 0.7, 0.0, derive_seeds(1 + n, 1, start=k)[0])
            got.append(exact_output_divergence(cb, q_w_given_uv, q_w).hex())
        assert tuple(got) == want, n

    kernels = {  # sha256 of the message-channel kernel bytes
        (6, 7100): "c7ac158f50b84a186a822212279ff1cdf7eaff9e0a3538e9cc82f3101a391ed4",
        (6, 7101): "b5e3d95e31daf62bc2e755ae7c13284a16754b42ee8b6da88cce14ca59130012",
        (8, 7100): "fb5ca24380ea50606d17b68474400ba947ce03d27c790ae1eaed263dc6577263",
    }
    for (n, seed), digest in kernels.items():
        model, policy, cb = bench_code(n, seed)
        kernel = exact_message_channel(model, policy, cb).kernel
        assert hashlib.sha256(kernel.tobytes()).hexdigest() == digest, (n, seed)


@pytest.mark.parametrize("v_symbols", [("a", "b"), (0, 1, 2)])
def test_codebook_consumers_refuse_other_alphabets(v_symbols):
    # relabelled, a codebook encoded silently; over three symbols, it raised IndexError
    model = load_channel_spec(str(_FIXTURES / "bsc_q011.json"))
    policy = load_policy_spec(str(_FIXTURES / "uniform_v_is_x.json"), model)
    joint = assemble_joint(model, policy)
    law = CodeLaw.of(joint)
    q_z_given_uv = channel_from_joint(joint, ("U", "V"), ("Z",))
    q_z = Pmf(joint.alphabet("Z"), marginalize(joint, ("Z",)).mass)
    consumers = (
        lambda c: likelihood_encode(0, (0, 1, 1, 0), c, law, seed=0),
        lambda c: typicality_decode((0, 1, 1, 0), c, law, 1.0),
        lambda c: exact_message_channel(model, policy, c),
        lambda c: approximation_gap(model, policy, c),
        lambda c: exact_output_divergence(c, q_z_given_uv, q_z),
    )
    cb = sample_codebook(law.q_u, law.q_v_given_u, 4, 0.25, 0.25, 0.25, seed=1)
    other = dataclasses.replace(cb, v_symbols=v_symbols)
    for call in consumers:
        call(cb)
        with pytest.raises(ValueError, match="codebook alphabets"):
            call(other)


def test_output_divergence_refuses_a_kernel_over_other_alphabets():
    # the kernel's V holds three symbols, the codebook's two: letter codes
    # u |V| + v would read the kernel's rows with the codebook's |V|
    q_w = Pmf((0, 1), np.array([0.5, 0.5]))
    kernel = Channel((("U", (0,)), ("V", (0, 1, 2))), (("W", (0, 1)),),
                     np.array([[[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]]))
    cb = repeated_word_codebook(4, np.array([[0, 1, 1, 0], [1, 1, 0, 0]]), np.array([[0], [1]]))
    cb = dataclasses.replace(cb, v_symbols=("a", "b"))
    with pytest.raises(ValueError, match="codebook alphabets"):
        exact_output_divergence(cb, kernel, q_w)


def repeated_word_codebook(n: int, words: np.ndarray, pick: np.ndarray) -> Codebook:
    """A codebook over U = {0}, V = {0, 1} whose (1, N2, M) outer words are
    rows of words chosen by pick."""
    return Codebook(
        n=n, r1=0.0, r2=math.log2(pick.shape[0]) / n, r=math.log2(pick.shape[1]) / n,
        u_symbols=(0,), v_symbols=(0, 1), u_words=np.zeros((1, n), dtype=np.int64),
        v_words=words[pick][None], seed=0,
    )


def test_message_channel_guard_counts_distinct_words():
    model = bsc_wiretap(0.1, tap="copy")
    policy = uniform_input_policy(model)
    # n 2^(n+1) multiply-adds a word; 32 pairs per message over 2 distinct
    # words are admitted, though the pairs' count is above the bound
    n = 16
    assert 2 * 2 * n * 2 ** (n + 1) <= 10 ** 8 < 2 * 32 * n * 2 ** (n + 1)
    words = np.array([np.arange(n) % 2, np.arange(n) // 3 % 2])
    cb = repeated_word_codebook(n, words, np.arange(64).reshape(32, 2) // 2 % 2)
    assert [len(np.unique(cb.v_words[0, :, m], axis=0)) for m in range(2)] == [2, 2]
    kernel = exact_message_channel(model, policy, cb).kernel
    assert kernel.shape == (2, 2 ** n)
    np.testing.assert_allclose(kernel.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    # 3 distinct words among 4 pairs trip it, refused before any table is built
    n = 20
    words = np.array([np.arange(n) % 2, np.arange(n) // 3 % 2, np.arange(n) // 5 % 2])
    cb = repeated_word_codebook(n, words, np.array([[0], [1], [2], [1]]))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"enumeration needs ~{3 * n * 2 ** (n + 1)} operations"):
            exact_message_channel(model, policy, cb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_divergence_guard_counts_distinct_halves():
    # |W|^n n_a + |W|^(n-h) n_p: two distinct first halves and three pairs
    q_w = Pmf((0, 1), np.array([0.5, 0.5]))
    copy_v = Channel(
        (("U", (0,)), ("V", (0, 1))), (("W", (0, 1)),), np.eye(2)[None, :, :].copy()
    )
    n = 26
    words = np.array([np.zeros(n), np.r_[np.zeros(13), np.ones(13)], np.ones(n)], dtype=np.int64)
    cb = repeated_word_codebook(n, words, np.array([[0], [1], [2], [2]]))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"enumeration needs ~{2 ** n * 2 + 2 ** 13 * 3} operations"):
            exact_output_divergence(cb, copy_v, q_w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _single_word_codebook(n: int) -> Codebook:
    """One all-zero codeword over U = {0}, V = {0, 1}: the fewest words an enumeration can count."""
    return Codebook(n=n, r1=0.0, r2=0.0, r=0.0, u_symbols=(0,), v_symbols=(0, 1),
                    u_words=np.zeros((1, n), dtype=np.int64), v_words=np.zeros((1, 1, 1, n), dtype=np.int64),
                    seed=0)


def _enumerations():
    model = bsc_wiretap(0.1, tap="copy")
    policy = uniform_input_policy(model)
    copy_v = Channel((("U", (0,)), ("V", (0, 1))), (("W", (0, 1)),), np.eye(2)[None, :, :].copy())
    q_w = Pmf((0, 1), np.array([0.5, 0.5]))
    return {
        "exact_message_channel": lambda cb: exact_message_channel(model, policy, cb),
        "approximation_gap": lambda cb: approximation_gap(model, policy, cb),
        "exact_output_divergence": lambda cb: exact_output_divergence(cb, copy_v, q_w),
    }


@pytest.mark.parametrize("name, n", [("exact_message_channel", 60_000), ("approximation_gap", 60_000),
                                     ("exact_output_divergence", 60_000),
                                     ("exact_output_divergence", 1_000_000)])
def test_enumerations_refuse_long_blocks_at_once_with_a_printable_count(name, n):
    # the counts have 18 000 and more digits, past what str(int) prints; each
    # is refused from the count with one word (or half-word) per message,
    # before any word is ranked or table built
    enumerate_ = _enumerations()[name]
    cb = _single_word_codebook(n)
    enumerate_(_single_word_codebook(2))  # warm the code laws' caches
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        enumerate_(cb)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            enumerate_(cb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    message = str(err.value)
    assert re.fullmatch(r"enumeration needs ~10\^\d+\.\d operations; guard is 100000000", message), message
    assert len(message) < 200
    assert elapsed < 0.1
    assert peak < 2 ** 20


def test_work_counts_print_exactly_to_15_digits():
    for ops, text in ((10 ** 8 + 1, "100000001"), (10 ** 15 - 1, "9" * 15),
                      (10 ** 15, "10^15.0"), (2 ** 60000, "10^18061.8")):
        with pytest.raises(ValueError, match=f"^enumeration needs ~{re.escape(text)} operations"):
            simulate._check_work(ops)


def test_bench_size_monte_carlo_outcomes_are_pinned():
    # the code-montecarlo jobs' settings: binning-sim at n = 12 searches 205 bins
    ex = build_rln_example(0.0289, 0.05)
    pinned = {
        (8, 1): (34, 4, 3, 15, 5, 9, 1, "0x1.ddddddddddddep-3"),
        (8, 2): (34, 4, 3, 15, 9, 5, 1, "0x1.45d1745d1745cp-3"),
        (8, 7): (34, 4, 3, 15, 7, 6, 2, "0x1.d89d89d89d89cp-5"),
        (12, 1): (205, 8, 5, 13, 9, 3, 1, "0x1.c5d1745d1745dp-2"),
        (12, 2): (205, 8, 5, 14, 6, 5, 3, "0x1.4924924924924p-3"),
        (12, 7): (205, 8, 5, 13, 8, 2, 3, "0x1.5555555555555p-2"),
    }
    for (n, seed), (bins, keys, messages, errors, csi, x_fail, key_fail, tv) in pinned.items():
        res = binning_otp_protocol(ex, n, 0.89, 0.64, 0.2, trials=20, seed=seed, eps=1.25)
        assert res == BinningResult(n, 20, bins, keys, messages, errors, csi, x_fail, key_fail,
                                    float.fromhex(tv)), (n, seed)

    model = load_channel_spec(str(_FIXTURES / "bsc_q011.json"))
    policy = load_policy_spec(str(_FIXTURES / "uniform_v_is_x.json"), model)
    per_message = (4, 4, 4, 4, 3, 3, 3, 3, 3, 3, 3, 3)
    pinned = {
        1: (40, "bd3263661897c5b55db70b5a1096344fe619d9c7658d057f8ace29c7777b2b7a"),
        2: (37, "3c3df1a884092a19839d3c529e491809d232eb47bd98cb586885d6bf18604248"),
        7: (40, "62404543ebe3f9549b9e91a441a8876fe17723fe1490fbc05d0201400f36d6b4"),
    }
    for seed, (erasures, records_sha256) in pinned.items():
        res = run_reliability_experiment(model, policy, 12, (0.2, 0.2, 0.3), 1.0, 40, seed,
                                         keep_records=True)
        assert (res.n, res.trials, res.num_messages) == (12, 40, 12), seed
        assert (res.message_trials, res.message_errors) == (per_message, per_message), seed
        assert (res.erasures, res.encoder_failures) == (erasures, 0), seed
        assert hashlib.sha256(repr(res.records).encode()).hexdigest() == records_sha256, seed


# ---------------------------------------------------------------------------
# the per-trial loops with Generator.choice, kept as oracles for the stacked
# Monte Carlo core


def _lone_codebook(law, n, r1, r2, r, seed):
    n1, n2, m = index_count(n, r1), index_count(n, r2), index_count(n, r)
    rng = np.random.default_rng(seed)
    u_words = rng.choice(len(law.q_u.symbols), size=(n1, n), p=law.q_u.probs)
    rows = law.q_v_given_u.kernel[u_words]
    v_words = _inverse_cdf(rows[:, None, None], rng.random((n1, n2, m, n)))
    return u_words, v_words


def _lone_encode(m, s_idx, u_words, v_words, law, seed):
    loglik = law.log_q_s_given_uv[u_words[:, None, :], v_words[:, :, m, :], s_idx[None, None, :]]
    loglik = loglik.sum(axis=-1)
    top = loglik.max()
    if top == -np.inf:
        return None
    weights = np.exp(loglik - top)
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    i, j = divmod(int(rng.choice(weights.size, p=weights.ravel())), v_words.shape[1])
    rows = law.q_x_given_uvs.kernel[u_words[i], v_words[i, j, m], s_idx]
    return i, j, _inverse_cdf(rows, rng.random(len(s_idx)))


def _lone_decode(y_idx, u_words, v_words, law, eps):
    n_v, n_y = len(law.joint.alphabet("V")), len(law.joint.alphabet("Y"))
    codes = (u_words[:, None, None, :] * n_v + v_words) * n_y + y_idx
    hits = np.nonzero(_typical_rows(codes.reshape(-1, len(y_idx)), law.q_uvy, eps, len(y_idx)))[0]
    if hits.size != 1:
        return ERASURE
    return tuple(int(a) for a in np.unravel_index(hits[0], v_words.shape[:3]))


def _lone_reliability(model, policy, n, rates, eps, trials, seed):
    law = CodeLaw.of(assemble_joint(model, policy))
    num_messages = index_count(n, rates[2])
    msg_trials, msg_errors = [0] * num_messages, [0] * num_messages
    erasures = failures = 0
    records = []
    yz_rows = model.channel.kernel.reshape(len(model.x_symbols), len(model.s_symbols), -1)
    n_z = len(model.z_symbols)
    sym = lambda symbols, idx: tuple(symbols[k] for k in idx)
    seeds = derive_seeds(seed, 3 * trials)
    for t in range(trials):
        cb_seed, enc_seed, noise_seed = seeds[3 * t : 3 * t + 3]
        u_words, v_words = _lone_codebook(law, n, *rates, cb_seed)
        noise = np.random.default_rng(noise_seed)
        m = t % num_messages
        msg_trials[m] += 1
        s_idx = noise.choice(len(model.s_symbols), size=n, p=model.state_pmf.probs)
        enc = _lone_encode(m, s_idx, u_words, v_words, law, enc_seed)
        if enc is None:
            failures += 1
            msg_errors[m] += 1
            continue
        i, j, x_idx = enc
        yz = _inverse_cdf(yz_rows[x_idx, s_idx], noise.random(n))
        decoded = _lone_decode(yz // n_z, u_words, v_words, law, eps)
        if decoded == ERASURE:
            erasures += 1
            msg_errors[m] += 1
        elif decoded[2] != m:
            msg_errors[m] += 1
        records.append(TrialRecord(
            m, (i, j), sym(model.s_symbols, s_idx), sym(model.x_symbols, x_idx),
            sym(model.y_symbols, yz // n_z), sym(model.z_symbols, yz % n_z), decoded,
        ))
    return ReliabilityResult(n, trials, num_messages, tuple(msg_trials), tuple(msg_errors),
                             erasures, failures, tuple(records))


def _lone_binning(ex, n, r_a, r_bin, r, trials, seed, eps):
    num_bins, num_keys, num_messages = (index_count(n, r_bin), index_count(n, r_a - r_bin),
                                        index_count(n, r))
    ws = ex.state_pmf.probs
    n_s, n_x, n_s1, n_s2 = (len(ex.s_symbols), len(ex.x_symbols), len(ex.s1_symbols),
                            len(ex.s2_symbols))
    n_y, n_z = len(ex.y_symbols), len(ex.z_symbols)
    p_sa = (np.eye(n_s) * ws[:, None]).ravel()
    p_as1 = (ws[:, None] * ex.state_channel.kernel.sum(axis=2)).ravel()
    p_xy = (ex.main_channel.kernel.sum(axis=2) / n_x).ravel()
    yz_rows = ex.main_channel.kernel.reshape(n_x, -1)
    s12_rows = ex.state_channel.kernel.reshape(n_s, -1)
    errors = csi_failures = x_failures = key_failures = key_picks = 0
    key_counts = np.zeros(num_keys, dtype=np.int64)
    seeds = derive_seeds(seed, 2 * trials)
    for t in range(trials):
        book_rng = np.random.default_rng(seeds[2 * t])
        noise = np.random.default_rng(seeds[2 * t + 1])
        a_words = book_rng.choice(n_s, size=(num_bins, num_keys, n), p=ws)
        x_words = book_rng.integers(0, n_x, size=(num_messages, num_bins, n))
        s_idx = noise.choice(n_s, size=n, p=ws)
        hits = np.nonzero(_typical_rows((s_idx * n_s + a_words).reshape(-1, n), p_sa, eps, n))[0]
        if hits.size == 0:
            csi_failures += 1
            errors += 1
            continue
        b, k = divmod(int(hits[0]), num_keys)
        key_counts[k] += 1
        key_picks += 1
        m = int(noise.integers(num_messages))
        yz = _inverse_cdf(yz_rows[x_words[(m + k) % num_messages, b]], noise.random(n))
        s1_idx = _inverse_cdf(s12_rows[s_idx], noise.random(n)) // n_s2
        xy_codes = (x_words * n_y + yz // n_z).reshape(-1, n)
        xy_hits = np.nonzero(_typical_rows(xy_codes, p_xy, eps, n))[0]
        if xy_hits.size != 1:
            x_failures += 1
            errors += 1
            continue
        m_tilde_hat, b_hat = divmod(int(xy_hits[0]), num_bins)
        key_hits = np.nonzero(_typical_rows(a_words[b_hat] * n_s1 + s1_idx, p_as1, eps, n))[0]
        if key_hits.size != 1:
            key_failures += 1
            errors += 1
            continue
        errors += (m_tilde_hat - int(key_hits[0])) % num_messages != m
    key_tv = (float(0.5 * np.abs(key_counts / key_picks - 1.0 / num_keys).sum())
              if key_picks else 1.0)
    return BinningResult(n, trials, num_bins, num_keys, num_messages, errors, csi_failures,
                         x_failures, key_failures, key_tv)


def _two_layer_case():
    model = bsc_wiretap(0.05)
    pair = np.array([[[0.4, 0.3], [0.3, 0.0]], [[0.1, 0.2], [0.3, 0.4]]])  # (s, u, v)
    return model, gp_policy((0, 1), (0, 1), (0, 1), (0, 1), pair[..., None] * np.eye(2))


@pytest.mark.parametrize("chunk", [None, 3, 1])
@pytest.mark.parametrize("n, rates, eps, trials, seed", [
    (8, (0.125, 0.125, 0.25), 1.5, 12, 3),  # encoder failures and erasures
    (6, (0.2, 0.3, 0.4), 1.0, 23, 7),
    (5, (0.0, 0.0, 0.6), 0.6, 17, 11),
    (3, (0.4, 0.0, 0.0), 0.3, 9, 2),
])
def test_stacked_reliability_equals_the_per_trial_loop(monkeypatch, chunk, n, rates, eps, trials, seed):
    model, policy = _two_layer_case()
    if chunk is not None:  # letters for `chunk` trials per chunk
        n1, n2, m = (index_count(n, r) for r in rates)
        monkeypatch.setattr(simulate, "_TRIAL_CHUNK", chunk * n1 * n2 * m * n)
    got = run_reliability_experiment(model, policy, n, rates, eps, trials, seed, keep_records=True)
    assert got == _lone_reliability(model, policy, n, rates, eps, trials, seed)
    if seed == 3:
        assert got.encoder_failures > 0 and got.erasures > 0


def test_stacked_reliability_with_one_trial_per_chunk():
    # N1 N2 M n = 16 * 16 * 16 * 8 = 2^15 letters: each trial is its own chunk
    model, policy = _two_layer_case()
    assert index_count(8, 0.5) ** 3 * 8 == _TRIAL_CHUNK
    args = (model, policy, 8, (0.5, 0.5, 0.5), 1.25, 3, 21)
    assert run_reliability_experiment(*args, keep_records=True) == _lone_reliability(*args)


@pytest.mark.parametrize("n, r_bin, r, trials, seed, eps", [
    (8, 0.3, 0.2, 30, 5, 1.25),
    (8, 0.3, 0.2, 30, 6, 1.25),
    (6, 0.2, 0.5, 25, 9, 1.25),
    (12, 0.64, 0.2, 12, 4, 0.4),
])
def test_binning_equals_the_per_trial_loop(n, r_bin, r, trials, seed, eps):
    ex, _ = _surrogate_example()
    r_a = 1.1 * binary_entropy(0.25)
    got = binning_otp_protocol(ex, n, r_a, r_bin, r, trials, seed, eps)
    assert got == _lone_binning(ex, n, r_a, r_bin, r, trials, seed, eps)


def test_binning_oracle_cases_reach_every_failure_kind():
    ex, _ = _surrogate_example()
    got = binning_otp_protocol(ex, 8, 1.1 * binary_entropy(0.25), 0.3, 0.2, 30, 5, 1.25)
    assert min(got.csi_failures, got.x_decode_failures, got.key_decode_failures) > 0


def _full_search_binning(ex, n, r_a, r_bin, r, trials, seed, eps):
    """The protocol's per-trial body before its CSI search became an equality
    test: a default_rng per trial and role, and _typical_rows over all B K
    description words."""
    num_bins, num_keys, num_messages = (index_count(n, q) for q in (r_bin, r_a - r_bin, r))
    ws = ex.state_pmf.probs
    n_s, n_x, n_s1, n_y, n_z = (len(a) for a in (ex.s_symbols, ex.x_symbols, ex.s1_symbols,
                                                  ex.y_symbols, ex.z_symbols))
    p_sa = (np.eye(n_s) * ws[:, None]).ravel()
    p_as1 = (ws[:, None] * ex.state_channel.kernel.sum(axis=2)).ravel()
    p_xy = (ex.main_channel.kernel.sum(axis=2) / n_x).ravel()
    yz_rows = ex.main_channel.kernel.reshape(n_x, -1)
    s1_rows = ex.state_channel.kernel.reshape(n_s, -1)
    wrong = csi_failures = x_failures = key_failures = 0
    key_counts = np.zeros(num_keys, dtype=np.int64)
    seeds = derive_seeds(seed, 2 * trials)
    for t in range(trials):
        book_rng = np.random.default_rng(seeds[2 * t])
        noise = np.random.default_rng(seeds[2 * t + 1])
        a_words = _replay_choice(ws, book_rng.random((num_bins, num_keys, n)))
        x_words = book_rng.integers(0, n_x, size=(num_messages, num_bins, n))
        s_idx = _replay_choice(ws, noise.random(n))
        sa_codes = (s_idx[None, None, :] * n_s + a_words).reshape(-1, n)
        hits = np.nonzero(_typical_rows(sa_codes, p_sa, eps, n))[0]
        if hits.size == 0:
            csi_failures += 1
            continue
        b, k = divmod(int(hits[0]), num_keys)
        key_counts[k] += 1
        m = int(noise.integers(num_messages))
        x_idx = x_words[(m + k) % num_messages, b]
        y_idx = _inverse_cdf(yz_rows[x_idx], noise.random(n)) // n_z
        s1_idx = _inverse_cdf(s1_rows[s_idx], noise.random(n))
        xy_codes = (x_words * n_y + y_idx[None, None, :]).reshape(-1, n)
        xy_hits = np.nonzero(_typical_rows(xy_codes, p_xy, eps, n))[0]
        if xy_hits.size != 1:
            x_failures += 1
            continue
        m_tilde_hat, b_hat = divmod(int(xy_hits[0]), num_bins)
        key_hits = np.nonzero(_typical_rows(a_words[b_hat] * n_s1 + s1_idx[None, :], p_as1, eps, n))[0]
        if key_hits.size != 1:
            key_failures += 1
            continue
        wrong += (m_tilde_hat - int(key_hits[0])) % num_messages != m
    picks = int(key_counts.sum())
    key_tv = float(0.5 * np.abs(key_counts / picks - 1.0 / num_keys).sum()) if picks else 1.0
    return BinningResult(n, trials, num_bins, num_keys, num_messages,
                         csi_failures + x_failures + key_failures + wrong, csi_failures,
                         x_failures, key_failures, key_tv)


def _zero_state_rln():
    """An rln document whose state law gives its middle state no mass."""
    return model_from_dict({
        "kind": "rln",
        "alphabets": {"S": [0, 1, 2], "S1": [0, 1], "S2": [0], "X": [0, 1], "Y": [0, 1],
                      "Z": [0, 1]},
        "state_pmf": [0.5, 0.0, 0.5],
        "state_kernel": [[[0.9], [0.1]], [[0.5], [0.5]], [[0.2], [0.8]]],
        "main_kernel": [[[0.85, 0.05], [0.05, 0.05]], [[0.05, 0.05], [0.1, 0.8]]],
    })


def test_equality_csi_search_equals_the_full_search():
    rng = np.random.default_rng(RNG_SEED + 19)
    examples = (_surrogate_example()[0], build_rln_example(0.0289, 0.05), _zero_state_rln())
    picked_at_eps0 = failed = 0
    for case in range(210):
        ex = examples[case % 3]
        n, eps = case % 12 + 1, (0.0, 0.2, 0.6, 1.25, 2.5)[case % 5]
        r_a = 1.1 * rng.random()
        r_bin = r_a * rng.random()
        r = (r_a - r_bin) * rng.random()
        seed, trials = int(rng.integers(2 ** 63)), int(rng.integers(1, 9))
        got = binning_otp_protocol(ex, n, r_a, r_bin, r, trials, seed, eps)
        assert got == _full_search_binning(ex, n, r_a, r_bin, r, trials, seed, eps), case
        picked_at_eps0 += eps == 0.0 and got.csi_failures < trials
        failed += got.csi_failures
    # the cases reach both branches, including exact-type picks at eps = 0
    assert picked_at_eps0 > 0 and failed > 0


def test_reliability_memory_is_bounded_by_the_chunk():
    # the peak at 8x the chunk's trial count exceeds the peak at 1x by less
    # than one chunk's (N1, N2, M, n) array of uniforms
    model, policy = _two_layer_case()
    n, rates = 8, (0.25, 0.25, 0.5)
    letters = index_count(n, 0.25) ** 2 * index_count(n, 0.5) * n
    per_chunk = _TRIAL_CHUNK // letters
    assert per_chunk > 1
    peaks = []
    for trials in (per_chunk, 8 * per_chunk):
        tracemalloc.start()
        try:
            run_reliability_experiment(model, policy, n, rates, 1.0, trials, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < per_chunk * letters * 8


@pytest.mark.parametrize("block", [1, 2, 5])
def test_seed_blocks_leave_the_outcomes_unchanged(monkeypatch, block):
    # chunks of 3 trials: blocks of 1 and 2 trials cap the chunk, and a block
    # of 5 rounds up to two chunks, with a part block at the end
    monkeypatch.setattr(simulate, "_SEED_BLOCK", block)
    model, policy = _two_layer_case()
    n, rates, eps, trials, seed = 6, (0.2, 0.3, 0.4), 1.0, 23, 7
    monkeypatch.setattr(simulate, "_TRIAL_CHUNK", 3 * math.prod(index_count(n, r) for r in rates) * n)
    got = run_reliability_experiment(model, policy, n, rates, eps, trials, seed, keep_records=True)
    assert got == _lone_reliability(model, policy, n, rates, eps, trials, seed)
    ex, _ = _surrogate_example()
    r_a = 1.1 * binary_entropy(0.25)
    got = binning_otp_protocol(ex, 8, r_a, 0.3, 0.2, 11, 5, 1.25)
    assert got == _lone_binning(ex, 8, r_a, 0.3, 0.2, 11, 5, 1.25)


@pytest.mark.parametrize("protocol", ["reliability", "binning"])
def test_monte_carlo_memory_does_not_follow_the_trial_count(monkeypatch, protocol):
    # n = 1 at zero rates, where a trial's seeds (about 0.5 KB while hashed)
    # outweigh its draws: with blocks of 32 trials, the peak at 16 T trials
    # exceeds the peak at T by less than 16 bytes per added trial
    monkeypatch.setattr(simulate, "_SEED_BLOCK", 32)
    if protocol == "reliability":
        model = bsc_wiretap(0.1)
        policy = uniform_input_policy(model)

        def run(trials):
            run_reliability_experiment(model, policy, 1, (0.0, 0.0, 0.0), 1.0, trials, seed=1)
    else:
        ex = build_rln_example(0.0289, 0.05)

        def run(trials):
            binning_otp_protocol(ex, 1, 0.0, 0.0, 0.0, trials, seed=1, eps=1.0)
    t = 128
    run(t)  # first-call allocations are not the run's
    peaks = []
    for trials in (t, 16 * t):
        tracemalloc.start()
        try:
            run(trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 15 * t * 16
