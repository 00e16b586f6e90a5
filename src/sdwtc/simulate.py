"""Desk-scale realization of the layered likelihood-encoder coding scheme.

Codebooks are sampled at blocklengths small enough that the induced
distributions can be enumerated exactly: soft-covering divergence, the
induced-vs-idealized approximation gap, and the exact message-to-
eavesdropper channel are all computed by full summation, while
reliability and the binning/one-time-pad protocol run as seeded Monte
Carlo.  Index sets use the floor convention |I| = max(1, floor(2^{nR})).

All likelihood arithmetic is log-domain; typicality tests match
prob.is_letter_typical bit for bit so the vectorized decoder can be
checked against a full scan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .models import ERASURE, InputPolicy, RlnModel, SdWtcModel, assemble_joint, check_parts
from .prob import ZERO_MASS, Channel, JointPmf, Pmf, _marginal_mass, channel_from_joint
from .rng import derive_seeds

DEFAULT_EPS = 0.15  # loose typicality for n <= 12
_MAX_CODEWORDS = 2 ** 24
_MAX_ENUM_OPS = 10 ** 8
_MAX_TRIALS = 10 ** 7  # trials in one run, as the grid bounds its policies: a bound on running time
# codebook letters (N1 N2 M n per trial) stacked in one Monte Carlo chunk: 2^14
# ran 35% slower, and without chunking 40 trials at n = 12 added 5 MB of RSS
_TRIAL_CHUNK = 2 ** 15
# trials whose seeds are derived and hashed at once: a Monte Carlo run holds
# one block's seed words (about 0.5 KB a trial while hashed), and a draw chunk
# holds at most one block's trials
_SEED_BLOCK = 4096
_RANK_TABLE = 8  # keys per row up to which _distinct_words ranks by counting, not sorting
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier


class EncoderFailure(RuntimeError):
    """The state sequence has zero likelihood under every codeword pair."""


class CodeRates(NamedTuple):
    r1: float
    r2: float
    r: float


def index_count(n: int, rate: float) -> int:
    """Floor-convention index set size max(1, floor(2^{n rate})).

    A rate that is not finite, or an n rate of 63 or more (a set larger than
    any size guard), is refused before the power is taken.
    """
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"rates must be finite and nonnegative, got {rate!r}")
    if n * rate >= 63:
        raise ValueError(f"n*rate = {n * rate!r} gives an index set of 2^63 or more")
    return max(1, int(math.floor(2.0 ** (n * rate) + 1e-9)))


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval (95% by default) for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def check_trials(trials: int, name: str = "trials", least: int = 1) -> None:
    """Refuse a trial count below least or above _MAX_TRIALS, where it enters."""
    if not least <= trials <= _MAX_TRIALS:
        bound = "positive" if trials < least else f"at most {_MAX_TRIALS}"
        raise ValueError(f"{name} must be {bound}, got {trials!r}")


def _symbol_indices(seq: Sequence[Hashable], alphabet: tuple) -> np.ndarray | None:
    lookup = {sym: k for k, sym in enumerate(alphabet)}
    try:
        return np.array([lookup[sym] for sym in seq], dtype=np.int64)
    except KeyError:
        return None


def _typical_rows(codes: np.ndarray, probs: np.ndarray, eps: float, n: int) -> np.ndarray:
    """is_letter_typical over rows of combined-letter codes (same arithmetic), in one
    bincount: row r's codes are offset by r * |probs|."""
    rows, k = codes.shape[0], probs.size
    counts = np.bincount((codes + k * np.arange(rows)[:, None]).ravel(), minlength=rows * k)
    freq = counts.reshape(rows, k) / n
    return ~np.any(np.abs(freq - probs) > eps * probs, axis=1)


def _seed_words(seeds: Sequence[int]) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) for each seed in
    [0, 2^64), the words np.random.PCG64(seed) seeds from, as (len(seeds), 4)
    uint64 in one array pass.

    The seed's two 32-bit words, zero-padded to the pool of four, are hashed
    into the pool and mixed, and the pool is hashed out into eight words.
    That runs here as uint32 arithmetic over all seeds at once; the hash
    constants follow one sequence whatever the seed.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    const, mult = 0x43B0D7E5, 0x931E8875  # SeedSequence's INIT_A, MULT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(s.size, dtype=np.uint32)
    pool = [hashmix(w) for w in ((s & _MASK32).astype(np.uint32), (s >> 32).astype(np.uint32),
                                 zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:  # mix(x, y) with MIX_MULT_L, MIX_MULT_R
                mixed = (np.uint32(0xCA01F9DD) * pool[dst]
                         - np.uint32(0x4973F715) * hashmix(pool[src]))
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    const, mult = 0x8B51F9DD, 0x58F38DED  # INIT_B, MULT_B
    words = np.array([hashmix(pool[k % 4]) for k in range(8)], dtype=np.uint64)
    return (words[0::2] | words[1::2] << 32).T


def _seed_chunks(seed: int, roles: int, trials: int, chunk: int) -> Iterator[np.ndarray]:
    """The trials' _seed_words, (trials in the chunk, roles, 4) for each chunk
    of chunk trials in turn: trial t's role r is seeded by
    derive_seeds(seed, roles * trials)[roles * t + r].  The seeds are derived
    and hashed a block of whole chunks, at least _SEED_BLOCK trials, at a time."""
    block = chunk * -(-_SEED_BLOCK // chunk)
    for first in range(0, trials, block):
        count = min(block, trials - first)
        words = _seed_words(derive_seeds(seed, roles * count, start=roles * first))
        words = words.reshape(count, roles, 4)
        for lo in range(0, count, chunk):
            yield words[lo:lo + chunk]


def _reseeded(gen: np.random.Generator, words: np.ndarray) -> Iterator[np.random.Generator]:
    """gen set to each row of _seed_words in turn, so it draws what
    np.random.default_rng(seed) does.  PCG64 reads a row as 128-bit initstate
    and initseq and sets inc = 2 initseq + 1 and state = (initstate + inc)
    MULT + inc modulo 2^128; has_uint32 = 0 drops any 32-bit half-word the
    previous trial left buffered."""
    for s_hi, s_lo, i_hi, i_lo in words.tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128
        gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield gen


def _fill(gens: Iterable[np.random.Generator], *buffers: np.ndarray) -> None:
    """Row k of each buffer in turn with the uniforms the k-th of gens draws, so
    each trial sees its own generator in a lone run's order."""
    for k, gen in enumerate(gens):
        for buf in buffers:
            gen.random(out=buf[k])


def _replay_choice(p: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Generator.choice(K, p=p) replayed on the uniforms it would draw, by its
    own rule: cdf = p.cumsum(), cdf /= cdf[-1], then cdf.searchsorted(draws,
    side="right"), here the count of cdf values at or below each draw.  p is
    one (K,) law for draws of any shape, or (T, K) rows with draws (T,)."""
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return (cdf[..., :-1] <= draws[..., None]).sum(axis=-1)


def _inverse_cdf(rows: np.ndarray, draws: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sample one index per row of a row-stochastic (..., K) array given
    uniforms in [0, 1) broadcast against its leading axes: the number of the
    first K - 1 cumulative masses each draw exceeds, counted one column at a
    time into int64 (into out when given), so the last index takes whatever
    mass rounding leaves above the final sum."""
    cdf = np.cumsum(rows, axis=-1)
    if out is None:
        out = np.empty(np.broadcast_shapes(cdf.shape[:-1], draws.shape), dtype=np.int64)
    out[...] = 0
    for j in range(rows.shape[-1] - 1):
        out += draws > cdf[..., j]
    return out


def _product_chain(rows: np.ndarray, combine: np.ufunc = np.multiply) -> np.ndarray:
    """(C, n, K) per-letter rows -> (K^n, C) product distributions.

    Row k of the result is the k-th sequence in lexicographic order.  With
    combine=np.add the per-letter rows are log-masses and the result holds
    their sums over each sequence.
    """
    c, n, k = rows.shape
    letters = np.ascontiguousarray(rows.transpose(1, 2, 0))  # (n, K, C): chains innermost
    cur = np.full((1, c), float(combine.identity))
    for t in range(n):
        cur = combine(cur[:, None, :], letters[t][None, :, :]).reshape(-1, c)
    return cur


# ---------------------------------------------------------------------------
# codebooks


@dataclass(frozen=True)
class Codebook:
    """u(i) drawn i.i.d. Q_U^n; v(i,j,m) drawn i.i.d. Q_{V|U=u(i)}^n.

    u_words has shape (N1, n) and v_words (N1, N2, M, n), both holding
    alphabet indices; N1 = floor(2^{nR1}), N2 = floor(2^{nR2}),
    M = floor(2^{nR}).
    """

    n: int
    r1: float
    r2: float
    r: float
    u_symbols: tuple
    v_symbols: tuple
    u_words: np.ndarray
    v_words: np.ndarray
    seed: int

    @property
    def num_u(self) -> int:
        return self.u_words.shape[0]

    @property
    def num_v(self) -> int:
        return self.v_words.shape[1]

    @property
    def num_messages(self) -> int:
        return self.v_words.shape[2]


def sample_codebook(
    q_u: Pmf, q_v_given_u: Channel, n: int, r1: float, r2: float, r: float, seed: int
) -> Codebook:
    """Draw a layered codebook; reproducible from the seed: random((N1, n))
    read by a replay of Generator.choice against Q_U, then random((N1, N2, M, n))
    for the outer words, drawn in runs of about _TRIAL_CHUNK letters so that
    no array but the words grows with the codebook."""
    if n < 1:
        raise ValueError(f"blocklength must be positive, got {n!r}")
    alphabets = check_parts("codebook", (("q_u", q_u, (), ("U",)),
                                         ("q_v_given_u", q_v_given_u, ("U",), ("V",))))
    n1, n2, m = _codebook_shape(n, r1, r2, r)
    gen = np.random.default_rng(seed)
    u_words = _replay_choice(q_u.probs, gen.random((n1, n)))
    rows = q_v_given_u.kernel[u_words][:, None]  # (N1, 1, n, |V|)
    v_words = np.empty((n1, n2, m, n), dtype=np.int64)
    outer = v_words.reshape(n1, n2 * m, n)
    # a chunk is k whole inner words' outer words, or w of one inner word's
    w = min(n2 * m, max(1, _TRIAL_CHUNK // n))
    k = max(1, _TRIAL_CHUNK // (n * n2 * m))
    for i in range(0, n1, k):
        for j in range(0, n2 * m, w):
            block = outer[i:i + k, j:j + w]
            _inverse_cdf(rows[i:i + k], gen.random(block.shape), out=block)
    return Codebook(
        n=n, r1=r1, r2=r2, r=r, u_symbols=alphabets["U"], v_symbols=alphabets["V"],
        u_words=u_words, v_words=v_words, seed=seed,
    )


def _codebook_shape(n: int, r1: float, r2: float, r: float) -> tuple[int, int, int]:
    """(N1, N2, M) at blocklength n, refused above the codeword guard."""
    n1, n2, m = index_count(n, r1), index_count(n, r2), index_count(n, r)
    total = n1 + n1 * n2 * m
    if total > _MAX_CODEWORDS:
        raise ValueError(f"codebook would hold {total} words; guard is {_MAX_CODEWORDS}")
    return n1, n2, m


def _draw_words(
    q_u: np.ndarray, kernel: np.ndarray, u_draws: np.ndarray, v_draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """T codebooks' inner words (T, N1, n) and outer words (T, N1, N2, M, n) from their uniforms."""
    u_words = _replay_choice(q_u, u_draws)
    return u_words, _inverse_cdf(kernel[u_words][:, :, None, None], v_draws)


# ---------------------------------------------------------------------------
# encoder / decoder


@dataclass(frozen=True)
class CodeLaw:
    """The laws of the layered scheme, read once off one joint over S, U, V, X, Y:
    q_u and q_v_given_u draw the codebook, log Q_{S|U,V} (|U|, |V|, |S|) weighs the
    encoder, q_x_given_uvs draws the input, q_uvy (flat) is the decoder's target."""

    joint: JointPmf
    q_u: Pmf
    q_v_given_u: Channel
    log_q_s_given_uv: np.ndarray
    q_x_given_uvs: Channel
    q_uvy: np.ndarray

    @classmethod
    def of(cls, joint: JointPmf) -> CodeLaw:
        for name in ("S", "U", "V", "X", "Y"):
            if name not in joint.names:
                raise ValueError(f"a code law needs a joint over S, U, V, X, Y; {name!r} is missing")
        with np.errstate(divide="ignore"):
            log_k = np.log(channel_from_joint(joint, ("U", "V"), ("S",)).kernel)
        return cls(
            joint=joint,
            q_u=Pmf(joint.alphabet("U"), _marginal_mass(joint, ("U",))),
            q_v_given_u=channel_from_joint(joint, ("U",), ("V",)),
            log_q_s_given_uv=log_k,
            q_x_given_uvs=channel_from_joint(joint, ("U", "V", "S"), ("X",)),
            q_uvy=_marginal_mass(joint, ("U", "V", "Y")).ravel(),
        )


def likelihood_encode(
    m: int, s: Sequence[Hashable], cb: Codebook, law: CodeLaw, seed: int
) -> tuple[int, int, tuple]:
    """Sample (i, j) with probability proportional to Q^n_{S|U,V}(s | u(i), v(i,j,m)),
    then draw the channel input x from Q^n_{X|U,V,S}."""
    _check_alphabets(cb, law.joint.alphabet("U"), law.joint.alphabet("V"))
    if not 0 <= m < cb.num_messages:
        raise ValueError(f"message {m!r} outside [0, {cb.num_messages})")
    if len(s) != cb.n:
        raise ValueError(f"state sequence has length {len(s)}, codebook has n={cb.n}")
    s_idx = _symbol_indices(s, law.joint.alphabet("S"))
    if s_idx is None:
        raise ValueError("state sequence contains symbols outside the S alphabet")

    pick_draws, x_draws = np.empty((1, 1)), np.empty((1, cb.n))
    _fill([np.random.default_rng(seed)], pick_draws, x_draws)
    ok, i, j, x_idx = _encode(
        law, cb.u_words[None], cb.v_words[None, :, :, m], s_idx[None], pick_draws, x_draws
    )
    if not ok[0]:
        raise EncoderFailure(
            f"state sequence has zero likelihood under all {cb.num_u * cb.num_v} codeword pairs"
        )
    x_alphabet = law.q_x_given_uvs.out_axes[0][1]
    return int(i[0]), int(j[0]), tuple(x_alphabet[k] for k in x_idx[0])


def _encode(
    law: CodeLaw, u_words: np.ndarray, v_words: np.ndarray, s_idx: np.ndarray,
    pick_draws: np.ndarray, x_draws: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The likelihood encoder on T trials: inner words (T, N1, n), the outer
    words (T, N1, N2, n) of each trial's message, states (T, n) and encoder
    uniforms (T, 1) and (T, n).  Returns the mask of trials with a pair of
    positive likelihood and, for those in order, i, j and X indices (T', n)."""
    loglik = law.log_q_s_given_uv[u_words[:, :, None, :], v_words, s_idx[:, None, None, :]]
    loglik = loglik.sum(axis=-1).reshape(len(s_idx), -1)  # (T, N1 N2)
    top = loglik.max(axis=1, keepdims=True)
    ok = top[:, 0] > -np.inf
    weights = np.exp(loglik[ok] - top[ok])
    weights /= weights.sum(axis=1, keepdims=True)
    i, j = np.divmod(_replay_choice(weights, pick_draws[ok, 0]), v_words.shape[2])

    t = np.flatnonzero(ok)
    rows = law.q_x_given_uvs.kernel[u_words[t, i], v_words[t, i, j], s_idx[t]]  # (T', n, |X|)
    return ok, i, j, _inverse_cdf(rows, x_draws[ok])


def typicality_decode(
    y: Sequence[Hashable], cb: Codebook, law: CodeLaw, eps: float
) -> tuple[int, int, int] | str:
    """The unique triple (i, j, m) with (u(i), v(i,j,m), y) letter-typical for
    Q_{U,V,Y}; the erasure symbol when zero or several triples qualify."""
    _check_alphabets(cb, law.joint.alphabet("U"), law.joint.alphabet("V"))
    if len(y) != cb.n:
        raise ValueError(f"output sequence has length {len(y)}, codebook has n={cb.n}")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and nonnegative, got {eps!r}")
    y_idx = _symbol_indices(y, law.joint.alphabet("Y"))
    if y_idx is None:
        return ERASURE
    flat = _decode(law, cb.u_words[None], cb.v_words[None], y_idx[None], eps)[0]
    return ERASURE if flat < 0 else tuple(map(int, np.unravel_index(flat, cb.v_words.shape[:3])))


def _decode(
    law: CodeLaw, u_words: np.ndarray, v_words: np.ndarray, y_idx: np.ndarray, eps: float
) -> np.ndarray:
    """The typicality decoder on T trials at once: u_words (T, N1, n),
    v_words (T, N1, N2, M, n) and outputs y_idx (T, n).  Returns each trial's
    flat index (i N2 + j) M + m of its one typical triple, or -1."""
    n_v, n_y = len(law.joint.alphabet("V")), len(law.joint.alphabet("Y"))
    trials, n = y_idx.shape
    codes = (u_words[:, :, None, None, :] * n_v + v_words) * n_y + y_idx[:, None, None, None, :]
    typical = _typical_rows(codes.reshape(-1, n), law.q_uvy, eps, n)
    typical = typical.reshape(trials, math.prod(v_words.shape[1:4]))
    return np.where(typical.sum(axis=1) == 1, typical.argmax(axis=1), -1)


# ---------------------------------------------------------------------------
# exact enumerations


def _check_alphabets(cb: Codebook, u_symbols: tuple, v_symbols: tuple) -> None:
    """Refuse a codebook whose U or V alphabet is not its consumer's."""
    if (cb.u_symbols, cb.v_symbols) != (u_symbols, v_symbols):
        raise ValueError(f"codebook alphabets U {cb.u_symbols!r}, V {cb.v_symbols!r} do not match "
                         f"U {u_symbols!r}, V {v_symbols!r}")


def _uv_codes(cb: Codebook) -> np.ndarray:
    """Every codeword's letters as u |V| + v, (N1, N2, M, n), in the
    narrowest unsigned dtype: the one codeword table of the exact
    enumerations."""
    n_v = len(cb.v_symbols)
    uv = cb.v_words.astype(np.min_scalar_type(len(cb.u_symbols) * n_v - 1))
    uv += (cb.u_words * n_v).astype(uv.dtype)[:, None, None, :]
    return uv


def _check_work(ops: int) -> None:
    """Refuse an enumeration of more than _MAX_ENUM_OPS multiply-adds; a count
    of more than 15 digits is printed by its order of magnitude."""
    if ops > _MAX_ENUM_OPS:
        count = ops if ops < 10 ** 15 else f"10^{math.log10(ops):.1f}"
        raise ValueError(f"enumeration needs ~{count} operations; guard is {_MAX_ENUM_OPS}")


def _half_word_ops(n_w: int, n: int) -> int:
    """|W|^n + |W|^(n-h): exact_output_divergence's multiply-adds at
    blocklength n for one distinct pair of half-words, its least work."""
    return n_w ** n + n_w ** (n - n // 2)


def _letter_ops(model: SdWtcModel, n: int) -> int:
    """sum_t |S|^(n-t+1) |Z|^t, a geometric sum in closed form:
    exact_message_channel's multiply-adds for one word of n letters."""
    n_s, n_z = len(model.s_symbols), len(model.z_symbols)
    return n_s * n_z * (n_s ** n - n_z ** n) // (n_s - n_z) if n_s != n_z else n * n_s ** (n + 1)


def _unique_keys(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(key, return_inverse=True) for keys in [0, bound): counted in
    a presence table when bound is at most _RANK_TABLE keys per row, else sorted."""
    if bound > _RANK_TABLE * len(key):
        return np.unique(key, return_inverse=True)
    present = np.zeros(bound, dtype=bool)
    present[key] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[key]


def _distinct_words(codes: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of (C, w) letter codes in [0, p), in lexicographic
    order, and the index of each row among them.

    Rows are keyed letter by letter as key * p + code; before a letter could
    push the key space past _RANK_TABLE C the keys are replaced by their
    ranks, which keeps their order, so _unique_keys counts them unless p
    alone exceeds _RANK_TABLE.  Each distinct row is copied from one row that
    has its key (return_index would force a stable sort).
    """
    key = np.zeros(codes.shape[0], dtype=np.int64)
    bound = 1  # every key is below bound
    for t in range(codes.shape[1]):
        if bound * p > _RANK_TABLE * key.size:
            ranks, key = _unique_keys(key, bound)
            bound = ranks.size
        key = key * p + codes[:, t]
        bound *= p
    distinct, inverse = _unique_keys(key, bound)
    first = np.empty(distinct.size, dtype=np.intp)
    first[inverse] = np.arange(key.size)
    return codes[first], inverse


def exact_output_divergence(cb: Codebook, q_w_given_uv: Channel, q_w: Pmf) -> float:
    """D(P_W^(B) || Q_W^n) in bits, enumerating every w in W^n.

    The induced output averages the per-codeword product laws uniformly over
    all Ncw = N1 N2 M codewords (i, j, m).  Splitting the letters at
    h = n // 2, each codeword is a pair of (u, v) half-words, and the law of
    a codeword is the product of its halves' laws, so the average is
    A G / Ncw: the columns of A (|W|^h x n_a) hold the laws of the n_a
    distinct first halves, and row a of G (n_a x |W|^(n-h)) sums the laws of
    the second halves that follow first half a, each as often as it does.
    That costs |W|^n n_a + |W|^(n-h) n_p multiply-adds for the n_p distinct
    (first, second) pairs, where n_a <= min(Ncw, (|U||V|)^h) and
    n_p <= Ncw; the guard counts them with n_a = n_p = 1 before the halves
    are ranked, and again once they are known, before any |W|^n table is
    built.  It differs from the per-codeword average only in rounding, by at
    most 1e-12 bits.
    """
    w = q_w_given_uv.out_names[:1] or ("W",)  # the one output axis, by whatever name
    alphabets = check_parts("exact_output_divergence", (("q_w_given_uv", q_w_given_uv, ("U", "V"), w),
                                                        ("q_w", q_w, (), w)))
    _check_alphabets(cb, alphabets["U"], alphabets["V"])
    n_w, h = len(q_w.symbols), cb.n // 2
    _check_work(_half_word_ops(n_w, cb.n))
    rows = q_w_given_uv.kernel.reshape(-1, n_w)  # (|U||V|, |W|)
    uv = _uv_codes(cb).reshape(-1, cb.n)  # (Ncw, n)
    first, ia = _distinct_words(uv[:, :h], len(rows))
    second, ib = _distinct_words(uv[:, h:], len(rows))
    pairs, ip = _unique_keys(ia * len(second) + ib, len(first) * len(second))  # sorted by first half
    _check_work(n_w ** cb.n * len(first) + n_w ** (cb.n - h) * len(pairs))

    starts = np.searchsorted(pairs, np.arange(len(first)) * len(second))
    weighted = _product_chain(rows[second]).T[pairs % len(second)]
    weighted *= np.bincount(ip)[:, None]  # each pair's count
    g = np.add.reduceat(weighted, starts, axis=0)  # (n_a, |W|^(n-h))
    induced = (_product_chain(rows[first]) @ g).ravel() / len(uv)
    reference = _product_chain(q_w.probs[None, None, :].repeat(cb.n, axis=1))[:, 0]

    mask = induced > ZERO_MASS
    if np.any(reference[mask] <= ZERO_MASS):
        return math.inf
    div = float(np.sum(induced[mask] * np.log2(induced[mask] / reference[mask])))
    return max(0.0, div)


def _state_law(model: SdWtcModel, n: int) -> np.ndarray:
    """W_S^n of all state sequences, lexicographic, as a column: the exp of
    their log-mass sums."""
    with np.errstate(divide="ignore"):
        log_ws = np.log(model.state_pmf.probs)
    return np.exp(_product_chain(log_ws[None, None, :].repeat(n, axis=1), np.add))


def _encoder_weights(lik: np.ndarray, counts: np.ndarray, ws: np.ndarray, pairs: int) -> np.ndarray:
    """The exact encoder law W_S^n(s) P_hat(d | m, s), in place of lik.

    lik holds the (|S|^n, D) log-likelihoods ln Q^n_{S|U,V}(s | d) of D
    words, word d standing for counts[d] of a message's pairs (pairs in all);
    ws is W_S^n as a column.  P_hat(d | m, s) is proportional to
    counts[d] Q^n(s | d); a state sequence no pair supports gives each word
    counts[d] / pairs.
    """
    top = lik.max(axis=1, keepdims=True)
    supported = top > -np.inf
    lik -= np.where(supported, top, 0.0)
    np.exp(lik, out=lik)
    lik *= counts
    lik *= ws / np.where(supported, lik.sum(axis=1, keepdims=True), 1.0)
    unsupported = ~supported[:, 0]
    lik[unsupported] = ws[unsupported] * (counts / pairs)
    return lik


@dataclass(frozen=True)
class InducedVsIdealized:
    """Exact joints over (m, i, j, s-sequence) and their distance.

    induced carries P_M(m) W_S^n(s) P_hat(i,j | m,s); idealized carries
    P_M(m) / (N1 N2) * Q^n_{S|U,V}(s | u(i), v(i,j,m)); per_message holds
    the conditional total variation given each m, and total_variation
    averages them under the uniform message law.
    """

    induced: np.ndarray
    idealized: np.ndarray
    per_message: tuple[float, ...]
    total_variation: float

    def tv_under(self, p_m: Sequence[float]) -> float:
        """Total variation when the message is drawn from p_m."""
        weights = np.asarray(p_m, dtype=float)
        # a NaN or negative weight fails weights >= 0, an infinite one the sum
        if (weights.shape != (len(self.per_message),) or not np.all(weights >= 0.0)
                or abs(weights.sum() - 1.0) > 1e-9):
            raise ValueError("p_m must be a distribution over the message set")
        return float(weights @ np.array(self.per_message))


def approximation_gap(model: SdWtcModel, policy: InputPolicy, cb: Codebook) -> InducedVsIdealized:
    """Exact TV between the scheme-induced joint and its idealized stand-in.

    One chain gives every pair's log-likelihood of every state sequence, in
    M N1 N2 |S|^n n additions, the count the guard bounds before any table is
    built; the induced joint is _encoder_weights over each message's pairs,
    each counted once.
    """
    law = CodeLaw.of(assemble_joint(model, policy))
    _check_alphabets(cb, law.joint.alphabet("U"), law.joint.alphabet("V"))
    n_s, m_count, pairs = len(model.s_symbols), cb.num_messages, cb.num_u * cb.num_v
    _check_work(m_count * pairs * n_s ** cb.n * cb.n)

    codes = np.moveaxis(_uv_codes(cb), 2, 0).reshape(-1, cb.n)  # (M N1 N2, n), by (m, i, j)
    loglik = _product_chain(law.log_q_s_given_uv.reshape(-1, n_s)[codes], np.add)  # (Ns, M N1 N2)
    induced = np.stack(np.split(loglik, m_count, axis=1))  # (M, Ns, N1 N2): a block a message
    del loglik
    idealized = np.exp(induced)
    idealized /= pairs * m_count
    ws, ones = _state_law(model, cb.n), np.ones(pairs)
    for lik in induced:
        _encoder_weights(lik, ones, ws, pairs)
    induced /= m_count
    diff = np.empty_like(induced[0])  # one message's |induced - idealized|, reused
    per_message = tuple(float(0.5 * np.abs(np.subtract(a, b, out=diff), out=diff).sum() * m_count)
                        for a, b in zip(induced, idealized))
    shape = (m_count, cb.num_u, cb.num_v, len(ws))  # both joints as (M, N1, N2, Ns) views
    induced, idealized = (a.transpose(0, 2, 1).reshape(shape) for a in (induced, idealized))
    return InducedVsIdealized(induced, idealized, per_message, float(sum(per_message) / m_count))


def exact_message_channel(model: SdWtcModel, policy: InputPolicy, cb: Codebook) -> Channel:
    """The exact channel from the message to the eavesdropper's sequence.

    P(z^n | m) = sum_s W_S^n(s) sum_{i,j} P_hat(i,j|m,s) prod_t K(z_t | ...),
    where K marginalizes the input sampling step: K(z | u,v,s) =
    sum_x Q_{X|U,V,S}(x|u,v,s) W_Z(z|x,s).

    For each message the N1 N2 pairs c = (i, j) are grouped into their D
    distinct (u, v) words, each weighed by its count.  The weight tensor
    T[d, s_1..s_n] = P_hat(d|m,s) W_S^n(s), from _encoder_weights, is
    contracted one letter at a time: step t turns the leading s_t axis into
    a trailing z_t axis with the word's |S| x |Z| kernel of letter t (an
    n-mode product), so after n steps the axes are z_1..z_n in lexicographic
    order and the words are summed out.  That is D sum_t |S|^(n-t+1) |Z|^t multiply-adds and two
    D max(|S|, |Z|)^n tables per message; the guard counts
    sum_m D_m sum_t |S|^(n-t+1) |Z|^t with every D_m = 1 before any word is
    ranked, and again once every message's words are known, before any table
    is built.
    """
    law = CodeLaw.of(assemble_joint(model, policy))
    _check_alphabets(cb, law.joint.alphabet("U"), law.joint.alphabet("V"))
    n_s, n_z = len(model.s_symbols), len(model.z_symbols)
    pairs, letter_ops = cb.num_u * cb.num_v, _letter_ops(model, cb.n)
    _check_work(letter_ops * cb.num_messages)
    log_k = law.log_q_s_given_uv.reshape(-1, n_s)  # rows by (u, v) letter code u |V| + v
    uv = _uv_codes(cb)
    distinct = []  # each message's distinct words and how many pairs share each
    for m in range(cb.num_messages):
        words, inverse = _distinct_words(uv[:, :, m].reshape(pairs, cb.n), len(log_k))
        distinct.append((words, np.bincount(inverse, minlength=len(words))))
    _check_work(letter_ops * sum(len(words) for words, _ in distinct))

    ws = _state_law(model, cb.n)
    w_z = model.channel.kernel.sum(axis=2)  # (|X|, |S|, |Z|)
    k_z = np.einsum("uvsx,xsz->uvsz", law.q_x_given_uvs.kernel, w_z).reshape(-1, n_s, n_z)

    kernel = np.empty((cb.num_messages, n_z ** cb.n))
    for m, (words, counts) in enumerate(distinct):
        lik = _product_chain(log_k[words], np.add)  # (s_1..s_n, D) log-likelihoods
        cur = np.ascontiguousarray(_encoder_weights(lik, counts, ws, pairs).T)  # (D, s_1..s_n)
        del lik
        letters = k_z[words]  # (D, n, |S|, |Z|)
        # letter t: (D, s_t, rest) -> (D, rest, z_t), rest = s_t+1..s_n z_1..z_t-1
        for t in range(cb.n):
            cur = cur.reshape(len(words), n_s, -1).transpose(0, 2, 1) @ letters[:, t]
        kernel[m] = cur.reshape(len(words), -1).sum(axis=0)

    z_seqs = tuple(iter_product(model.z_symbols, repeat=cb.n))
    return Channel(
        (("M", tuple(range(cb.num_messages))),),
        (("Zn", z_seqs),),
        kernel,
    )


@dataclass(frozen=True)
class CapacityResult:
    """Capacity iteration output with the standard sandwich bounds."""

    bits: float
    lower: float
    upper: float
    iterations: int


def leakage_capacity(induced_channel: Channel) -> CapacityResult:
    """max over P_M of I(M; Z-sequence), by alternating maximization.

    Iterates until the standard upper/lower capacity bounds agree to 1e-9
    bits; raises after 10^4 iterations with the residual gap.
    """
    k = induced_channel.kernel.reshape(
        int(np.prod(induced_channel.in_shape)), int(np.prod(induced_channel.out_shape))
    )
    rows, _ = k.shape
    p = np.full(rows, 1.0 / rows)
    support = k > ZERO_MASS
    # masses at or below ZERO_MASS take log2(1.0), which is exactly +0.0
    log_k = np.log2(np.where(support, k, 1.0))

    gap = math.inf
    for it in range(1, 10_001):
        q = p @ k
        log_q = np.log2(np.where(q > ZERO_MASS, q, 1.0))
        d = np.where(support, k * (log_k - log_q[None, :]), 0.0).sum(axis=1)
        lower = float(p @ d)
        upper = float(d.max())
        gap = upper - lower
        if gap <= 1e-9:
            return CapacityResult(bits=lower, lower=lower, upper=upper, iterations=it)
        p = p * np.exp2(d - upper)
        p /= p.sum()
    raise RuntimeError(f"capacity iteration did not converge; residual gap {gap!r} bits")


# ---------------------------------------------------------------------------
# Monte Carlo experiments


@dataclass(frozen=True)
class TrialRecord:
    message: int
    chosen: tuple[int, int]
    state: tuple
    channel_input: tuple
    received: tuple
    eavesdropped: tuple
    decoded: tuple[int, int, int] | str


@dataclass(frozen=True)
class ReliabilityResult:
    """Per-message and pooled decoding-error estimates."""

    n: int
    trials: int
    num_messages: int
    message_trials: tuple[int, ...]
    message_errors: tuple[int, ...]
    erasures: int
    encoder_failures: int
    records: tuple[TrialRecord, ...] | None = None

    @property
    def average_error_rate(self) -> float:
        return sum(self.message_errors) / self.trials

    @property
    def max_error_rate(self) -> float:
        return max(
            e / t for e, t in zip(self.message_errors, self.message_trials) if t > 0
        )

    @property
    def average_interval(self) -> tuple[float, float]:
        return wilson_interval(sum(self.message_errors), self.trials)


def run_reliability_experiment(
    model: SdWtcModel, policy: InputPolicy, n: int, rates: CodeRates | tuple[float, float, float],
    eps: float = DEFAULT_EPS, trials: int = 200, seed: int = 0, keep_records: bool = False,
) -> ReliabilityResult:
    """Monte Carlo decoding-error estimate of the layered scheme.

    Each trial draws a fresh codebook, state sequence, and channel noise
    from generators derived off (seed, trial); messages cycle through the
    message set so per-message estimates stay balanced.  A decode counts
    as an error when the decoded message differs from the sent one
    (erasures included); encoder failures are folded in as errors.

    Trials run in index space, stacked in chunks of about 2^15 codebook
    letters and at most _SEED_BLOCK trials.  The seeds are derived and
    hashed one block of whole chunks at a time (_seed_chunks); one
    Generator, set to each trial's seed words for each role in turn, fills
    the trial's rows of the chunk's uniforms with what
    np.random.default_rng(seed) would draw, in a lone run's order.  Every
    Generator.choice draw is replayed on them, the codebooks, encoder,
    channel and decoder run as arrays per chunk, and each chunk adds its
    trials and errors to per-message tallies, so memory does not grow with
    the trial count unless keep_records is set.
    """
    r1, r2, r = rates
    if n < 1 or not 0.0 <= eps < math.inf:
        raise ValueError(f"need blocklength n >= 1 and eps >= 0 finite, got n={n!r}, eps={eps!r}")
    check_trials(trials)
    law = CodeLaw.of(assemble_joint(model, policy))
    n1, n2, num_messages = _codebook_shape(n, r1, r2, r)
    for name, symbols in (("S", model.s_symbols), ("X", model.x_symbols), ("Y", model.y_symbols)):
        assert law.joint.alphabet(name) == symbols, f"code law and model disagree on {name}"

    yz_rows = model.channel.kernel.reshape(len(model.x_symbols), len(model.s_symbols), -1)
    n_z = len(model.z_symbols)
    gen = np.random.default_rng(0)  # its state is replaced before each trial's draws
    message_trials = np.zeros(num_messages, dtype=np.int64)
    message_errors = np.zeros(num_messages, dtype=np.int64)
    erasures = encoder_failures = 0
    records: list[TrialRecord] = []

    chunk = min(trials, _SEED_BLOCK, max(1, _TRIAL_CHUNK // (n1 * n2 * num_messages * n)))
    u_draws, v_draws = np.empty((chunk, n1, n)), np.empty((chunk, n1, n2, num_messages, n))
    s_draws, yz_draws, pick_draws, x_draws = (np.empty((chunk, w)) for w in (n, n, 1, n))
    for start, words in zip(range(0, trials, chunk), _seed_chunks(seed, 3, trials, chunk)):
        c = len(words)
        _fill(_reseeded(gen, words[:, 0]), u_draws, v_draws)
        _fill(_reseeded(gen, words[:, 1]), pick_draws, x_draws)
        _fill(_reseeded(gen, words[:, 2]), s_draws, yz_draws)
        u_words, v_words = _draw_words(
            law.q_u.probs, law.q_v_given_u.kernel, u_draws[:c], v_draws[:c]
        )
        s_idx = _replay_choice(model.state_pmf.probs, s_draws[:c])
        m = np.arange(start, start + c) % num_messages
        ok, i, j, x_idx = _encode(law, u_words, v_words[np.arange(c), :, :, m], s_idx,
                                  pick_draws[:c], x_draws[:c])
        yz = _inverse_cdf(yz_rows[x_idx, s_idx[ok]], yz_draws[:c][ok])
        flat = _decode(law, u_words[ok], v_words[ok], yz // n_z, eps)
        wrong = np.ones(c, dtype=bool)
        wrong[ok] = (flat < 0) | (flat % num_messages != m[ok])
        message_trials += np.bincount(m, minlength=num_messages)
        message_errors += np.bincount(m[wrong], minlength=num_messages)
        encoder_failures += c - int(ok.sum())
        erasures += int((flat < 0).sum())
        if keep_records:
            for k, t in enumerate(np.flatnonzero(ok)):
                s, x, y, z = (tuple(a[q] for q in row) for a, row in (
                    (model.s_symbols, s_idx[t]), (model.x_symbols, x_idx[k]),
                    (model.y_symbols, yz[k] // n_z), (model.z_symbols, yz[k] % n_z)))
                decoded = ERASURE if flat[k] < 0 else tuple(
                    map(int, np.unravel_index(flat[k], (n1, n2, num_messages))))
                records.append(TrialRecord(int(m[t]), (int(i[k]), int(j[k])), s, x, y, z, decoded))

    return ReliabilityResult(
        n=n, trials=trials, num_messages=num_messages,
        message_trials=tuple(message_trials.tolist()), message_errors=tuple(message_errors.tolist()),
        erasures=erasures, encoder_failures=encoder_failures,
        records=tuple(records) if keep_records else None,
    )


@dataclass(frozen=True)
class BinningResult:
    """Outcome of the binned CSI + one-time-pad protocol."""

    n: int
    trials: int
    num_bins: int
    num_keys: int
    num_messages: int
    errors: int
    csi_failures: int
    x_decode_failures: int
    key_decode_failures: int
    key_tv_from_uniform: float

    @property
    def error_rate(self) -> float:
        return self.errors / self.trials

    @property
    def error_interval(self) -> tuple[float, float]:
        return wilson_interval(self.errors, self.trials)


def binning_otp_protocol(
    rln_example: RlnModel, n: int, r_a: float, r_bin: float, r: float,
    trials: int = 200, seed: int = 0, eps: float = DEFAULT_EPS,
) -> BinningResult:
    """Monte Carlo run of the binned-CSI one-time-pad protocol.

    Per trial: draw 2^{nR_A} description words i.i.d. from the state law,
    split into 2^{nR_bin} bins; pick the first word jointly typical with
    the realized state; pad the message with the in-bin key; send the
    (pad, bin) x-codeword over the main channel; the receiver decodes the
    x-codeword by joint typicality with y, recovers the key from its side
    information s1, and unpads.  Failures at any stage count as errors.
    The reported key TV measures how far the selected keys are from
    uniform — the pad leaks nothing exactly when the key is uniform.

    Each trial runs as its own pass (stacking the trials measured no faster:
    the stacked arrays are memory-bound).  Its two generators are reused
    ones set to the trial's seed words, hashed a block of _SEED_BLOCK trials
    at a time, so they draw what np.random.default_rng(seed) draws; the
    draws from the state law replay Generator.choice's rule on random()
    uniforms.  The CSI search takes the first description word equal to the
    state sequence: the word a typicality scan of all B K words finds first.
    """
    if len(rln_example.s2_symbols) != 1:
        raise ValueError("protocol needs a constant S2 (eavesdropper side information)")
    if n < 1 or not 0.0 <= eps < math.inf:
        raise ValueError(f"need blocklength n >= 1 and eps >= 0 finite, got n={n!r}, eps={eps!r}")
    if r < 0.0 or r_bin < 0.0 or r_a < 0.0:
        raise ValueError("rates must be nonnegative")
    if r > r_a - r_bin + 1e-12:
        raise ValueError(f"message rate {r} exceeds the key rate {r_a} - {r_bin}; pad impossible")
    check_trials(trials)

    num_bins, num_keys, num_messages = (index_count(n, q) for q in (r_bin, r_a - r_bin, r))
    if num_bins * num_keys + num_messages * num_bins > _MAX_CODEWORDS:
        raise ValueError("codebooks exceed the size guard")

    ws = rln_example.state_pmf.probs
    n_s = len(rln_example.s_symbols)
    n_x = len(rln_example.x_symbols)
    n_s1 = len(rln_example.s1_symbols)
    n_y = len(rln_example.y_symbols)
    n_z = len(rln_example.z_symbols)

    # A = S, X uniform: the typicality targets collapse to these joints.
    w_s1 = rln_example.state_channel.kernel.sum(axis=2)  # (|S|, |S1|)
    p_as1 = (ws[:, None] * w_s1).ravel()  # (a, s1)
    p_xy = (rln_example.main_channel.kernel.sum(axis=2) / n_x).ravel()  # (x, y)

    yz_rows = rln_example.main_channel.kernel.reshape(n_x, -1)
    s1_rows = rln_example.state_channel.kernel.reshape(n_s, -1)  # S2 is constant: (S1, S2) = S1

    wrong = csi_failures = x_failures = key_failures = 0
    key_counts = np.zeros(num_keys, dtype=np.int64)
    book_gen, noise_gen = np.random.default_rng(0), np.random.default_rng(0)
    trial_gens = (pair for words in _seed_chunks(seed, 2, trials, _SEED_BLOCK)
                  for pair in zip(_reseeded(book_gen, words[:, 0]), _reseeded(noise_gen, words[:, 1])))
    for book_rng, noise in trial_gens:
        a_words = _replay_choice(ws, book_rng.random((num_bins, num_keys, n)))
        x_words = book_rng.integers(0, n_x, size=(num_messages, num_bins, n))

        # the joint type of (s, a) is zero off its diagonal: a word is typical
        # with s exactly when it equals s and s is typical under W_S, so the
        # first equal word is the full scan's first hit
        s_idx = _replay_choice(ws, noise.random(n))
        match = (a_words == s_idx).all(axis=2).ravel()
        hit = int(match.argmax())
        if not (match[hit] and _typical_rows(s_idx[None], ws, eps, n)[0]):
            csi_failures += 1
            continue
        b, k = divmod(hit, num_keys)
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

        as1_codes = a_words[b_hat] * n_s1 + s1_idx[None, :]
        key_hits = np.nonzero(_typical_rows(as1_codes, p_as1, eps, n))[0]
        if key_hits.size != 1:
            key_failures += 1
            continue
        wrong += (m_tilde_hat - int(key_hits[0])) % num_messages != m

    picks = int(key_counts.sum())
    key_tv = float(0.5 * np.abs(key_counts / picks - 1.0 / num_keys).sum()) if picks else 1.0
    return BinningResult(
        n=n, trials=trials, num_bins=num_bins, num_keys=num_keys, num_messages=num_messages,
        errors=csi_failures + x_failures + key_failures + wrong, csi_failures=csi_failures,
        x_decode_failures=x_failures, key_decode_failures=key_failures, key_tv_from_uniform=key_tv,
    )
