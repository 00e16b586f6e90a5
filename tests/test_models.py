"""Model containers, the benchmark builders, and spec round-trips."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from identities import random_rln_model
from identities import random_model as identities_random_model
from sdwtc.cli import load_channel_spec, load_policy_spec
from sdwtc.models import (
    ERASURE,
    POLICY_KINDS,
    InputPolicy,
    RlnModel,
    SdWtcModel,
    assemble_joint,
    build_rln_example,
    build_semideterministic,
    gp_policy,
    joint_plan,
    lift_side_information,
    model_from_dict,
    model_to_dict,
    policy_blocks,
)
from sdwtc.models import _axes_of, _part_axes
from sdwtc.prob import (
    Channel,
    Pmf,
    bernoulli,
    binary_entropy,
    entropy,
    marginalize,
    mutual_information,
    uniform,
)

RNG_SEED = 20240818


def random_model(rng: np.random.Generator, ns=2, nx=2, ny=2, nz=2) -> SdWtcModel:
    ws = rng.dirichlet(np.ones(ns))
    k = rng.dirichlet(np.ones(ny * nz), size=(nx, ns)).reshape(nx, ns, ny, nz)
    return SdWtcModel(
        state_pmf=Pmf(tuple(range(ns)), ws),
        channel=Channel(
            in_axes=(("X", tuple(range(nx))), ("S", tuple(range(ns)))),
            out_axes=(("Y", tuple(range(ny))), ("Z", tuple(range(nz)))),
            kernel=k,
        ),
    )


def random_policy(rng: np.random.Generator, model: SdWtcModel, cu=2, cv=2) -> InputPolicy:
    ns, nx = len(model.s_symbols), len(model.x_symbols)
    k = rng.dirichlet(np.ones(cu * cv * nx), size=ns).reshape(ns, cu, cv, nx)
    return gp_policy(model.s_symbols, tuple(range(cu)), tuple(range(cv)), model.x_symbols, k)


# ---------------------------------------------------------------------------
# container validation


def test_model_rejects_misnamed_kernel():
    k = np.full((2, 2, 2, 2), 0.25)
    ch = Channel((("S", (0, 1)), ("X", (0, 1))), (("Y", (0, 1)), ("Z", (0, 1))), k)
    with pytest.raises(ValueError):
        SdWtcModel(state_pmf=bernoulli(0.5), channel=ch)


def test_model_rejects_alphabet_mismatch():
    k = np.full((2, 3, 2, 2), 0.25)
    ch = Channel((("X", (0, 1)), ("S", (0, 1, 2))), (("Y", (0, 1)), ("Z", (0, 1))), k)
    with pytest.raises(ValueError):
        SdWtcModel(state_pmf=bernoulli(0.5), channel=ch)


def test_records_refuse_a_wrong_part_type():
    pmf, ch = bernoulli(0.5), random_model(np.random.default_rng(RNG_SEED)).channel
    with pytest.raises(ValueError, match="SdWtcModel state_pmf must be a Pmf, got a Channel"):
        SdWtcModel(state_pmf=ch, channel=ch)
    with pytest.raises(ValueError, match="SdWtcModel channel must be a Channel from"):
        SdWtcModel(state_pmf=pmf, channel=pmf)
    with pytest.raises(ValueError, match="InputPolicy kernel must be a Channel from"):
        InputPolicy(np.full((2, 1, 1, 2), 0.5))
    ex = build_rln_example(0.25, 0.5)
    with pytest.raises(ValueError, match="RlnModel main_channel must be a Channel from"):
        RlnModel(state_pmf=ex.state_pmf, state_channel=ex.state_channel, main_channel=ex.state_channel)


def test_records_refuse_parts_that_disagree_on_an_alphabet():
    ex = build_rln_example(0.25, 0.5)
    relabelled = Pmf(("a", "b"), ex.state_pmf.probs)
    with pytest.raises(ValueError, match="RlnModel parts disagree on the S alphabet"):
        RlnModel(state_pmf=relabelled, state_channel=ex.state_channel, main_channel=ex.main_channel)
    model = random_model(np.random.default_rng(RNG_SEED))
    with pytest.raises(ValueError, match="SdWtcModel parts disagree on the S alphabet"):
        SdWtcModel(state_pmf=relabelled, channel=model.channel)


def test_policy_rejects_wrong_output_names():
    k = np.full((2, 2, 2), 0.25)
    ch = Channel((("S", (0, 1)),), (("V", (0, 1)), ("X", (0, 1))), k)
    with pytest.raises(ValueError):
        InputPolicy(ch)


# ---------------------------------------------------------------------------
# joint assembly


def test_assemble_joint_axes_and_mass():
    rng = np.random.default_rng(RNG_SEED)
    model = random_model(rng)
    policy = random_policy(rng, model)
    j = assemble_joint(model, policy)
    assert j.names == ("S", "U", "V", "X", "Y", "Z")
    assert j.mass.sum() == pytest.approx(1.0, abs=1e-12)
    # S-marginal is the state law, untouched by the policy
    assert np.allclose(marginalize(j, ("S",)).mass, model.state_pmf.probs, atol=1e-12)


def test_assemble_joint_markov_structure():
    # (U, V) - (X, S) - (Y, Z) holds for every policy by construction
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(20):
        model = random_model(rng)
        policy = random_policy(rng, model)
        j = assemble_joint(model, policy)
        i_leak = mutual_information(j, ("U", "V"), ("Y", "Z"), given=("X", "S"))
        assert abs(i_leak) < 1e-10


def test_assemble_joint_rejects_foreign_policy():
    rng = np.random.default_rng(RNG_SEED + 2)
    model = random_model(rng, ns=2)
    other = random_model(rng, ns=3)
    policy = random_policy(rng, other)
    with pytest.raises(ValueError):
        assemble_joint(model, policy)


# ---------------------------------------------------------------------------
# the binary benchmark family


def _einsum_joint(kind, model, aux, stacks) -> np.ndarray:
    """The (B, ...) joints of a stack of policies as one np.einsum of the
    kind's factors in its product order, each joint axis placed where it
    first appears: the reference joint_plan's products must match."""
    spec = POLICY_KINDS[kind]
    fields = [field for field, _, _ in spec.parts]
    part_axes = {field: ins + outs for field, (ins, outs) in zip(fields, _part_axes(spec, model, aux))}
    index: dict[str, int] = {}
    operands: list = []
    for name in spec.product:
        if name in part_axes:
            axes, batch = part_axes[name], [0]
            arr = stacks[fields.index(name)]
            arr = arr.reshape(len(arr), *(len(a) for _, a in axes))
        else:
            f = getattr(model, name)
            axes, batch = _axes_of(f, ("S",)), []
            arr = f.probs if isinstance(f, Pmf) else f.kernel
        for a, _ in axes:
            index.setdefault(a, len(index) + 1)
        operands += [arr, batch + [index[a] for a, _ in axes]]
    return np.einsum(*operands, list(range(len(index) + 1)))


@pytest.mark.parametrize("kind", sorted(POLICY_KINDS))
def test_joint_plan_masses_are_the_einsum_of_the_factors(kind):
    rng = np.random.default_rng(RNG_SEED + 40)
    for _ in range(15):
        sizes = [int(k) for k in rng.integers(1, 4, size=4)]
        if kind == "rln":
            model, aux = random_rln_model(rng, *sizes), ((0, 1), (0, 1, 2))
        else:
            model = random_model(rng, *sizes)
            aux = {"gp": ((0, 1), (0, 1, 2)), "x_given_s": (), "ceg": ((0, 1, 2),)}[kind]
        shapes, _ = policy_blocks(kind, model, aux)
        _, mass = joint_plan(kind, model, aux)
        for b in (1, 7):
            stacks = [rng.dirichlet(np.ones(d), size=(b, rows)) for rows, d in shapes]
            for s in stacks:  # exact zeros of both signs, as projected rows can hold
                s[rng.random(s.shape) < 0.2] = 0.0
                s[rng.random(s.shape) < 0.1] = -0.0
            got, want = mass(stacks), _einsum_joint(kind, model, aux, stacks)
            assert got.flags.c_contiguous
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_rln_example_state_entropy_complements_channel():
    # the state entropy is tuned to 1 - h(alpha) so the two rate terms meet
    for alpha in (0.1, 0.25, 0.4):
        ex = build_rln_example(alpha, 0.5)
        h_s = entropy(ex.state_pmf)
        assert h_s == pytest.approx(1.0 - binary_entropy(alpha), abs=1e-9)


def test_rln_example_structure():
    ex = build_rln_example(0.25, 0.5)
    assert ex.s1_symbols == (0, 1, ERASURE)
    assert len(ex.s2_symbols) == 1  # eavesdropper side info is constant
    assert ex.main_channel.kernel.shape == (2, 2, 2)
    # Z = X exactly: the Z-marginal of the main kernel is the identity
    z_given_x = ex.main_channel.kernel.sum(axis=1)
    assert np.allclose(z_given_x, np.eye(2), atol=1e-12)
    # Y|X is the symmetric crossover channel
    y_given_x = ex.main_channel.kernel.sum(axis=2)
    assert np.allclose(y_given_x, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)


def test_rln_example_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_rln_example(0.0, 0.5)
    with pytest.raises(ValueError):
        build_rln_example(0.5, 0.5)
    with pytest.raises(ValueError):
        build_rln_example(0.25, 0.0)
    with pytest.raises(ValueError):
        build_rln_example(0.25, 1.0)


def test_lift_side_information_shapes_and_mass():
    ex = build_rln_example(0.25, 0.5)
    lifted = lift_side_information(ex)
    assert len(lifted.y_symbols) == 2 * 3  # (y, s1) pairs
    assert len(lifted.z_symbols) == 2 * 1  # (z, s2) pairs
    k = lifted.channel.kernel
    assert np.allclose(k.sum(axis=(2, 3)), 1.0, atol=1e-9)


def test_lift_side_information_preserves_y_marginal():
    # folding S1 into Y must not change what Y alone says about X
    ex = build_rln_example(0.25, 0.5)
    lifted = lift_side_information(ex)
    # group lifted Y-symbols by their y component and compare kernels
    y_syms = lifted.y_symbols
    w = lifted.channel.kernel  # (x, s, y', z')
    for yi, y in enumerate(ex.y_symbols):
        cols = [i for i, (yy, _) in enumerate(y_syms) if yy == y]
        got = w[:, :, cols, :].sum(axis=(2, 3))
        want = np.stack(
            [ex.main_channel.kernel[:, yi, :].sum(axis=1)] * len(ex.s_symbols), axis=1
        )
        assert np.allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# semideterministic builder


def test_semideterministic_xor_table():
    w_s = bernoulli(0.3)
    kz = np.full((2, 2, 2), 0.5)
    ch = Channel((("X", (0, 1)), ("S", (0, 1))), (("Z", (0, 1)),), kz)
    model = build_semideterministic(lambda x, s: x ^ s, ch, w_s)
    # Y-marginal rows are point masses at x xor s
    for xi in (0, 1):
        for si in (0, 1):
            row = model.channel.kernel[xi, si].sum(axis=1)
            assert row[xi ^ si] == pytest.approx(1.0, abs=1e-12)


def test_semideterministic_accepts_mapping_and_rejects_partial():
    w_s = bernoulli(0.5)
    kz = np.full((2, 2, 2), 0.5)
    ch = Channel((("X", (0, 1)), ("S", (0, 1))), (("Z", (0, 1)),), kz)
    table = {(x, s): max(x, s) for x in (0, 1) for s in (0, 1)}
    model = build_semideterministic(table, ch, w_s)
    assert len(model.y_symbols) == 2
    del table[(1, 1)]
    with pytest.raises(ValueError):
        build_semideterministic(table, ch, w_s)


# ---------------------------------------------------------------------------
# document round-trips


def test_generic_model_round_trip():
    rng = np.random.default_rng(RNG_SEED + 3)
    model = random_model(rng, ns=3, nx=2, ny=2, nz=3)
    doc = model_to_dict(model)
    back = model_from_dict(doc)
    assert isinstance(back, SdWtcModel)
    assert back.s_symbols == model.s_symbols
    assert np.array_equal(back.state_pmf.probs, model.state_pmf.probs)
    assert np.array_equal(back.channel.kernel, model.channel.kernel)


def test_rln_model_round_trip():
    ex = build_rln_example(0.25, 0.5)
    back = model_from_dict(model_to_dict(ex))
    assert isinstance(back, RlnModel)
    assert back.s1_symbols == ex.s1_symbols
    assert np.array_equal(back.state_channel.kernel, ex.state_channel.kernel)
    assert np.array_equal(back.main_channel.kernel, ex.main_channel.kernel)


def test_round_trip_survives_json():
    ex = lift_side_information(build_rln_example(0.1, 0.8))
    doc = json.loads(json.dumps(model_to_dict(ex)))
    back = model_from_dict(doc)
    # tuple symbols come back as tuples, not lists
    assert back.y_symbols == ex.y_symbols
    assert np.allclose(back.channel.kernel, ex.channel.kernel, atol=0.0)


_FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures"


@pytest.mark.parametrize(
    "name", ["bsc_q010_copy_tap.json", "bsc_q011.json", "lifted_benchmark.json", "wiretap.json"]
)
def test_model_to_dict_writes_the_generic_fixture_back(name):
    # the loader's inverse: field order, tuple symbols and float bits included
    path = _FIXTURES / name
    with open(path) as fh:
        doc = json.load(fh)
    out = model_to_dict(load_channel_spec(str(path)))
    assert out == doc
    assert json.dumps(out) == json.dumps(doc)


# each class's *_symbols accessors as they read before the classes declared
# their parts: the part and axis position each one took its alphabet from
HAND_WRITTEN_ACCESSORS = {
    SdWtcModel: {
        "s": lambda m: m.state_pmf.symbols,
        "x": lambda m: m.channel.in_axes[0][1],
        "y": lambda m: m.channel.out_axes[0][1],
        "z": lambda m: m.channel.out_axes[1][1],
    },
    RlnModel: {
        "s": lambda m: m.state_pmf.symbols,
        "s1": lambda m: m.state_channel.out_axes[0][1],
        "s2": lambda m: m.state_channel.out_axes[1][1],
        "x": lambda m: m.main_channel.in_axes[0][1],
        "y": lambda m: m.main_channel.out_axes[0][1],
        "z": lambda m: m.main_channel.out_axes[1][1],
    },
    InputPolicy: {
        "s": lambda p: p.kernel.in_axes[0][1],
        "u": lambda p: p.kernel.out_axes[0][1],
        "v": lambda p: p.kernel.out_axes[1][1],
        "x": lambda p: p.kernel.out_axes[2][1],
    },
}


def _records():
    """Every model in bench/fixtures, the gp policy there, the rln example
    and its lifting, and seeded random generic and rln models."""
    models = [load_channel_spec(str(path)) for path in sorted(_FIXTURES.glob("*.json"))
              if json.loads(path.read_text())["kind"] in ("generic", "rln", "rln_example", "semideterministic")]
    policy = load_policy_spec(str(_FIXTURES / "uniform_v_is_x.json"), models[0])
    rng = np.random.default_rng(RNG_SEED + 5)
    return [*models, policy, build_rln_example(0.25, 0.5), lift_side_information(build_rln_example(0.1, 0.8)),
            *(identities_random_model(rng, ns=3, nx=2, ny=3, nz=2) for _ in range(3)),
            *(random_rln_model(rng, ns=3, ns1=2, ns2=3) for _ in range(3))]


def test_symbol_accessors_read_what_the_hand_written_ones_read():
    records = _records()
    assert {type(r) for r in records} == set(HAND_WRITTEN_ACCESSORS)
    for record in records:
        accessors = HAND_WRITTEN_ACCESSORS[type(record)]
        assert {a[:-len("_symbols")] for a in dir(record) if a.endswith("_symbols")} == set(accessors)
        for axis, read in accessors.items():
            assert getattr(record, f"{axis}_symbols") == read(record), (record, axis)


def test_model_to_dict_writes_the_rln_document():
    assert model_to_dict(build_rln_example(0.25, 0.5)) == {
        "kind": "rln",
        "alphabets": {"S": [0, 1], "S1": [0, 1, "?"], "S2": [0], "X": [0, 1], "Y": [0, 1], "Z": [0, 1]},
        "state_pmf": [0.9711242907346787, 0.028875709265321348],
        "state_kernel": [[[0.5], [0.0], [0.5]], [[0.0], [0.5], [0.5]]],
        "main_kernel": [[[0.75, 0.0], [0.25, 0.0]], [[0.0, 0.25], [0.0, 0.75]]],
    }


def test_model_from_dict_rejects_unknown_kind():
    for kind in ("mystery", ["generic"]):
        with pytest.raises(ValueError, match="unknown channel-spec kind"):
            model_from_dict({"kind": kind})


def test_model_from_dict_rejects_unnormalized_kernel():
    model = random_model(np.random.default_rng(RNG_SEED + 4))
    doc = model_to_dict(model)
    doc["kernel"][0][0][0][0] += 0.1
    with pytest.raises(ValueError):
        model_from_dict(doc)


def test_rln_example_kind_from_dict():
    doc = {"kind": "rln_example", "alpha": 0.25, "sigma": 0.5}
    model = model_from_dict(doc)
    assert isinstance(model, RlnModel)
    ref = build_rln_example(0.25, 0.5)
    assert np.allclose(model.state_pmf.probs, ref.state_pmf.probs, atol=0.0)


def test_semideterministic_kind_from_dict():
    doc = {
        "kind": "semideterministic",
        "alphabets": {"S": [0, 1], "X": [0, 1], "Z": [0, 1]},
        "state_pmf": [0.5, 0.5],
        "g": [[0, 1], [1, 0]],
        "z_kernel": [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
    }
    model = model_from_dict(doc)
    assert isinstance(model, SdWtcModel)
    for xi in (0, 1):
        for si in (0, 1):
            row = model.channel.kernel[xi, si].sum(axis=1)
            assert row[xi ^ si] == pytest.approx(1.0, abs=1e-12)
