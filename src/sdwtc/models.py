"""State-dependent wiretap channel instances and their special structures.

A model is the tuple (state distribution, broadcast kernel).  This module
builds generic instances, the product-form reversely-less-noisy instances,
the semi-deterministic family, the side-information lifting that folds the
receivers' state observations into their channel outputs, (de)serializes
all of them to a JSON channel-spec document, and describes each encoder
policy kind once, in POLICY_KINDS.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

import numpy as np

from .prob import (
    Channel,
    JointPmf,
    Pmf,
    bernoulli,
    binary_entropy,
    inv_binary_entropy,
)

ERASURE = "?"


@dataclass(frozen=True)
class SdWtcModel:
    """A state-dependent wiretap channel: W_S and W_{Y,Z|X,S}."""

    state_pmf: Pmf
    channel: Channel  # inputs (X, S), outputs (Y, Z)

    def __post_init__(self) -> None:
        if self.channel.in_names != ("X", "S") or self.channel.out_names != ("Y", "Z"):
            raise ValueError(
                f"wiretap kernel must map (X, S) to (Y, Z), got "
                f"{self.channel.in_names} to {self.channel.out_names}"
            )
        if self.channel.in_axes[1][1] != self.state_pmf.symbols:
            raise ValueError("kernel S alphabet does not match the state pmf alphabet")

    @property
    def s_symbols(self) -> tuple:
        return self.state_pmf.symbols

    @property
    def x_symbols(self) -> tuple:
        return self.channel.in_axes[0][1]

    @property
    def y_symbols(self) -> tuple:
        return self.channel.out_axes[0][1]

    @property
    def z_symbols(self) -> tuple:
        return self.channel.out_axes[1][1]


@dataclass(frozen=True)
class InputPolicy:
    """An encoder input policy Q_{U,V,X|S} with auxiliary alphabets U and V."""

    kernel: Channel  # input (S,), outputs (U, V, X)

    def __post_init__(self) -> None:
        if self.kernel.in_names != ("S",) or self.kernel.out_names != ("U", "V", "X"):
            raise ValueError(
                f"policy kernel must map (S,) to (U, V, X), got "
                f"{self.kernel.in_names} to {self.kernel.out_names}"
            )

    @property
    def s_symbols(self) -> tuple:
        return self.kernel.in_axes[0][1]

    @property
    def u_symbols(self) -> tuple:
        return self.kernel.out_axes[0][1]

    @property
    def v_symbols(self) -> tuple:
        return self.kernel.out_axes[1][1]

    @property
    def x_symbols(self) -> tuple:
        return self.kernel.out_axes[2][1]


@dataclass(frozen=True)
class RlnModel:
    """A product-form model: the state drives the two side observations
    (S1 to the receiver, S2 to the eavesdropper) while the transmission
    channel X -> (Y, Z) is state independent."""

    state_pmf: Pmf
    state_channel: Channel  # input (S,), outputs (S1, S2)
    main_channel: Channel  # input (X,), outputs (Y, Z)

    def __post_init__(self) -> None:
        if self.state_channel.in_names != ("S",) or self.state_channel.out_names != ("S1", "S2"):
            raise ValueError(
                f"state channel must map (S,) to (S1, S2), got "
                f"{self.state_channel.in_names} to {self.state_channel.out_names}"
            )
        if self.main_channel.in_names != ("X",) or self.main_channel.out_names != ("Y", "Z"):
            raise ValueError(
                f"main channel must map (X,) to (Y, Z), got "
                f"{self.main_channel.in_names} to {self.main_channel.out_names}"
            )
        if self.state_channel.in_axes[0][1] != self.state_pmf.symbols:
            raise ValueError("state channel S alphabet does not match the state pmf alphabet")

    @property
    def s_symbols(self) -> tuple:
        return self.state_pmf.symbols

    @property
    def s1_symbols(self) -> tuple:
        return self.state_channel.out_axes[0][1]

    @property
    def s2_symbols(self) -> tuple:
        return self.state_channel.out_axes[1][1]

    @property
    def x_symbols(self) -> tuple:
        return self.main_channel.in_axes[0][1]

    @property
    def y_symbols(self) -> tuple:
        return self.main_channel.out_axes[0][1]

    @property
    def z_symbols(self) -> tuple:
        return self.main_channel.out_axes[1][1]


# ---------------------------------------------------------------------------
# assembly and lifting


def assemble_joint(model: SdWtcModel, policy: InputPolicy) -> JointPmf:
    """The joint PMF over (S, U, V, X, Y, Z) induced by a policy on a model.

    Mass factorizes as W_S(s) Q(u,v,x|s) W(y,z|x,s), which forces the Markov
    chain (U, V) - (X, S) - (Y, Z).
    """
    return policy_joint("gp", model, policy)


def lift_side_information(rln: RlnModel) -> SdWtcModel:
    """Fold the side observations into the receivers' outputs.

    The lifted model observes Y' = (Y, S1) and Z' = (Z, S2) through the
    product kernel W(s1,s2|s) W(y,z|x), so generic rate machinery applies
    unchanged.
    """
    y_lift = tuple(itertools.product(rln.y_symbols, rln.s1_symbols))
    z_lift = tuple(itertools.product(rln.z_symbols, rln.s2_symbols))
    # k[x, s, y, s1, z, s2] then merge (y, s1) and (z, s2)
    k = np.einsum("xyz,scd->xsyczd", rln.main_channel.kernel, rln.state_channel.kernel)
    k = k.reshape(
        len(rln.x_symbols),
        len(rln.s_symbols),
        len(y_lift),
        len(z_lift),
    )
    channel = Channel(
        in_axes=(("X", rln.x_symbols), ("S", rln.s_symbols)),
        out_axes=(("Y", y_lift), ("Z", z_lift)),
        kernel=k,
    )
    return SdWtcModel(state_pmf=rln.state_pmf, channel=channel)


# ---------------------------------------------------------------------------
# builders


def build_rln_example(alpha_cross: float, sigma: float) -> RlnModel:
    """The binary benchmark instance.

    The state is Bernoulli with parameter p solving h(p) = 1 - h(alpha_cross),
    the receiver sees the state through a binary erasure channel with erasure
    probability sigma, the eavesdropper sees no state (constant S2) but gets
    the channel input exactly (Z = X), and the legitimate channel is a binary
    symmetric channel with crossover alpha_cross.
    """
    if not 0.0 < alpha_cross < 0.5:
        raise ValueError(f"alpha_cross must lie strictly inside (0, 1/2), got {alpha_cross!r}")
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie strictly inside (0, 1), got {sigma!r}")
    p = inv_binary_entropy(1.0 - binary_entropy(alpha_cross))
    state_pmf = bernoulli(p)

    s1_symbols = (0, 1, ERASURE)
    state_kernel = np.zeros((2, 3, 1))
    for s in (0, 1):
        state_kernel[s, s, 0] = 1.0 - sigma
        state_kernel[s, 2, 0] = sigma
    state_channel = Channel(
        in_axes=(("S", (0, 1)),),
        out_axes=(("S1", s1_symbols), ("S2", (0,))),
        kernel=state_kernel,
    )

    main_kernel = np.zeros((2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            main_kernel[x, y, x] = alpha_cross if y != x else 1.0 - alpha_cross
    main_channel = Channel(
        in_axes=(("X", (0, 1)),),
        out_axes=(("Y", (0, 1)), ("Z", (0, 1))),
        kernel=main_kernel,
    )
    return RlnModel(state_pmf=state_pmf, state_channel=state_channel, main_channel=main_channel)


def build_semideterministic(
    g: Mapping[tuple, Hashable] | Callable[[Hashable, Hashable], Hashable],
    w_z_given_xs: Channel,
    w_s: Pmf,
) -> SdWtcModel:
    """A model whose legitimate output is the deterministic Y = g(X, S).

    The eavesdropper kernel W_{Z|X,S} is arbitrary; the Y-marginal of the
    assembled kernel is a point mass at g(x, s) for every input pair.
    """
    if w_z_given_xs.in_names != ("X", "S") or w_z_given_xs.out_names != ("Z",):
        raise ValueError(
            f"eavesdropper kernel must map (X, S) to (Z,), got "
            f"{w_z_given_xs.in_names} to {w_z_given_xs.out_names}"
        )
    x_symbols = w_z_given_xs.in_axes[0][1]
    s_symbols = w_z_given_xs.in_axes[1][1]
    if s_symbols != w_s.symbols:
        raise ValueError("eavesdropper kernel S alphabet does not match the state pmf")
    z_symbols = w_z_given_xs.out_axes[0][1]

    lookup = g if callable(g) else lambda x, s: g[(x, s)]
    y_symbols: list = []
    g_table = np.empty((len(x_symbols), len(s_symbols)), dtype=int)
    for xi, x in enumerate(x_symbols):
        for si, s in enumerate(s_symbols):
            try:
                y = lookup(x, s)
            except KeyError:
                raise ValueError(f"map g is not defined at (x, s) = ({x!r}, {s!r})") from None
            if y not in y_symbols:
                y_symbols.append(y)
            g_table[xi, si] = y_symbols.index(y)

    kernel = np.zeros((len(x_symbols), len(s_symbols), len(y_symbols), len(z_symbols)))
    for xi in range(len(x_symbols)):
        for si in range(len(s_symbols)):
            kernel[xi, si, g_table[xi, si], :] = w_z_given_xs.kernel[xi, si, :]
    channel = Channel(
        in_axes=(("X", x_symbols), ("S", s_symbols)),
        out_axes=(("Y", tuple(y_symbols)), ("Z", z_symbols)),
        kernel=kernel,
    )
    return SdWtcModel(state_pmf=w_s, channel=channel)


# ---------------------------------------------------------------------------
# policy constructors


def gp_policy(
    s_symbols: tuple,
    u_symbols: tuple,
    v_symbols: tuple,
    x_symbols: tuple,
    kernel: np.ndarray,
) -> InputPolicy:
    """An InputPolicy from a raw tensor indexed [s, u, v, x]."""
    return InputPolicy(
        Channel(
            in_axes=(("S", s_symbols),),
            out_axes=(("U", u_symbols), ("V", v_symbols), ("X", x_symbols)),
            kernel=kernel,
        )
    )


def as_input_policy(model: SdWtcModel, policy) -> InputPolicy:
    """Lift an (S,) -> (X,) kernel to the layered form (U singleton, V = X)."""
    if isinstance(policy, InputPolicy):
        return policy
    if isinstance(policy, Channel) and policy.out_names == ("X",):
        nx = len(model.x_symbols)
        k = policy.kernel[:, None, :, None] * np.eye(nx)[None, None, :, :]
        return gp_policy(model.s_symbols, (0,), model.x_symbols, model.x_symbols, k)
    raise ValueError("expected a gp or x_given_s policy")


def vx_policy(s_symbols: tuple, v_symbols: tuple, x_symbols: tuple, kernel: np.ndarray) -> InputPolicy:
    """A policy P_{V,X|S} embedded with a degenerate (singleton) U axis."""
    k = np.asarray(kernel, dtype=float)[:, None, :, :]
    return gp_policy(s_symbols, (0,), v_symbols, x_symbols, k)


# ---------------------------------------------------------------------------
# policy kinds: the one description the policy loader and the search share


@dataclass(frozen=True)
class PolicyKind:
    """One kind of encoder policy.

    aux lists the document fields that hold its auxiliary alphabets; the
    field's upper-cased name is the axis (u -> U).  Each part is (document
    field, input axes, output axes) over S, X and those auxiliaries; a part
    without input axes is a Pmf, any other a Channel.  wrap turns the list
    of built parts into the policy object.  product names the factors of
    the induced joint, parts by their field and model factors by their
    attribute, in the order they are multiplied; the joint's axes come in
    the order they first appear there.
    """

    aux: tuple[str, ...]
    parts: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]
    wrap: Callable[[list], object]
    product: tuple[str, ...]


POLICY_KINDS: dict[str, PolicyKind] = {
    "gp": PolicyKind(("u", "v"), (("kernel", ("S",), ("U", "V", "X")),),
                     lambda parts: InputPolicy(parts[0]), ("state_pmf", "kernel", "channel")),
    "x_given_s": PolicyKind((), (("kernel", ("S",), ("X",)),), lambda parts: parts[0],
                            ("state_pmf", "kernel", "channel")),
    "ceg": PolicyKind(("t",), (("p_t", (), ("T",)), ("kernel", ("T", "S"), ("X",))), tuple,
                      ("state_pmf", "p_t", "kernel", "channel")),
    "rln": PolicyKind(("a", "b"),
                      (("p_x", (), ("X",)), ("a_kernel", ("S",), ("A",)), ("b_kernel", ("A",), ("B",))),
                      tuple,
                      ("state_pmf", "a_kernel", "b_kernel", "p_x", "state_channel", "main_channel")),
}


def policy_kind(kind: str) -> PolicyKind:
    """The POLICY_KINDS record of a kind name."""
    spec = POLICY_KINDS.get(kind)
    if spec is None:
        raise ValueError(f"unknown policy kind {kind!r}; expected one of {tuple(POLICY_KINDS)}")
    return spec


def policy_parts(policy) -> tuple:
    """A policy object's parts, in the order of its kind's parts."""
    if isinstance(policy, InputPolicy):
        return (policy.kernel,)
    return policy if isinstance(policy, tuple) else (policy,)


def _part_axes(spec: PolicyKind, model: SdWtcModel | RlnModel, aux) -> list[tuple[tuple, tuple]]:
    """Each part's (input axes, output axes) as (name, alphabet) pairs."""
    alph = {"S": model.s_symbols, "X": model.x_symbols}
    alph.update((field.upper(), tuple(symbols)) for field, symbols in zip(spec.aux, aux, strict=True))
    return [(tuple((a, alph[a]) for a in ins), tuple((a, alph[a]) for a in outs))
            for _, ins, outs in spec.parts]


def _joint(spec: PolicyKind, model: SdWtcModel | RlnModel, axes: list[tuple[tuple, tuple]],
           arrays) -> tuple[tuple, np.ndarray]:
    """The (name, alphabet) axes and the (B, ...) masses of the joints a stack
    of B policies induces, from one array per part holding B of its entries
    (any shape that reshapes to (B, *part shape), such as stacked blocks).
    The factors are multiplied in spec.product order, which fixes the
    rounding."""
    parts = {field: (ins + outs, arr.reshape(len(arr), *(len(a) for _, a in ins + outs)))
             for (field, _, _), (ins, outs), arr in zip(spec.parts, axes, arrays, strict=True)}
    index: dict[str, int] = {}  # axis name -> einsum subscript; 0 is the batch axis
    joint_axes: list[tuple[str, tuple]] = []
    operands: list = []
    for name in spec.product:
        if name in parts:
            (f_axes, arr), batch = parts[name], [0]
        else:  # a model factor: its state law over S, or one of its channels
            f = getattr(model, name)
            f_axes, arr = ((("S", f.symbols),), f.probs) if isinstance(f, Pmf) else (
                f.in_axes + f.out_axes, f.kernel)
            batch = []
        for axis in f_axes:
            if axis[0] not in index:
                index[axis[0]] = len(index) + 1
                joint_axes.append(axis)
        operands += [arr, batch + [index[a] for a, _ in f_axes]]
    return tuple(joint_axes), np.einsum(*operands, list(range(len(index) + 1)))


def policy_joint(kind: str, model: SdWtcModel | RlnModel, policy) -> JointPmf:
    """The joint PMF a policy of the given kind induces on a model, whose S
    and X alphabets its parts must use (with shared auxiliary alphabets)."""
    spec = policy_kind(kind)
    parts = policy_parts(policy)
    have = [(p.in_axes, p.out_axes) if isinstance(p, Channel) else ((), ((outs[0], p.symbols),))
            for p, (_, _, outs) in zip(parts, spec.parts, strict=True)]
    alph = dict(axis for ins, outs in have for axis in ins + outs)
    axes = _part_axes(spec, model, [alph.get(field.upper(), ()) for field in spec.aux])
    if have != axes:
        raise ValueError(f"{kind} policy parts have axes {have}; the model needs {axes}")
    arrays = [p.kernel[None] if isinstance(p, Channel) else p.probs[None] for p in parts]
    joint_axes, mass = _joint(spec, model, axes, arrays)
    return JointPmf(joint_axes, mass[0])


def _assemble(spec: PolicyKind, axes: list[tuple[tuple, tuple]], arrays) -> object:
    return spec.wrap([
        Channel(ins, outs, arr) if ins else Pmf(outs[0][1], arr)
        for (ins, outs), arr in zip(axes, arrays, strict=True)
    ])


def build_policy(kind: str, model: SdWtcModel | RlnModel, aux, arrays) -> object:
    """A policy of the given kind from its auxiliary alphabets (in the order
    of the kind's aux fields) and one array per part, shaped like the part."""
    spec = policy_kind(kind)
    return _assemble(spec, _part_axes(spec, model, aux), arrays)


def policy_blocks(
    kind: str, model: SdWtcModel | RlnModel, aux
) -> tuple[list[tuple[int, int]], Callable[[list[np.ndarray]], object]]:
    """The row-stochastic blocks (rows, row length) that parameterize a policy
    of this kind, one per part, and the builder that turns such blocks into
    the policy."""
    spec = policy_kind(kind)
    axes = _part_axes(spec, model, aux)
    shapes = [tuple(len(a) for _, a in ins + outs) for ins, outs in axes]
    blocks = [(math.prod(len(a) for _, a in ins), math.prod(len(a) for _, a in outs))
              for ins, outs in axes]
    return blocks, lambda arrays: _assemble(
        spec, axes, [b.reshape(shape) for b, shape in zip(arrays, shapes)]
    )


def stacked_joint(kind: str, model: SdWtcModel | RlnModel, aux, stacks) -> tuple[tuple, np.ndarray]:
    """The joints' (name, alphabet) axes and (B, ...) masses for a stack of B
    policies of this kind, given as one (B, ...) array per part or block,
    without building any policy or joint object."""
    spec = policy_kind(kind)
    return _joint(spec, model, _part_axes(spec, model, aux), stacks)


def achieving_rln_policy(model: RlnModel) -> tuple:
    """The rln policy A = S, B constant, X uniform, which attains the closed
    form on build_rln_example."""
    n_s, n_x = len(model.s_symbols), len(model.x_symbols)
    return build_policy(
        "rln", model, (model.s_symbols, (0,)), [np.full(n_x, 1.0 / n_x), np.eye(n_s), np.ones((n_s, 1))]
    )


# ---------------------------------------------------------------------------
# channel-spec documents (JSON-shaped dicts)


def _to_jsonable(obj):
    if isinstance(obj, tuple):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _symbols_from_json(doc: Mapping, field: str) -> tuple:
    """The alphabet a document lists under field; list entries become tuples."""
    values = doc[field]
    if not isinstance(values, list):
        raise ValueError(
            f"{getattr(doc, 'path', 'the document')} field {field!r} must list the symbols, "
            f"got {type(values).__name__}"
        )
    return tuple(tuple(v) if isinstance(v, list) else v for v in values)


def _floats_from_json(doc: Mapping, field: str, scalar: bool = False) -> float | np.ndarray:
    """The number (scalar) or the float array a document holds under field."""
    values = doc[field]
    try:
        return float(values) if scalar else np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(
            f"{getattr(doc, 'path', 'the document')} field {field!r} must hold "
            f"{'a number' if scalar else 'a rectangular array of numbers'}"
        ) from None


def model_to_dict(model: SdWtcModel | RlnModel) -> dict:
    """Serialize a model to a channel-spec dict (kind generic or rln)."""
    if isinstance(model, SdWtcModel):
        return {
            "kind": "generic",
            "alphabets": {
                "S": _to_jsonable(model.s_symbols),
                "X": _to_jsonable(model.x_symbols),
                "Y": _to_jsonable(model.y_symbols),
                "Z": _to_jsonable(model.z_symbols),
            },
            "state_pmf": model.state_pmf.probs.tolist(),
            "kernel": model.channel.kernel.tolist(),
        }
    return {
        "kind": "rln",
        "alphabets": {
            "S": _to_jsonable(model.s_symbols),
            "S1": _to_jsonable(model.s1_symbols),
            "S2": _to_jsonable(model.s2_symbols),
            "X": _to_jsonable(model.x_symbols),
            "Y": _to_jsonable(model.y_symbols),
            "Z": _to_jsonable(model.z_symbols),
        },
        "state_pmf": model.state_pmf.probs.tolist(),
        "state_kernel": model.state_channel.kernel.tolist(),
        "main_kernel": model.main_channel.kernel.tolist(),
    }


def model_from_dict(doc: Mapping) -> SdWtcModel | RlnModel:
    """Build a model from a channel-spec dict.

    Supported kinds: generic (full wiretap kernel), rln (product-form
    tensors), rln_example (alpha/sigma parameters), semideterministic
    (a g-table plus an eavesdropper kernel).
    """
    kind = doc.get("kind")
    if kind == "generic":
        alph = doc["alphabets"]
        s, x, y, z = (_symbols_from_json(alph, a) for a in ("S", "X", "Y", "Z"))
        state_pmf = Pmf(s, _floats_from_json(doc, "state_pmf"))
        channel = Channel(
            in_axes=(("X", x), ("S", s)),
            out_axes=(("Y", y), ("Z", z)),
            kernel=_floats_from_json(doc, "kernel"),
        )
        return SdWtcModel(state_pmf=state_pmf, channel=channel)
    if kind == "rln":
        alph = doc["alphabets"]
        s, s1, s2, x, y, z = (_symbols_from_json(alph, a) for a in ("S", "S1", "S2", "X", "Y", "Z"))
        return RlnModel(
            state_pmf=Pmf(s, _floats_from_json(doc, "state_pmf")),
            state_channel=Channel(
                in_axes=(("S", s),),
                out_axes=(("S1", s1), ("S2", s2)),
                kernel=_floats_from_json(doc, "state_kernel"),
            ),
            main_channel=Channel(
                in_axes=(("X", x),),
                out_axes=(("Y", y), ("Z", z)),
                kernel=_floats_from_json(doc, "main_kernel"),
            ),
        )
    if kind == "rln_example":
        alpha, sigma = (_floats_from_json(doc, field, scalar=True) for field in ("alpha", "sigma"))
        return build_rln_example(alpha, sigma)
    if kind == "semideterministic":
        alph = doc["alphabets"]
        s, x, z = (_symbols_from_json(alph, a) for a in ("S", "X", "Z"))
        state_pmf = Pmf(s, _floats_from_json(doc, "state_pmf"))
        z_kernel = Channel(
            in_axes=(("X", x), ("S", s)),
            out_axes=(("Z", z),),
            kernel=_floats_from_json(doc, "z_kernel"),
        )
        g_rows = doc["g"]
        if not (isinstance(g_rows, list) and len(g_rows) == len(x)
                and all(isinstance(row, list) and len(row) == len(s) for row in g_rows)):
            raise ValueError(
                f"{getattr(doc, 'path', 'the document')} field 'g' must hold {len(x)} rows "
                f"(one per X symbol) of {len(s)} entries (one per S symbol)"
            )
        g_map = {}
        for xi, xv in enumerate(x):
            for si, sv in enumerate(s):
                entry = g_rows[xi][si]
                g_map[(xv, sv)] = tuple(entry) if isinstance(entry, list) else entry
        return build_semideterministic(g_map, z_kernel, state_pmf)
    raise ValueError(
        f"unknown channel-spec kind {kind!r}; expected one of "
        "generic, rln, rln_example, semideterministic"
    )
