"""State-dependent wiretap channel instances and their special structures.

A model is the tuple (state distribution, broadcast kernel).  This module
builds generic instances, the product-form reversely-less-noisy instances,
the semi-deterministic family, the side-information lifting that folds the
receivers' state observations into their channel outputs, and
(de)serializes all of them to a JSON channel-spec document.  Each model and policy record
declares its parts once (_Record.PARTS), which the document kinds that list
a model's tensors (MODEL_KINDS) read, and each encoder policy kind is
described once, in POLICY_KINDS.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, Hashable, Mapping

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


# A record part: (attribute, document field, input axes, output axes).
Part = tuple[str, str, tuple[str, ...], tuple[str, ...]]


def part_fits(part: object, ins: tuple[str, ...], outs: tuple[str, ...]) -> bool:
    """Whether a part has these axes: a Pmf (over its one output axis) when
    there are no input axes, else a Channel with exactly these axis names."""
    if ins:
        return isinstance(part, Channel) and (part.in_names, part.out_names) == (ins, outs)
    return isinstance(part, Pmf)


def _axes_of(part: Channel | Pmf, outs: tuple[str, ...]) -> tuple:
    """A part's (name, alphabet) axes, inputs first; a Pmf's one axis takes
    its declared name."""
    return part.in_axes + part.out_axes if isinstance(part, Channel) else ((outs[0], part.symbols),)


def _check_part(what: str, part: object, ins: tuple[str, ...], outs: tuple[str, ...]) -> None:
    """Refuse, naming it as what, a part that does not fit these axes."""
    if not part_fits(part, ins, outs):
        want = f"a Channel from {ins} to {outs}" if ins else "a Pmf"
        got = (f"a Channel from {part.in_names} to {part.out_names}" if isinstance(part, Channel)
               else f"a {type(part).__name__}")
        raise ValueError(f"{what} must be {want}, got {got}")


def check_parts(owner: str, parts) -> dict[str, tuple]:
    """Refuse, naming owner, parts (attribute, part, input axes, output axes)
    that do not fit their axes (part_fits) or that disagree on the alphabet
    of an axis they share; returns the alphabets by axis name."""
    alphabets: dict[str, tuple] = {}
    for attr, part, ins, outs in parts:
        _check_part(f"{owner} {attr}", part, ins, outs)
        for name, symbols in _axes_of(part, outs):
            if alphabets.setdefault(name, symbols) != symbols:
                raise ValueError(f"{owner} parts disagree on the {name} alphabet")
    return alphabets


def _axis_names(parts) -> tuple[str, ...]:
    """The axes that parts (..., input axes, output axes) name, in the order
    they first appear."""
    return tuple(dict.fromkeys(a for *_, ins, outs in parts for a in ins + outs))


class _Record:
    """A record whose class declares its parts once, in PARTS.

    Construction checks each part against its declaration (part_fits) and
    that parts naming one axis agree on its alphabet; each axis A gets an
    a_symbols property (lower-cased) that reads that alphabet.
    """

    PARTS: ClassVar[tuple[Part, ...]] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        for axis in _axis_names(cls.PARTS):
            setattr(cls, f"{axis.lower()}_symbols", property(lambda self, axis=axis: self._alphabets[axis]))

    def __post_init__(self) -> None:
        parts = ((attr, getattr(self, attr), ins, outs) for attr, _, ins, outs in self.PARTS)
        object.__setattr__(self, "_alphabets", check_parts(type(self).__name__, parts))


def _record(cls: type, alphabets: Mapping[str, tuple], **arrays: np.ndarray):
    """The record of this class whose parts, by attribute, hold these arrays
    over these axis alphabets, by axis name."""
    return cls(**{attr: _part(_named(ins, alphabets), _named(outs, alphabets), arrays[attr])
                  for attr, _, ins, outs in cls.PARTS})


@dataclass(frozen=True)
class SdWtcModel(_Record):
    """A state-dependent wiretap channel: W_S and W_{Y,Z|X,S}."""

    PARTS = (("state_pmf", "state_pmf", (), ("S",)), ("channel", "kernel", ("X", "S"), ("Y", "Z")))
    state_pmf: Pmf
    channel: Channel


@dataclass(frozen=True)
class InputPolicy(_Record):
    """An encoder input policy Q_{U,V,X|S} with auxiliary alphabets U and V."""

    PARTS = (("kernel", "kernel", ("S",), ("U", "V", "X")),)
    kernel: Channel


@dataclass(frozen=True)
class RlnModel(_Record):
    """A product-form model: the state drives the two side observations
    (S1 to the receiver, S2 to the eavesdropper) while the transmission
    channel X -> (Y, Z) is state independent."""

    PARTS = (("state_pmf", "state_pmf", (), ("S",)),
             ("state_channel", "state_kernel", ("S",), ("S1", "S2")),
             ("main_channel", "main_kernel", ("X",), ("Y", "Z")))
    state_pmf: Pmf
    state_channel: Channel
    main_channel: Channel


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
    return _record(SdWtcModel, {"S": rln.s_symbols, "X": rln.x_symbols, "Y": y_lift, "Z": z_lift},
                   state_pmf=rln.state_pmf.probs, channel=k)


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
    state_kernel = np.zeros((2, 3, 1))
    for s in (0, 1):
        state_kernel[s, s, 0] = 1.0 - sigma
        state_kernel[s, 2, 0] = sigma
    main_kernel = np.zeros((2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            main_kernel[x, y, x] = alpha_cross if y != x else 1.0 - alpha_cross
    b = (0, 1)
    alphabets = {"S": b, "S1": (0, 1, ERASURE), "S2": (0,), "X": b, "Y": b, "Z": b}
    return _record(RlnModel, alphabets, state_pmf=bernoulli(p).probs, state_channel=state_kernel,
                   main_channel=main_kernel)


def build_semideterministic(
    g: Mapping[tuple, Hashable] | Callable[[Hashable, Hashable], Hashable],
    w_z_given_xs: Channel,
    w_s: Pmf,
) -> SdWtcModel:
    """A model whose legitimate output is the deterministic Y = g(X, S).

    The eavesdropper kernel W_{Z|X,S} is arbitrary; the Y-marginal of the
    assembled kernel is a point mass at g(x, s) for every input pair.
    """
    _check_part("eavesdropper kernel", w_z_given_xs, ("X", "S"), ("Z",))
    (_, x_symbols), (_, s_symbols), (_, z_symbols) = w_z_given_xs.in_axes + w_z_given_xs.out_axes
    if s_symbols != w_s.symbols:
        raise ValueError("eavesdropper kernel S alphabet does not match the state pmf")

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
    return _record(SdWtcModel, {"S": s_symbols, "X": x_symbols, "Y": tuple(y_symbols), "Z": z_symbols},
                   state_pmf=w_s.probs, channel=kernel)


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
    return _record(InputPolicy, {"S": s_symbols, "U": u_symbols, "V": v_symbols, "X": x_symbols}, kernel=kernel)


def as_input_policy(model: SdWtcModel, policy) -> InputPolicy:
    """Lift an (S,) -> (X,) kernel to the layered form (U singleton, V = X)."""
    if isinstance(policy, InputPolicy):
        return policy
    if isinstance(policy, Channel) and policy.out_names == ("X",):
        nx = len(model.x_symbols)
        k = policy.kernel[:, None, :, None] * np.eye(nx)[None, None, :, :]
        return gp_policy(model.s_symbols, (0,), model.x_symbols, model.x_symbols, k)
    raise ValueError("expected a gp or x_given_s policy")


# ---------------------------------------------------------------------------
# policy kinds: the one description the policy loader and the search share


@dataclass(frozen=True)
class PolicyKind:
    """One kind of encoder policy.

    Each part is (document field, input axes, output axes) over S, X and
    auxiliary axes, and must fit them (part_fits).  wrap turns the list of
    built parts into the policy object.  product names the factors of the
    induced joint, parts by their field and model factors by their
    attribute, in the order they are multiplied; the joint's axes come in
    the order they first appear there.
    """

    parts: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]
    wrap: Callable[[list], object]
    product: tuple[str, ...]

    @cached_property
    def aux(self) -> tuple[str, ...]:
        """The document fields that list the auxiliary alphabets: each axis
        the parts name other than S and X, lower-cased (U -> u)."""
        return tuple(a.lower() for a in _axis_names(self.parts) if a not in ("S", "X"))


POLICY_KINDS: dict[str, PolicyKind] = {
    "gp": PolicyKind(tuple(part[1:] for part in InputPolicy.PARTS), lambda parts: InputPolicy(*parts),
                     ("state_pmf", "kernel", "channel")),
    "x_given_s": PolicyKind((("kernel", ("S",), ("X",)),), lambda parts: parts[0],
                            ("state_pmf", "kernel", "channel")),
    "ceg": PolicyKind((("p_t", (), ("T",)), ("kernel", ("T", "S"), ("X",))), tuple,
                      ("p_t", "state_pmf", "kernel", "channel")),
    "rln": PolicyKind((("p_x", (), ("X",)), ("a_kernel", ("S",), ("A",)), ("b_kernel", ("A",), ("B",))),
                      tuple,
                      ("state_pmf", "a_kernel", "b_kernel", "p_x", "state_channel", "main_channel")),
}

# each kind of channel document that lists a model's tensors, by the model
# class whose PARTS name its alphabets and part fields
MODEL_KINDS: dict[str, type[_Record]] = {"generic": SdWtcModel, "rln": RlnModel}


def policy_kind(kind: str) -> PolicyKind:
    """The POLICY_KINDS record of a kind name."""
    spec = POLICY_KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise ValueError(f"unknown policy kind {kind!r}; expected one of {tuple(POLICY_KINDS)}")
    return spec


def policy_parts(policy) -> tuple:
    """A policy object's parts, in the order of its kind's parts."""
    if isinstance(policy, InputPolicy):
        return (policy.kernel,)
    return policy if isinstance(policy, tuple) else (policy,)


def _named(names: tuple[str, ...], alph: Mapping[str, tuple]) -> tuple:
    """The (name, alphabet) axes of these axis names."""
    return tuple((a, alph[a]) for a in names)


def _part_axes(spec: PolicyKind, model: SdWtcModel | RlnModel, aux) -> list[tuple[tuple, tuple]]:
    """Each part's (input axes, output axes) as (name, alphabet) pairs."""
    alph = {"S": model.s_symbols, "X": model.x_symbols}
    alph.update((field.upper(), tuple(symbols)) for field, symbols in zip(spec.aux, aux, strict=True))
    return [(_named(ins, alph), _named(outs, alph)) for _, ins, outs in spec.parts]


def joint_plan(kind: str, model: SdWtcModel | RlnModel, aux) -> tuple[tuple, Callable[[list], np.ndarray]]:
    """The (name, alphabet) axes of the joints that policies of this kind,
    with these auxiliary alphabets, induce on a model, and the builder of
    the (B, ...) masses of a stack of B policies from one array per part
    holding B of its entries (any shape that reshapes to (B, *part shape),
    such as stacked blocks); it builds no policy or joint object.  The
    factors are multiplied in the kind's product order, left to right,
    which fixes the rounding: each factor is a view over the joint's axes
    (its own in joint order, size 1 on the others), so the products
    broadcast, and each joint entry is the product its factors' entries
    give in that order.  The masses come C-ordered, every zero as +0.0."""
    spec = policy_kind(kind)
    part_axes = {field: ins + outs for (field, _, _), (ins, outs)
                 in zip(spec.parts, _part_axes(spec, model, aux), strict=True)}
    shapes = {field: tuple(len(a) for _, a in f_axes) for field, f_axes in part_axes.items()}
    index: dict[str, int] = {}  # axis name -> its place among the joint's axes
    joint_axes: list[tuple[str, tuple]] = []
    factors: list[tuple[str, np.ndarray | None, list[int]]] = []  # a part's array is None
    for name in spec.product:
        if name in part_axes:
            f_axes, arr = part_axes[name], None
        else:  # a model factor: its state law over S, or one of its channels
            f = getattr(model, name)
            f_axes, arr = _axes_of(f, ("S",)), f.probs if isinstance(f, Pmf) else f.kernel
        for axis in f_axes:
            if axis[0] not in index:
                index[axis[0]] = len(index)
                joint_axes.append(axis)
        factors.append((name, arr, [index[a] for a, _ in f_axes]))
    sizes = tuple(len(a) for _, a in joint_axes)
    # each factor's axis order and its shape over the joint's axes; a model
    # factor is put in that form here, once, a part at each call
    chain: list[tuple[str, np.ndarray | None, list[int], tuple[int, ...]]] = []
    for name, arr, places in factors:
        order = sorted(range(len(places)), key=places.__getitem__)
        shape = tuple(size if k in places else 1 for k, size in enumerate(sizes))
        if arr is not None:
            arr = np.transpose(arr, order).reshape(1, *shape)
        chain.append((name, arr, [0] + [k + 1 for k in order], shape))

    def mass(arrays) -> np.ndarray:
        b = len(arrays[0])
        parts = {field: arr.reshape(b, *shape)
                 for (field, shape), arr in zip(shapes.items(), arrays, strict=True)}
        views = [parts[name].transpose(order).reshape(b, *shape) if arr is None else arr
                 for name, arr, order, shape in chain]
        product = views[0]
        for view in views[1:-1]:
            product = product * view
        joint = np.multiply(product, views[-1], out=np.empty((b, *sizes)))
        # + 0.0 makes a -0.0 product, from a -0.0 entry of a part, +0.0
        return np.add(joint, 0.0, out=joint)

    return tuple(joint_axes), mass


def policy_joint(kind: str, model: SdWtcModel | RlnModel, policy) -> JointPmf:
    """The joint PMF a policy of the given kind induces on a model, whose S
    and X alphabets its parts must use (with shared auxiliary alphabets)."""
    spec = policy_kind(kind)
    parts = policy_parts(policy)
    have = []
    for p, (field, ins, outs) in zip(parts, spec.parts, strict=True):
        _check_part(f"{kind} policy part {field}", p, ins, outs)
        have.append(_axes_of(p, outs))
    alph = dict(axis for axes in have for axis in axes)
    aux = [alph.get(field.upper(), ()) for field in spec.aux]
    want = [ins + outs for ins, outs in _part_axes(spec, model, aux)]
    if have != want:
        raise ValueError(f"{kind} policy parts have axes {have}; the model needs {want}")
    joint_axes, mass = joint_plan(kind, model, aux)
    return JointPmf(joint_axes, mass([p.kernel[None] if isinstance(p, Channel) else p.probs[None]
                                      for p in parts])[0])


def _part(ins: tuple, outs: tuple, arr) -> Channel | Pmf:
    """A policy or model part: a Channel from its input axes, or a Pmf over
    its one output axis when it has none."""
    return Channel(ins, outs, arr) if ins else Pmf(outs[0][1], arr)


def policy_blocks(
    kind: str, model: SdWtcModel | RlnModel, aux
) -> tuple[list[tuple[int, int]], Callable[[list[np.ndarray]], object]]:
    """The row-stochastic blocks (rows, row length) that parameterize a policy
    of this kind with these auxiliary alphabets (in the order of the kind's
    aux fields), one per part, and the builder that turns one array per
    part, shaped like its block or like the part, into the policy."""
    spec = policy_kind(kind)
    axes = _part_axes(spec, model, aux)
    shapes = [tuple(len(a) for _, a in ins + outs) for ins, outs in axes]
    blocks = [(math.prod(len(a) for _, a in ins), math.prod(len(a) for _, a in outs))
              for ins, outs in axes]
    return blocks, lambda arrays: spec.wrap(
        [_part(ins, outs, b.reshape(shape)) for (ins, outs), b, shape in zip(axes, arrays, shapes, strict=True)]
    )


def achieving_rln_policy(model: RlnModel) -> tuple:
    """The rln policy A = S, B constant, X uniform, which attains the closed
    form on build_rln_example."""
    n_s, n_x = len(model.s_symbols), len(model.x_symbols)
    _, build = policy_blocks("rln", model, (model.s_symbols, (0,)))
    return build([np.full(n_x, 1.0 / n_x), np.eye(n_s), np.ones((n_s, 1))])


# ---------------------------------------------------------------------------
# channel-spec documents (JSON-shaped dicts)


def _to_jsonable(obj):
    if isinstance(obj, tuple):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _doc_name(doc: Mapping) -> str:
    return getattr(doc, "path", "the document")


def _is_symbol(value: object) -> bool:
    """Whether a JSON value is a number or a string (not null or a boolean)."""
    return isinstance(value, (int, float, str)) and not isinstance(value, bool)


def _symbols_from_json(doc: Mapping, field: str, values: object = None) -> tuple:
    """The alphabet a document lists under field, or the given values of that
    field: numbers, strings or flat lists of them, lists read as tuples."""
    values = doc[field] if values is None else values
    if not isinstance(values, list):
        raise ValueError(
            f"{_doc_name(doc)} field {field!r} must list the symbols, got {type(values).__name__}"
        )
    if not all(_is_symbol(v) or isinstance(v, list) and all(map(_is_symbol, v)) for v in values):
        raise ValueError(
            f"{_doc_name(doc)} field {field!r} must list numbers, strings or flat lists of them"
        )
    return tuple(tuple(v) if isinstance(v, list) else v for v in values)


def _floats_from_json(doc: Mapping, field: str, scalar: bool = False) -> float | np.ndarray:
    """The number (scalar) or the float array a document holds under field;
    a null entry (read as NaN) is not a number."""
    values = doc[field]
    try:
        out = float(values) if scalar else np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        out = math.nan
    if np.isnan(out).any():
        raise ValueError(
            f"{_doc_name(doc)} field {field!r} must hold "
            f"{'a number' if scalar else 'a rectangular array of numbers'}"
        )
    return out


def _part_from_json(doc: Mapping, field: str, ins: tuple, outs: tuple) -> Channel | Pmf:
    """The part (see _part) a document holds under field, a mass it refuses
    re-raised naming the document and field."""
    values = _floats_from_json(doc, field)
    try:
        return _part(ins, outs, values)
    except ValueError as err:
        raise ValueError(f"{_doc_name(doc)} field {field!r}: {err}") from None


def model_to_dict(model: SdWtcModel | RlnModel) -> dict:
    """Serialize a model to a channel-spec dict, of the MODEL_KINDS kind
    (generic or rln) whose class it is."""
    kind = next(kind for kind, cls in MODEL_KINDS.items() if isinstance(model, cls))
    doc = {"kind": kind, "alphabets": {a: _to_jsonable(getattr(model, f"{a.lower()}_symbols"))
                                       for a in _axis_names(model.PARTS)}}
    for attr, field, _, _ in model.PARTS:
        part = getattr(model, attr)
        doc[field] = (part.probs if isinstance(part, Pmf) else part.kernel).tolist()
    return doc


def model_from_dict(doc: Mapping) -> SdWtcModel | RlnModel:
    """Build a model from a channel-spec dict.

    Supported kinds: the MODEL_KINDS generic (full wiretap kernel) and rln
    (product-form tensors), rln_example (alpha/sigma parameters), and
    semideterministic (a g-table plus an eavesdropper kernel).
    """
    kind = doc.get("kind")
    cls = MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is not None or kind == "semideterministic":
        alphabets = doc["alphabets"]
        if not isinstance(alphabets, dict):
            raise ValueError(f"{_doc_name(doc)} field 'alphabets' must be an object, got {type(alphabets).__name__}")
    if cls is not None:
        alph = {a: _symbols_from_json(alphabets, a) for a in _axis_names(cls.PARTS)}
        return cls(**{attr: _part_from_json(doc, field, _named(ins, alph), _named(outs, alph))
                      for attr, field, ins, outs in cls.PARTS})
    if kind == "rln_example":
        alpha, sigma = (_floats_from_json(doc, field, scalar=True) for field in ("alpha", "sigma"))
        return build_rln_example(alpha, sigma)
    if kind == "semideterministic":
        s, x, z = (_symbols_from_json(alphabets, a) for a in ("S", "X", "Z"))
        state_pmf = _part_from_json(doc, "state_pmf", (), (("S", s),))
        z_kernel = _part_from_json(doc, "z_kernel", (("X", x), ("S", s)), (("Z", z),))
        g_rows = doc["g"]
        if not (isinstance(g_rows, list) and len(g_rows) == len(x)
                and all(isinstance(row, list) and len(row) == len(s) for row in g_rows)):
            raise ValueError(
                f"{_doc_name(doc)} field 'g' must hold {len(x)} rows "
                f"(one per X symbol) of {len(s)} entries (one per S symbol)"
            )
        entries = iter(_symbols_from_json(doc, "g", [entry for row in g_rows for entry in row]))
        g_map = {(xv, sv): next(entries) for xv in x for sv in s}
        return build_semideterministic(g_map, z_kernel, state_pmf)
    raise ValueError(
        f"unknown channel-spec kind {kind!r}; expected one of "
        "generic, rln, rln_example, semideterministic"
    )


def policy_from_dict(doc: Mapping, model: SdWtcModel | RlnModel) -> object:
    """Build a policy for a model from a policy-spec dict, whose "kind" names
    the POLICY_KINDS record that lists its auxiliary-alphabet and part fields."""
    spec = policy_kind(doc.get("kind"))
    axes = _part_axes(spec, model, [_symbols_from_json(doc, field) for field in spec.aux])
    return spec.wrap([_part_from_json(doc, field, ins, outs)
                      for (field, _, _), (ins, outs) in zip(spec.parts, axes, strict=True)])
