"""Shared generators and axis tricks for the rate-identity checks.

Several identities compare information quantities whose variable groups
overlap (the same variable appears on both sides of a semicolon or bar).
The mutual-information helper refuses overlapping axis groups, so these
utilities materialize an almost-sure copy of an axis under a fresh name;
groups built from the copy are disjoint and the quantities agree exactly.
"""
from __future__ import annotations

import numpy as np

from sdwtc.models import InputPolicy, RlnModel, SdWtcModel, gp_policy, policy_joint
from sdwtc.prob import Channel, JointPmf, Pmf


def copy_axis(joint: JointPmf, of: str, name: str) -> JointPmf:
    """Append a new axis that equals an existing one almost surely."""
    pos = joint.axis_index(of)
    k = joint.mass.shape[pos]
    moved = np.moveaxis(joint.mass, pos, -1)
    dup = moved[..., :, None] * np.eye(k)
    dup = np.moveaxis(dup, -2, pos)
    axes = tuple(joint.axes) + ((name, joint.axes[pos][1]),)
    return JointPmf(axes, dup)


def random_model(
    rng: np.random.Generator, ns: int = 2, nx: int = 2, ny: int = 2, nz: int = 2
) -> SdWtcModel:
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


def random_gp_policy(
    rng: np.random.Generator, model: SdWtcModel, cu: int = 2, cv: int = 2
) -> InputPolicy:
    ns, nx = len(model.s_symbols), len(model.x_symbols)
    k = rng.dirichlet(np.ones(cu * cv * nx), size=ns).reshape(ns, cu, cv, nx)
    return gp_policy(model.s_symbols, tuple(range(cu)), tuple(range(cv)), model.x_symbols, k)


def random_ceg_joint(rng: np.random.Generator, nt: int = 2) -> JointPmf:
    model = random_model(rng)
    ns, nx = len(model.s_symbols), len(model.x_symbols)
    p_t = Pmf(tuple(range(nt)), rng.dirichlet(np.ones(nt)))
    kern = rng.dirichlet(np.ones(nx), size=(nt, ns))
    p_x_given_ts = Channel(
        (("T", p_t.symbols), ("S", model.s_symbols)), (("X", model.x_symbols),), kern
    )
    return policy_joint("ceg", model, (p_t, p_x_given_ts))


def random_rln_model(
    rng: np.random.Generator, ns: int = 2, ns1: int = 2, ns2: int = 2, nx: int = 2
) -> RlnModel:
    ws = rng.dirichlet(np.ones(ns))
    ks = rng.dirichlet(np.ones(ns1 * ns2), size=ns).reshape(ns, ns1, ns2)
    km = rng.dirichlet(np.ones(4), size=nx).reshape(nx, 2, 2)
    return RlnModel(
        state_pmf=Pmf(tuple(range(ns)), ws),
        state_channel=Channel(
            (("S", tuple(range(ns))),),
            (("S1", tuple(range(ns1))), ("S2", tuple(range(ns2)))),
            ks,
        ),
        main_channel=Channel(
            (("X", tuple(range(nx))),), (("Y", (0, 1)), ("Z", (0, 1))), km
        ),
    )


def random_rln_policy(
    rng: np.random.Generator, rln: RlnModel, na: int = 2, nb: int = 2
) -> tuple[Pmf, Channel, Channel]:
    ns, nx = len(rln.s_symbols), len(rln.x_symbols)
    p_x = Pmf(rln.x_symbols, rng.dirichlet(np.ones(nx)))
    p_a = Channel(
        (("S", rln.s_symbols),), (("A", tuple(range(na))),), rng.dirichlet(np.ones(na), size=ns)
    )
    p_b = Channel(
        (("A", tuple(range(na))),), (("B", tuple(range(nb))),), rng.dirichlet(np.ones(nb), size=na)
    )
    return p_x, p_a, p_b


def random_rln_joint(rng: np.random.Generator) -> JointPmf:
    rln = random_rln_model(rng)
    p_x, p_a, p_b = random_rln_policy(rng, rln)
    return policy_joint("rln", rln, (p_x, p_a, p_b))
