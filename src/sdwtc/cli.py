"""Batch entry point: load channel specs, dispatch computations, emit results.

Every run prints a structured JSON summary to stdout (seed, config hash,
and package version embedded for exact replay) and optionally writes CSV
rows with the fixed column set (metric, n, seed, value, lower_ci,
upper_ci).  All floats are printed with 12 significant digits and no
timestamps appear anywhere, so reruns with identical configs produce
byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import NoReturn

import numpy as np

from . import __version__, simulate
from .models import (
    RlnModel,
    SdWtcModel,
    achieving_rln_policy,
    as_input_policy,
    assemble_joint,
    build_rln_example,
    model_from_dict,
    policy_from_dict,
)
from .optimize import FUNCTIONALS, OptBudget, maximize, rate_report
from .prob import (
    JointPmf,
    Pmf,
    _marginal_mass,
    binary_entropy,
    channel_from_joint,
    marginalize,
    mutual_information,
)
from .rng import derive_seeds
from .softcover import best_gamma
from .simulate import (
    CodeLaw,
    CodeRates,
    exact_output_divergence,
    leakage_capacity,
    run_reliability_experiment,
    sample_codebook,
)

SUBCOMMANDS = (
    "rate",
    "optimize",
    "example",
    "softcov-exponent",
    "softcov-sim",
    "codec-sim",
    "binning-sim",
)


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved invocation; hashing this reproduces the run."""

    subcommand: str
    channel: str | None = None
    policy: str | None = None
    functional: str | None = None
    card_u: int = 1
    card_v: int = 1
    restarts: int = 16
    iters: int = 400
    seed: int = 0
    n: tuple[int, ...] = ()
    trials: int = 100
    eps: float = simulate.DEFAULT_EPS
    out: str | None = None
    alpha: float | None = None
    sigma: float | None = None
    r1: float | None = None
    r2: float | None = None
    r: float = 0.0
    ra: float | None = None
    rbin: float | None = None
    w_axis: str = "S"
    leakage_trials: int = 0


def config_hash(config: RunConfig) -> str:
    blob = json.dumps(asdict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(obj):
    if isinstance(obj, float):
        return float(_fmt(obj)) if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.floating):
        return _round12(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


class _Document(dict):
    """A JSON object whose missing fields are a ValueError naming the document."""

    def __init__(self, path: str, fields: dict) -> None:
        super().__init__(fields)
        self.path = path

    def __missing__(self, field: str):
        raise ValueError(f"{self.path} has no field {field!r}")


def _load_json(path: str) -> dict:
    """Read a JSON document whose top level is an object; parse errors carry
    line/column context, the non-finite literals NaN and Infinity are
    refused, and a missing field is a ValueError naming the document."""
    def refuse(literal: str):
        raise ValueError(f"non-finite number {literal} in {path}")

    with open(path) as fh:
        try:
            doc = json.load(fh, parse_constant=refuse, object_hook=lambda d: _Document(path, d))
        except json.JSONDecodeError as err:
            raise ValueError(f"parse error in {path}: {err}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def load_channel_spec(path: str) -> SdWtcModel | RlnModel:
    """Load and validate a JSON channel document.

    Rows that do not sum to one within 1e-9 are a hard error (no silent
    renormalization).
    """
    return model_from_dict(_load_json(path))


def load_policy_spec(path: str, model: SdWtcModel | RlnModel):
    """Load a policy document; its "kind" names the models.POLICY_KINDS
    record that lists the auxiliary-alphabet and part fields to read."""
    return policy_from_dict(_load_json(path), model)


def _write_csv(path: str, rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("metric", "n", "seed", "value", "lower_ci", "upper_ci"))
        for metric, n, seed, value, lo, hi in rows:
            writer.writerow(
                (
                    metric,
                    n,
                    seed,
                    _fmt(value),
                    "" if lo is None else _fmt(lo),
                    "" if hi is None else _fmt(hi),
                )
            )


def _covering_joint(joint: JointPmf, w_axis: str) -> JointPmf:
    """The (U, V, W) marginal of a layered joint, W one of its axes S, Y, or Z."""
    if w_axis not in ("S", "Y", "Z"):
        raise ValueError(f"--w-axis must be S, Y, or Z, got {w_axis!r}")
    sub = marginalize(joint, ("U", "V", w_axis))
    axes = (sub.axes[0], sub.axes[1], ("W", sub.axes[2][1]))
    return JointPmf(axes, sub.mass)


# ---------------------------------------------------------------------------
# subcommand bodies; each returns (results dict, csv rows)


def _cmd_rate(config: RunConfig) -> tuple[dict, list]:
    model = load_channel_spec(config.channel)
    policy = load_policy_spec(config.policy, model)
    report = rate_report(config.functional, model, policy)
    results = {
        "functional": config.functional,
        "value": report.value,
        "active_term": report.active_term,
        "terms": {label: value for label, value in report.terms},
        "feasible": report.feasible,
    }
    rows = [(f"term:{label}", "", config.seed, value, None, None) for label, value in report.terms]
    rows.insert(0, ("value", "", config.seed, report.value, None, None))
    return results, rows


def _cmd_optimize(config: RunConfig) -> tuple[dict, list]:
    model = load_channel_spec(config.channel)
    budget = OptBudget(restarts=config.restarts, iterations=config.iters, seed=config.seed)
    result = maximize(config.functional, model, config.card_u, config.card_v, budget)
    results = {
        "functional": config.functional,
        "value": result.value,
        "evaluations": result.evaluations,
        "restarts": config.restarts,
        "iterations": config.iters,
        "trace_max": max(result.trace),
        "trace_median": float(np.median(result.trace)),
    }
    rows = [
        ("restart_best", k, config.seed, value, None, None)
        for k, value in enumerate(result.trace)
    ]
    return results, rows


def _cmd_example(config: RunConfig) -> tuple[dict, list]:
    alpha = 0.25 if config.alpha is None else config.alpha
    sigma = 0.5 if config.sigma is None else config.sigma
    model = build_rln_example(alpha, sigma)
    closed_form = (1.0 - sigma) * (1.0 - binary_entropy(alpha))
    policy = achieving_rln_policy(model)
    achieved = rate_report("RLN", model, policy)
    budget = OptBudget(restarts=config.restarts, iterations=config.iters, seed=config.seed)
    optimized = maximize("RLN", model, len(model.s_symbols), 1, budget)
    results = {
        "alpha": alpha,
        "sigma": sigma,
        "capacity_closed_form": closed_form,
        "achieving_policy": "A = S, B = const, X uniform",
        "achieving_value": achieved.value,
        "achieving_terms": {label: value for label, value in achieved.terms},
        "closed_form_gap": abs(achieved.value - closed_form),
        "optimized_value": optimized.value,
        "optimizer_reaches_fraction": optimized.value / closed_form if closed_form else None,
    }
    rows = [
        ("capacity_closed_form", "", config.seed, closed_form, None, None),
        ("achieving_value", "", config.seed, achieved.value, None, None),
        ("optimized_value", "", config.seed, optimized.value, None, None),
    ]
    return results, rows


def _cmd_softcov_exponent(config: RunConfig) -> tuple[dict, list]:
    model = load_channel_spec(config.channel)
    policy = as_input_policy(model, load_policy_spec(config.policy, model))
    joint = _covering_joint(assemble_joint(model, policy), config.w_axis)
    if config.r1 is None or config.r2 is None:
        raise ValueError("softcov-exponent needs --r1 and --r2")
    result = best_gamma(joint, config.r1, config.r2)
    i_uw = mutual_information(joint, ("U",), ("W",))
    i_uvw = mutual_information(joint, ("U", "V"), ("W",))
    results = {
        "w_axis": config.w_axis,
        "r1": config.r1,
        "r2": config.r2,
        "i_uw": i_uw,
        "i_uvw": i_uvw,
        "gamma": result.gamma,
        "alpha": result.alpha,
        "d1": result.d1,
        "d2": result.d2,
        "c": result.c,
        "degenerate": result.degenerate,
    }
    rows = [
        ("gamma", "", config.seed, result.gamma, None, None),
        ("alpha", "", config.seed, result.alpha, None, None),
        ("d1", "", config.seed, result.d1, None, None),
        ("d2", "", config.seed, result.d2, None, None),
        ("c", "", config.seed, result.c, None, None),
    ]
    return results, rows


def _cmd_softcov_sim(config: RunConfig) -> tuple[dict, list]:
    model = load_channel_spec(config.channel)
    policy = as_input_policy(model, load_policy_spec(config.policy, model))
    if config.r1 is None or config.r2 is None:
        raise ValueError("softcov-sim needs --r1 and --r2")
    if not config.n:
        raise ValueError("softcov-sim needs --n")
    if config.trials < 1:
        raise ValueError(f"trials must be positive, got {config.trials!r}")
    joint = assemble_joint(model, policy)
    law = CodeLaw.of(joint)
    cover = _covering_joint(joint, config.w_axis)
    q_w = Pmf(cover.alphabet("W"), _marginal_mass(cover, ("W",)))
    q_w_given_uv = channel_from_joint(cover, ("U", "V"), ("W",))

    rows: list[tuple] = []
    medians: dict[str, float] = {}
    for n in config.n:
        seeds = derive_seeds(config.seed + n, config.trials)
        values = []
        for s in seeds:
            cb = sample_codebook(law.q_u, law.q_v_given_u, n, config.r1, config.r2, 0.0, s)
            d = exact_output_divergence(cb, q_w_given_uv, q_w)
            values.append(d)
            rows.append(("divergence", n, s, d, None, None))
        medians[str(n)] = float(np.median(values))
    return {"w_axis": config.w_axis, "median_divergence": medians}, rows


def _cmd_codec_sim(config: RunConfig) -> tuple[dict, list]:
    model = load_channel_spec(config.channel)
    policy = as_input_policy(model, load_policy_spec(config.policy, model))
    if config.r1 is None or config.r2 is None:
        raise ValueError("codec-sim needs --r1 and --r2")
    if not config.n:
        raise ValueError("codec-sim needs --n")
    if config.leakage_trials < 0:
        raise ValueError(f"leakage trials must be positive, got {config.leakage_trials!r}")
    rate_triple = CodeRates(config.r1, config.r2, config.r)
    law = CodeLaw.of(assemble_joint(model, policy))

    rows: list[tuple] = []
    summary: dict[str, dict] = {}
    for n in config.n:
        res = run_reliability_experiment(
            model, policy, n, rate_triple, config.eps, config.trials, config.seed + n
        )
        lo, hi = res.average_interval
        rows.append(("avg_error_rate", n, config.seed + n, res.average_error_rate, lo, hi))
        rows.append(("max_error_rate", n, config.seed + n, res.max_error_rate, None, None))
        rows.append(("erasure_rate", n, config.seed + n, res.erasures / res.trials, None, None))
        summary[str(n)] = {
            "avg_error_rate": res.average_error_rate,
            "max_error_rate": res.max_error_rate,
            "erasure_rate": res.erasures / res.trials,
            "encoder_failures": res.encoder_failures,
        }
        if config.leakage_trials > 0:
            leaks = []
            for s in derive_seeds(config.seed + n, config.leakage_trials):
                cb = sample_codebook(law.q_u, law.q_v_given_u, n, *rate_triple, s)
                cap = leakage_capacity(simulate._message_channel(model, law, cb))
                leaks.append(cap.bits)
                rows.append(("leakage_bits", n, s, cap.bits, None, None))
            summary[str(n)]["median_leakage_bits"] = float(np.median(leaks))
    return summary, rows


def _cmd_binning_sim(config: RunConfig) -> tuple[dict, list]:
    if config.channel:
        model = load_channel_spec(config.channel)
        if not isinstance(model, RlnModel):
            raise ValueError("binning-sim needs an rln channel spec")
    else:
        alpha = 0.25 if config.alpha is None else config.alpha
        sigma = 0.5 if config.sigma is None else config.sigma
        model = build_rln_example(alpha, sigma)
    if config.ra is None or config.rbin is None:
        raise ValueError("binning-sim needs --ra and --rbin")
    if not config.n:
        raise ValueError("binning-sim needs --n")

    rows: list[tuple] = []
    summary: dict[str, dict] = {}
    for n in config.n:
        res = simulate.binning_otp_protocol(
            model, n, config.ra, config.rbin, config.r, config.trials, config.seed + n, config.eps
        )
        lo, hi = res.error_interval
        rows.append(("error_rate", n, config.seed + n, res.error_rate, lo, hi))
        rows.append(("key_tv_from_uniform", n, config.seed + n, res.key_tv_from_uniform, None, None))
        rows.append(("csi_failure_rate", n, config.seed + n, res.csi_failures / res.trials, None, None))
        summary[str(n)] = {
            "error_rate": res.error_rate,
            "key_tv_from_uniform": res.key_tv_from_uniform,
            "csi_failure_rate": res.csi_failures / res.trials,
            "num_bins": res.num_bins,
            "num_keys": res.num_keys,
            "num_messages": res.num_messages,
        }
    return summary, rows


_BODIES = {
    "rate": _cmd_rate,
    "optimize": _cmd_optimize,
    "example": _cmd_example,
    "softcov-exponent": _cmd_softcov_exponent,
    "softcov-sim": _cmd_softcov_sim,
    "codec-sim": _cmd_codec_sim,
    "binning-sim": _cmd_binning_sim,
}


def _error_record(command: str | None, kind: str, message: str, **fields) -> int:
    """Print the JSON error record of a failed run; return exit status 1."""
    record = {"command": command, "version": __version__, **fields,
              "error": {"type": kind, "message": message}}
    print(json.dumps(_round12(record), sort_keys=True, indent=2))
    return 1


def run(config: RunConfig) -> int:
    """Dispatch a config; print the summary; return the exit status."""
    digest = config_hash(config)
    try:
        results, rows = _BODIES[config.subcommand](config)
        if config.out:
            _write_csv(config.out, rows)
    except Exception as err:  # noqa: BLE001 - converted to a machine-readable record
        return _error_record(config.subcommand, type(err).__name__, str(err), config_hash=digest)
    summary = {
        "command": config.subcommand,
        "version": __version__,
        "seed": config.seed,
        "config_hash": digest,
        "results": results,
        "csv": config.out,
    }
    print(json.dumps(_round12(summary), sort_keys=True, indent=2))
    return 0


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--n wants comma-separated integers, got {text!r}")


class _UsageError(Exception):
    """A command line the parser refuses; args are (subcommand or None, message)."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors (on the parser or a subcommand's)
    reach main as a _UsageError, not as usage text and exit status 2."""

    def error(self, message: str) -> NoReturn:
        raise _UsageError(self.prog.partition(" ")[2] or None, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built once per process."""
    parser = _Parser(
        prog="sdwtc",
        description="Secrecy rates, covering exponents, and coding-scheme simulation "
        "for state-dependent wiretap channels.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--channel", help="channel spec JSON path")
        p.add_argument("--policy", help="policy JSON path")
        p.add_argument("--functional", choices=tuple(FUNCTIONALS))
        p.add_argument("--card-u", type=int, default=1)
        p.add_argument("--card-v", type=int, default=1)
        p.add_argument("--restarts", type=int, default=16)
        p.add_argument("--iters", type=int, default=400)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--n", type=_parse_n_list, default=())
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--eps", type=float, default=simulate.DEFAULT_EPS)
        p.add_argument("--out", help="CSV output path")
        p.add_argument("--alpha", type=float)
        p.add_argument("--sigma", type=float)
        p.add_argument("--r1", type=float)
        p.add_argument("--r2", type=float)
        p.add_argument("--r", type=float, default=0.0)
        p.add_argument("--ra", type=float)
        p.add_argument("--rbin", type=float)
        p.add_argument("--w-axis", default="S", choices=("S", "Y", "Z"))
        p.add_argument("--leakage-trials", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line; a line the parser refuses is a UsageError record."""
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise _UsageError(args.subcommand, f"unrecognized arguments: {' '.join(extra)}")
    except _UsageError as err:
        command, message = err.args
        return _error_record(command, "UsageError", message)
    return run(RunConfig(**vars(args)))


if __name__ == "__main__":
    sys.exit(main())
