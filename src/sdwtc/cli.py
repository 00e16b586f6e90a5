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
import dataclasses
import functools
import hashlib
import json
import math
import sys
from typing import NoReturn

import numpy as np

from . import __version__, simulate
from .models import (
    InputPolicy,
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
    binary_entropy,
    channel_from_joint,
    marginalize,
)
from .rng import derive_seeds
from .softcover import best_gamma
from .simulate import (
    CodeLaw,
    CodeRates,
    exact_message_channel,
    exact_output_divergence,
    leakage_capacity,
    run_reliability_experiment,
    sample_codebook,
)


def config_hash(args: argparse.Namespace) -> str:
    """sha256 prefix of the subcommand and the options it reads, defaults included."""
    blob = json.dumps(vars(args), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _median(values) -> float:
    """float(np.median(values)) in the same IEEE arithmetic, without the
    numpy.ma import np.median makes: the middle value after sorting, or
    (a + b) / 2 of the two middle values, and NaN if any value is NaN."""
    xs = sorted(map(float, values))
    if any(x != x for x in xs):
        return math.nan
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


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
        for metric, n, seed, *values in rows:  # value, lower_ci, upper_ci; no bound is ""
            writer.writerow((metric, n, seed, *("" if v is None else _fmt(v) for v in values)))


def _rows(record: dict, metrics, n="", seed: int = 0, intervals: dict | None = None) -> list[tuple]:
    """The CSV rows of record's metrics, in order, read by key; intervals maps
    a metric to its (lower, upper) confidence bounds."""
    return [(k, n, seed, record[k], *(intervals or {}).get(k, (None, None))) for k in metrics]


def _covering_joint(joint: JointPmf, w_axis: str) -> JointPmf:
    """The (U, V, W) marginal of a layered joint, W one of its axes S, Y, or Z."""
    sub = marginalize(joint, ("U", "V", w_axis))
    axes = (sub.axes[0], sub.axes[1], ("W", sub.axes[2][1]))
    return JointPmf(axes, sub.mass)


def _code_inputs(args: argparse.Namespace) -> tuple[SdWtcModel, InputPolicy]:
    """The --channel model and the --policy lifted to the layered form, for the
    subcommands that build codes; those take an SdWtcModel only."""
    model = load_channel_spec(args.channel)
    if not isinstance(model, SdWtcModel):
        raise TypeError(f"{args.subcommand} needs an SdWtcModel; "
                        "lift_side_information turns an rln channel into one")
    return model, as_input_policy(model, load_policy_spec(args.policy, model))


def _codebook_median(law: CodeLaw, n: int, rates: tuple, seed: int, trials: int, metric: str,
                     measure, rows: list) -> float:
    """The median of measure over trials codebooks at blocklength n: codebook k
    is drawn from derive_seeds(seed + n, 1, start=k) when reached and kept no
    longer than its measurement; each value is appended to rows as metric."""
    values = []
    for k in range(trials):
        s = derive_seeds(seed + n, 1, start=k)[0]
        values.append(measure(sample_codebook(law.q_u, law.q_v_given_u, n, *rates, s)))
        rows.append((metric, n, s, values[-1], None, None))
    return _median(values)


# ---------------------------------------------------------------------------
# subcommand bodies; each returns (results dict, csv rows)


def _cmd_rate(args: argparse.Namespace) -> tuple[dict, list]:
    model = load_channel_spec(args.channel)
    policy = load_policy_spec(args.policy, model)
    report = rate_report(args.functional, model, policy)
    results = {**vars(report), "terms": dict(report.terms), "functional": args.functional}
    terms = {f"term:{label}": value for label, value in results["terms"].items()}
    return results, _rows(results, ("value",), seed=args.seed) + _rows(terms, terms, seed=args.seed)


def _cmd_optimize(args: argparse.Namespace) -> tuple[dict, list]:
    model = load_channel_spec(args.channel)
    budget = OptBudget(restarts=args.restarts, iterations=args.iters, seed=args.seed)
    result = maximize(args.functional, model, args.card_u, args.card_v, budget)
    results = {
        "functional": args.functional,
        "value": result.value,
        "evaluations": result.evaluations,
        "restarts": args.restarts,
        "iterations": args.iters,
        "trace_max": max(result.trace),
        "trace_median": _median(result.trace),
    }
    rows = [
        ("restart_best", k, args.seed, value, None, None)
        for k, value in enumerate(result.trace)
    ]
    return results, rows


def _cmd_example(args: argparse.Namespace) -> tuple[dict, list]:
    model = build_rln_example(args.alpha, args.sigma)
    closed_form = (1.0 - args.sigma) * (1.0 - binary_entropy(args.alpha))
    policy = achieving_rln_policy(model)
    achieved = rate_report("RLN", model, policy)
    budget = OptBudget(restarts=args.restarts, iterations=args.iters, seed=args.seed)
    optimized = maximize("RLN", model, len(model.s_symbols), 1, budget)
    results = {
        "alpha": args.alpha,
        "sigma": args.sigma,
        "capacity_closed_form": closed_form,
        "achieving_policy": "A = S, B = const, X uniform",
        "achieving_value": achieved.value,
        "achieving_terms": {label: value for label, value in achieved.terms},
        "closed_form_gap": abs(achieved.value - closed_form),
        "optimized_value": optimized.value,
        "optimizer_reaches_fraction": optimized.value / closed_form if closed_form else None,
    }
    return results, _rows(results, ("capacity_closed_form", "achieving_value", "optimized_value"),
                          seed=args.seed)


def _cmd_softcov_exponent(args: argparse.Namespace) -> tuple[dict, list]:
    model, policy = _code_inputs(args)
    joint = _covering_joint(assemble_joint(model, policy), args.w_axis)
    result = best_gamma(joint, args.r1, args.r2)
    results = {"w_axis": args.w_axis, "r1": args.r1, "r2": args.r2, **dataclasses.asdict(result)}
    return results, _rows(results, ("gamma", "alpha", "d1", "d2", "c"), seed=args.seed)


def _cmd_softcov_sim(args: argparse.Namespace) -> tuple[dict, list]:
    model, policy = _code_inputs(args)
    simulate.check_trials(args.trials)
    joint = assemble_joint(model, policy)
    law = CodeLaw.of(joint)
    cover = _covering_joint(joint, args.w_axis)
    q_w = marginalize(cover, ("W",)).as_pmf()
    q_w_given_uv = channel_from_joint(cover, ("U", "V"), ("W",))
    rows: list[tuple] = []
    medians = {str(n): _codebook_median(law, n, (args.r1, args.r2, 0.0), args.seed, args.trials, "divergence",
                                        lambda cb: exact_output_divergence(cb, q_w_given_uv, q_w), rows)
               for n in args.n}
    return {"w_axis": args.w_axis, "median_divergence": medians}, rows


def _cmd_codec_sim(args: argparse.Namespace) -> tuple[dict, list]:
    model, policy = _code_inputs(args)
    simulate.check_trials(args.leakage_trials, "leakage trials", least=0)
    rate_triple = CodeRates(args.r1, args.r2, args.r)
    law = CodeLaw.of(assemble_joint(model, policy)) if args.leakage_trials > 0 else None

    rows: list[tuple] = []
    summary: dict[str, dict] = {}
    for n in args.n:
        res = run_reliability_experiment(model, policy, n, rate_triple, args.eps, args.trials,
                                         args.seed + n)
        summary[str(n)] = {
            "avg_error_rate": res.average_error_rate,
            "max_error_rate": res.max_error_rate,
            "erasure_rate": res.erasures / res.trials,
            "encoder_failures": res.encoder_failures,
        }
        rows += _rows(summary[str(n)], ("avg_error_rate", "max_error_rate", "erasure_rate"), n,
                      args.seed + n, {"avg_error_rate": res.average_interval})
        if law is not None:
            summary[str(n)]["median_leakage_bits"] = _codebook_median(
                law, n, rate_triple, args.seed, args.leakage_trials, "leakage_bits",
                lambda cb: leakage_capacity(exact_message_channel(model, policy, cb)).bits, rows)
    return summary, rows


def _cmd_binning_sim(args: argparse.Namespace) -> tuple[dict, list]:
    if args.channel:
        model = load_channel_spec(args.channel)
        if not isinstance(model, RlnModel):
            raise ValueError("binning-sim needs an rln channel spec")
    else:
        model = build_rln_example(args.alpha, args.sigma)

    rows: list[tuple] = []
    summary: dict[str, dict] = {}
    for n in args.n:
        res = simulate.binning_otp_protocol(
            model, n, args.ra, args.rbin, args.r, args.trials, args.seed + n, args.eps
        )
        summary[str(n)] = {
            "error_rate": res.error_rate,
            "key_tv_from_uniform": res.key_tv_from_uniform,
            "csi_failure_rate": res.csi_failures / res.trials,
            "x_decode_failures": res.x_decode_failures,
            "key_decode_failures": res.key_decode_failures,
            "num_bins": res.num_bins,
            "num_keys": res.num_keys,
            "num_messages": res.num_messages,
        }
        rows += _rows(summary[str(n)], ("error_rate", "key_tv_from_uniform", "csi_failure_rate"), n,
                      args.seed + n, {"error_rate": res.error_interval})
    return summary, rows


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        n = tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        n = ()
    if not n:
        raise argparse.ArgumentTypeError(f"--n wants comma-separated integers, got {text!r}")
    return n


# every option's argparse keywords, written once
_OPTIONS = {
    "--channel": {"help": "channel spec JSON path"},
    "--policy": {"help": "policy JSON path"},
    "--functional": {"choices": tuple(FUNCTIONALS)},
    "--card-u": {"type": int, "default": 1},
    "--card-v": {"type": int, "default": 1},
    "--restarts": {"type": int, "default": 16},
    "--iters": {"type": int, "default": 400},
    "--seed": {"type": int, "default": 0},
    "--n": {"type": _parse_n_list, "help": "comma-separated blocklengths"},
    "--trials": {"type": int, "default": 100},
    "--eps": {"type": float, "default": simulate.DEFAULT_EPS},
    "--out": {"help": "CSV output path"},
    "--alpha": {"type": float, "default": 0.25},
    "--sigma": {"type": float, "default": 0.5},
    "--r1": {"type": float},
    "--r2": {"type": float},
    "--r": {"type": float, "default": 0.0},
    "--ra": {"type": float},
    "--rbin": {"type": float},
    "--w-axis": {"default": "S", "choices": ("S", "Y", "Z")},
    "--leakage-trials": {"type": int, "default": 0},
}

# each subcommand's body, the options it requires and the options it may
# take; its parser refuses every other option
_COMMANDS = {
    "rate": (_cmd_rate, ("--channel", "--policy"), ("--functional", "--seed", "--out")),
    "optimize": (_cmd_optimize, ("--channel",),
                 ("--functional", "--card-u", "--card-v", "--restarts", "--iters", "--seed", "--out")),
    "example": (_cmd_example, (), ("--alpha", "--sigma", "--restarts", "--iters", "--seed", "--out")),
    "softcov-exponent": (_cmd_softcov_exponent, ("--channel", "--policy", "--r1", "--r2"),
                         ("--w-axis", "--seed", "--out")),
    "softcov-sim": (_cmd_softcov_sim, ("--channel", "--policy", "--r1", "--r2", "--n"),
                    ("--w-axis", "--trials", "--seed", "--out")),
    "codec-sim": (_cmd_codec_sim, ("--channel", "--policy", "--r1", "--r2", "--n"),
                  ("--r", "--eps", "--trials", "--leakage-trials", "--seed", "--out")),
    "binning-sim": (_cmd_binning_sim, ("--ra", "--rbin", "--n"),
                    ("--channel", "--alpha", "--sigma", "--r", "--eps", "--trials", "--seed", "--out")),
}


def _error_record(command: str | None, kind: str, message: str, **fields) -> int:
    """Print the JSON error record of a failed run; return exit status 1."""
    record = {"command": command, "version": __version__, **fields,
              "error": {"type": kind, "message": message}}
    print(json.dumps(_round12(record), sort_keys=True, indent=2))
    return 1


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
    for name, (_, required, optional) in _COMMANDS.items():
        # no abbreviations: --r must not bind to example's --restarts
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in required + optional:
            p.add_argument(flag, required=flag in required, **_OPTIONS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line: print its JSON summary and return 0, or print
    an error record (a UsageError if the parser refuses the line) and return 1."""
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise _UsageError(args.subcommand, f"unrecognized arguments: {' '.join(extra)}")
        if args.subcommand == "binning-sim" and args.channel:
            # --alpha and --sigma build the example channel that --channel replaces
            flags = {tok.partition("=")[0] for tok in (sys.argv[1:] if argv is None else argv)}
            for flag in ("--alpha", "--sigma"):
                if flag in flags:
                    raise _UsageError(args.subcommand, f"argument {flag}: not allowed with argument --channel")
    except _UsageError as err:
        command, message = err.args
        return _error_record(command, "UsageError", message)
    digest = config_hash(args)
    try:
        results, rows = _COMMANDS[args.subcommand][0](args)
        if args.out:
            _write_csv(args.out, rows)
    except Exception as err:  # noqa: BLE001 - converted to a machine-readable record
        return _error_record(args.subcommand, type(err).__name__, str(err), config_hash=digest)
    summary = {
        "command": args.subcommand,
        "version": __version__,
        "seed": args.seed,
        "config_hash": digest,
        "results": results,
        "csv": args.out,
    }
    print(json.dumps(_round12(summary), sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
