"""Traced run: time the public functions of each sdwtc module where they are called.

``Tracer.install`` replaces each function in ``TRACED`` with a timing
wrapper on every loaded ``sdwtc`` module attribute that refers to it, so
the call sites inside the package (``rates.mutual_information``,
``optimize.assemble_joint``, ...) and the benchmark's own calls all go
through the wrapper.  No source file changes.  Functions a later version
of the package no longer has are skipped, and their metrics read 0.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out once, when the run ends.  A span's self time is its duration
minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

TRACED = {
    "cli": ("main", "load_channel_spec"),
    "optimize": ("maximize", "exhaustive_small"),
    "rates": ("rate_RA", "rate_RA_alt", "rate_CHV", "rate_CEG", "rate_RLN",
              "semidet_objective", "rate_LN_encdec"),
    "models": ("assemble_joint",),
    "prob": ("mutual_information", "entropy", "channel_from_joint"),
    "softcover": ("best_gamma", "gamma_exponent"),
    "simulate": ("sample_codebook", "likelihood_encode", "typicality_decode",
                 "run_reliability_experiment", "binning_otp_protocol",
                 "exact_message_channel", "exact_output_divergence", "leakage_capacity"),
    "rng": ("child_seed", "derive_seeds"),
}

# rate functional -> the name the CLI and the optimizer use for it
FUNCTIONALS = {
    "rate_RA": "RA", "rate_RA_alt": "RA_alt", "rate_CHV": "CHV", "rate_CEG": "CEG",
    "rate_RLN": "RLN", "semidet_objective": "semidet", "rate_LN_encdec": "LN_encdec",
}

# (metric name, unit, better) for every per-layer metric, in report order
PER_LAYER = [
    ("prob.mutual_information.calls", "count", "lower"),
    ("prob.mutual_information.us_per_call", "us", "lower"),
    ("prob.entropy.calls", "count", "lower"),
    ("prob.entropy.us_per_call", "us", "lower"),
    ("models.assemble_joint.calls", "count", "lower"),
    ("models.assemble_joint.us_per_call", "us", "lower"),
    ("prob.channel_from_joint.calls", "count", "lower"),
    ("rates.eval.calls", "count", "lower"),
    ("rates.eval.us_per_call", "us", "lower"),
    ("rates.eval.self_us_per_call", "us", "lower"),
    *((f"rates.{f}.us_per_call", "us", "lower") for f in FUNCTIONALS.values()),
    ("optimize.maximize.evaluations", "count", "lower"),
    ("optimize.maximize.self_s", "s", "lower"),
    ("optimize.maximize.restarts_at_target_frac", "frac", "higher"),
    ("optimize.exhaustive_small.policies", "count", "lower"),
    ("optimize.exhaustive_small.self_s", "s", "lower"),
    ("optimize.exhaustive_small.policies_per_s", "1/s", "higher"),
    ("optimize.rate_shortfall_bits", "bits", "lower"),
    ("simulate.sample_codebook.calls", "count", "lower"),
    ("simulate.sample_codebook.ms_per_call", "ms", "lower"),
    ("simulate.likelihood_encode.us_per_call", "us", "lower"),
    ("simulate.typicality_decode.calls", "count", "lower"),
    ("simulate.typicality_decode.rows_per_s", "1/s", "higher"),
    ("simulate.typicality_decode.erasure_frac", "frac", "lower"),
    ("simulate.run_reliability_experiment.trials_per_s", "1/s", "higher"),
    ("simulate.binning_otp_protocol.trials_per_s", "1/s", "higher"),
    ("simulate.exact_message_channel.n6.s_per_call", "s", "lower"),
    ("simulate.exact_message_channel.n8.s_per_call", "s", "lower"),
    ("simulate.exact_output_divergence.n8.s_per_call", "s", "lower"),
    ("simulate.exact_output_divergence.n10.s_per_call", "s", "lower"),
    ("simulate.leakage_capacity.iterations", "count", "lower"),
    ("simulate.leakage_capacity.ms_per_call", "ms", "lower"),
    ("softcover.best_gamma.calls", "count", "lower"),
    ("softcover.best_gamma.ms_per_call", "ms", "lower"),
    ("softcover.gamma_exponent.calls", "count", "lower"),
    ("rng.seed_derivation.calls", "count", "lower"),
    ("rng.seed_derivation.ms", "ms", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_ms_per_call", "ms", "lower"),
    ("cli.load_channel_spec.ms_per_call", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _argument(fn, name: str):
    """Reader of one argument of fn, from a call's (args, kwargs), with defaults."""
    sig = inspect.signature(fn)
    params = list(sig.parameters)
    pos = params.index(name)
    default = sig.parameters[name].default

    def read(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[pos] if pos < len(args) else default

    return read


def _observer(label: str, fn):
    """Counts a call adds beyond its time: (counters, args, kwargs, result, ns) -> None."""
    if label == "simulate.typicality_decode":
        cb_of = _argument(fn, "cb")

        def observe(c, args, kwargs, result, ns):
            cb = cb_of(args, kwargs)
            c["decode.rows"] += cb.num_u * cb.num_v * cb.num_messages
            c["decode.erasures"] += isinstance(result, str)
        return observe
    if label in ("simulate.exact_message_channel", "simulate.exact_output_divergence"):
        cb_of = _argument(fn, "cb")

        def observe(c, args, kwargs, result, ns):
            n = cb_of(args, kwargs).n
            c[f"{label}.n{n}.calls"] += 1
            c[f"{label}.n{n}.ns"] += ns
        return observe
    if label in ("simulate.run_reliability_experiment", "simulate.binning_otp_protocol"):
        trials_of = _argument(fn, "trials")

        def observe(c, args, kwargs, result, ns):
            c[f"{label}.trials"] += trials_of(args, kwargs)
        return observe
    if label == "simulate.leakage_capacity":
        def observe(c, args, kwargs, result, ns):
            c["leakage.iterations"] += result.iterations
        return observe
    if label == "optimize.maximize":
        def observe(c, args, kwargs, result, ns):
            target = 0.99 * result.value if result.value > 0.0 else result.value
            c["maximize.evaluations"] += result.evaluations
            c["maximize.restarts"] += len(result.trace)
            c["maximize.at_target"] += sum(v >= target for v in result.trace)
        return observe
    return None


class Tracer:
    """Timing wrappers, the spans they record, and the counters beside them."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.label_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        label_id = len(self.labels)
        self.labels.append(label)
        observe = _observer(label, fn)
        label_of, start, end, parent, stack = (
            self.label_of, self.start, self.end, self.parent, self.stack)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            label_of.append(label_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            t0 = perf_counter_ns()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                end[i] = t1
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result, t1 - t0)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function on each sdwtc module attribute bound to it."""
        package = [m for name, m in sys.modules.items()
                   if m is not None and (name == "sdwtc" or name.startswith("sdwtc."))]
        for module_name, names in TRACED.items():
            module = sys.modules.get(f"sdwtc.{module_name}")
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{module_name}.{name}", fn)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def save(self, path: Path) -> None:
        """Write the spans (label table plus flat arrays) as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, labels=np.array(self.labels), label=np.asarray(self.label_of),
                 start_ns=np.asarray(self.start), end_ns=np.asarray(self.end),
                 parent=np.asarray(self.parent))

    def per_layer(self, passes: int, policies: int, shortfall: float, overhead_s: float) -> dict:
        """Every PER_LAYER metric, per pass of the job list or per call."""
        label = np.asarray(self.label_of, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros(dur.size, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child

        def spans(*names: str) -> np.ndarray:
            ids = [i for i, lab in enumerate(self.labels) if lab in names]
            return np.isin(label, ids)

        def calls(*names: str) -> float:
            return float(spans(*names).sum()) / passes

        def per_call(scale: float, *names: str, own: bool = False) -> float:
            mask = spans(*names)
            n = int(mask.sum())
            return float((self_ns if own else dur)[mask].sum()) / n / scale if n else 0.0

        def total(scale: float, *names: str, own: bool = False) -> float:
            return float((self_ns if own else dur)[spans(*names)].sum()) / scale / passes

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        c = self.counters
        rate_labels = tuple(f"rates.{f}" for f in FUNCTIONALS)
        grid_s = total(1e9, "optimize.exhaustive_small")
        decode_s = total(1e9, "simulate.typicality_decode")
        m = {
            "prob.mutual_information.calls": calls("prob.mutual_information"),
            "prob.mutual_information.us_per_call": per_call(1e3, "prob.mutual_information"),
            "prob.entropy.calls": calls("prob.entropy"),
            "prob.entropy.us_per_call": per_call(1e3, "prob.entropy"),
            "models.assemble_joint.calls": calls("models.assemble_joint"),
            "models.assemble_joint.us_per_call": per_call(1e3, "models.assemble_joint"),
            "prob.channel_from_joint.calls": calls("prob.channel_from_joint"),
            "rates.eval.calls": calls(*rate_labels),
            "rates.eval.us_per_call": per_call(1e3, *rate_labels),
            "rates.eval.self_us_per_call": per_call(1e3, *rate_labels, own=True),
            **{f"rates.{f}.us_per_call": per_call(1e3, f"rates.{fn}")
               for fn, f in FUNCTIONALS.items()},
            "optimize.maximize.evaluations": c["maximize.evaluations"] / passes,
            "optimize.maximize.self_s": total(1e9, "optimize.maximize", own=True),
            "optimize.maximize.restarts_at_target_frac":
                ratio(c["maximize.at_target"], c["maximize.restarts"]),
            "optimize.exhaustive_small.policies": policies / passes,
            "optimize.exhaustive_small.self_s": total(1e9, "optimize.exhaustive_small", own=True),
            "optimize.exhaustive_small.policies_per_s": ratio(policies / passes, grid_s),
            "optimize.rate_shortfall_bits": shortfall,
            "simulate.sample_codebook.calls": calls("simulate.sample_codebook"),
            "simulate.sample_codebook.ms_per_call": per_call(1e6, "simulate.sample_codebook"),
            "simulate.likelihood_encode.us_per_call": per_call(1e3, "simulate.likelihood_encode"),
            "simulate.typicality_decode.calls": calls("simulate.typicality_decode"),
            "simulate.typicality_decode.rows_per_s": ratio(c["decode.rows"] / passes, decode_s),
            "simulate.typicality_decode.erasure_frac":
                ratio(c["decode.erasures"], passes * calls("simulate.typicality_decode")),
            **{f"{lab}.trials_per_s": ratio(c[f"{lab}.trials"] / passes, total(1e9, lab))
               for lab in ("simulate.run_reliability_experiment",
                           "simulate.binning_otp_protocol")},
            **{f"{lab}.n{n}.s_per_call": ratio(c[f"{lab}.n{n}.ns"] / 1e9, c[f"{lab}.n{n}.calls"])
               for lab, sizes in (("simulate.exact_message_channel", (6, 8)),
                                  ("simulate.exact_output_divergence", (8, 10)))
               for n in sizes},
            "simulate.leakage_capacity.iterations":
                ratio(c["leakage.iterations"], passes * calls("simulate.leakage_capacity")),
            "simulate.leakage_capacity.ms_per_call": per_call(1e6, "simulate.leakage_capacity"),
            "softcover.best_gamma.calls": calls("softcover.best_gamma"),
            "softcover.best_gamma.ms_per_call": per_call(1e6, "softcover.best_gamma"),
            "softcover.gamma_exponent.calls": calls("softcover.gamma_exponent"),
            "rng.seed_derivation.calls": calls("rng.child_seed", "rng.derive_seeds"),
            "rng.seed_derivation.ms": total(1e6, "rng.child_seed", "rng.derive_seeds"),
            "cli.main.calls": calls("cli.main"),
            "cli.main.self_ms_per_call": per_call(1e6, "cli.main", own=True),
            "cli.load_channel_spec.ms_per_call": per_call(1e6, "cli.load_channel_spec"),
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": m[name], "unit": unit} for name, unit, _ in PER_LAYER}
