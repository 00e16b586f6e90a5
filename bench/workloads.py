"""The four benchmark workloads: fixtures, fixed job lists and output checks.

Each workload is a fixed list of jobs on fixed instances.  A job returns a
flat dict of outputs; every output is compared with the reference recorded
for it (see ``compare``), and some jobs add checks that need no reference.
The workload seed picks one of ``NUM_VARIANTS`` recorded variants, which
differ only in the seeds handed to the program (optimizer restarts,
codebooks, Monte Carlo trials), so every variant does the same amount of
work.

Jobs call the program through ``sdwtc.cli.main`` where a subcommand covers
them and through the public library otherwise, always by module attribute
(``simulate.exact_message_channel(...)``), so the traced run can wrap them.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from itertools import product as iter_product
from pathlib import Path
from typing import Callable

import numpy as np

from sdwtc import cli, models, optimize, prob, rng, simulate

FIXTURES = Path(__file__).resolve().parent / "fixtures"
NUM_VARIANTS = 16

# Tolerances for comparing a job's outputs with its recorded reference.
# Counts, flags and labels must match exactly; floats within FLOAT_ATOL.
FLOAT_ATOL = 1e-9


@dataclass
class Job:
    """One unit of work: ``run`` returns the outputs that are checked.

    ``check(outputs, first)`` returns independent problems (an empty list
    when the outputs are right); ``first`` is true on the untraced warm-up
    execution, where the expensive checks run.  ``shortfall`` gives the
    known optimum minus the achieved value.  ``policies`` counts the grid
    policies the job evaluates.
    """

    name: str
    run: Callable[[], dict]
    check: Callable[[dict, bool], list[str]] = lambda out, first: []
    shortfall: Callable[[dict], float] | None = None
    policies: int = 0


@dataclass
class Workload:
    name: str
    variant: int
    jobs: list[Job] = field(default_factory=list)


# ---------------------------------------------------------------------------
# helpers


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def run_cli(argv: list[str]) -> dict:
    """Run one subcommand in-process; return its ``results`` block, flattened."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    doc = json.loads(buf.getvalue())
    if status != 0:
        raise RuntimeError(f"sdwtc {argv[0]} exited {status}: {doc.get('error')}")
    return flatten(doc["results"])


def flatten(obj, prefix: str = "") -> dict:
    """Nested dicts to one level with dotted keys; numpy scalars to Python."""
    out = {}
    for key, value in obj.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten(value, name + "."))
        elif isinstance(value, np.integer):
            out[name] = int(value)
        elif isinstance(value, np.floating):
            out[name] = float(value)
        else:
            out[name] = value
    return out


def compare(reference: dict, outputs: dict) -> list[str]:
    """Problems with outputs against a reference: ints, bools and strings
    exactly, floats within FLOAT_ATOL.  Keys the reference lacks are not
    checked, so the program may add outputs."""
    problems = []
    for key, want in reference.items():
        if key not in outputs:
            problems.append(f"{key}: missing")
            continue
        got = outputs[key]
        if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
            if not abs(got - want) <= FLOAT_ATOL:
                problems.append(f"{key}: {got!r} != {want!r} (tolerance {FLOAT_ATOL})")
        elif type(got) is not type(want) or got != want:
            problems.append(f"{key}: {got!r} != {want!r}")
    return problems


def grid_size(k: int, blocks: list[tuple[int, int]]) -> int:
    """Policies on a 1/k grid over row-stochastic blocks (rows, row length)."""
    total = 1
    for rows, d in blocks:
        total *= math.comb(k + d - 1, d - 1) ** rows
    return total


def load_models(*names: str) -> dict:
    """Load and validate channel fixtures through the CLI loader."""
    return {name: cli.load_channel_spec(fixture(name)) for name in names}


def code_distributions(joint: prob.JointPmf):
    """Q_U and Q_{V|U} of a joint, as the codebook sampler takes them."""
    q_u = prob.marginalize(joint, ("U",)).as_pmf()
    q_v_given_u = prob.channel_from_joint(joint, ("U",), ("V",))
    return q_u, q_v_given_u


# ---------------------------------------------------------------------------
# rate-search: sequential ascent; each step is one functional evaluation


def rate_search(v: int, tiny: bool) -> Workload:
    restarts, iters = ("1", "12") if tiny else ("4", "150")
    lifted = load_models("lifted_benchmark.json", "wiretap.json")["lifted_benchmark.json"]
    want = models.lift_side_information(models.build_rln_example(0.25, 0.5))
    if lifted.channel.kernel.shape != want.channel.kernel.shape or not np.array_equal(
        lifted.channel.kernel, want.channel.kernel
    ):
        raise ValueError("lifted_benchmark.json is not the lift of build_rln_example(0.25, 0.5)")

    def example_check(out: dict, first: bool) -> list[str]:
        problems = []
        if not out["optimized_value"] >= 0.99 * out["capacity_closed_form"]:
            problems.append(
                f"RLN optimum {out['optimized_value']!r} < 0.99 x closed form "
                f"{out['capacity_closed_form']!r}"
            )
        if not out["closed_form_gap"] <= 1e-9:
            problems.append(f"achieving policy misses the closed form by {out['closed_form_gap']!r}")
        return problems

    # full size even when tiny: the RLN check needs the optimizer to converge
    jobs = [
        Job(
            "example-RLN",
            lambda: run_cli(
                ["example", "--alpha", "0.25", "--sigma", "0.5", "--restarts", "8",
                 "--iters", "200", "--seed", str(v)]
            ),
            check=example_check,
            shortfall=lambda out: out["capacity_closed_form"] - out["optimized_value"],
        )
    ]
    for channel, functional, card_u, card_v in (
        ("lifted_benchmark.json", "CHV", 1, 4),
        ("lifted_benchmark.json", "RA", 2, 4),
        ("wiretap.json", "RA", 2, 2),
        ("wiretap.json", "CEG", 2, 1),
        ("wiretap.json", "LN_encdec", 1, 1),
    ):
        argv = ["optimize", "--channel", fixture(channel), "--functional", functional,
                "--card-u", str(card_u), "--card-v", str(card_v), "--restarts", restarts,
                "--iters", iters, "--seed", str(v)]
        jobs.append(Job(f"optimize-{functional}-{channel[:-5]}", lambda argv=argv: run_cli(argv)))
    return Workload("rate-search", v, jobs)


# ---------------------------------------------------------------------------
# grid-oracle: the same layers as a wide batch of independent candidates


def grid_oracle(v: int, tiny: bool) -> Workload:
    found = load_models("semidet_xor.json", "wiretap.json")
    restarts, iters = (2, 10) if tiny else (8, 120)
    jobs = []
    for name, functional, card_v, k, blocks in (
        # semidet: |S| rows of length |X|; CHV: |S| rows of length |V||X|
        ("semidet-xor", "semidet", 1, 8 if tiny else 64, [(2, 2)]),
        ("CHV-wiretap", "CHV", 2, 2 if tiny else 5, [(2, 4)]),
    ):
        model = found["semidet_xor.json" if functional == "semidet" else "wiretap.json"]

        def run(functional=functional, model=model, card_v=card_v, k=k) -> dict:
            grid = optimize.exhaustive_small(functional, model, 1.0 / k, 1, card_v)
            res = optimize.maximize(
                functional, model, 1, card_v,
                optimize.OptBudget(restarts=restarts, iterations=iters, seed=v),
            )
            return {"grid_value": float(grid), "maximize_value": float(res.value),
                    "evaluations": int(res.evaluations)}

        jobs.append(
            # the grid maximum is the known optimum unless the ascent beats it
            Job(name, run,
                shortfall=lambda out: max(0.0, out["grid_value"] - out["maximize_value"]),
                policies=grid_size(k, blocks))
        )
    return Workload("grid-oracle", v, jobs)


# ---------------------------------------------------------------------------
# code-montecarlo: many small seeded trials; per-row typicality scans


CODEC_N = (8, 12)
CODEC_RATES = (0.2, 0.2, 0.3)  # R1, R2 give hundreds of rows at n=12; R < 1 - h(0.11)
CODEC_EPS = 1.0
DECODE_CHECK_TRIALS = 3


def scan_decode(y: tuple, cb: simulate.Codebook, q_uvy: prob.Pmf, eps: float):
    """Brute-force decoder: test every (i, j, m) with prob.is_letter_typical."""
    hits = []
    for i, j, m in iter_product(range(cb.num_u), range(cb.num_v), range(cb.num_messages)):
        word = tuple(
            (cb.u_symbols[cb.u_words[i, t]], cb.v_symbols[cb.v_words[i, j, m, t]], y[t])
            for t in range(cb.n)
        )
        if prob.is_letter_typical(word, q_uvy, eps):
            hits.append((i, j, m))
    return hits[0] if len(hits) == 1 else models.ERASURE


def code_montecarlo(v: int, tiny: bool) -> Workload:
    channel, policy_doc = fixture("bsc_q011.json"), fixture("uniform_v_is_x.json")
    model = load_models("bsc_q011.json")["bsc_q011.json"]
    policy = cli.load_policy_spec(policy_doc, model)
    joint = models.assemble_joint(model, policy)
    q_u, q_v_given_u = code_distributions(joint)
    q_uvy = prob.marginalize(joint, ("U", "V", "Y")).as_pmf()
    codec_trials, binning_trials = ("2", "2") if tiny else ("40", "20")

    def decode_check(out: dict, first: bool) -> list[str]:
        """Decodes of the first trials of the experiment equal the full scan."""
        if not first:
            return []
        problems = []
        for n in CODEC_N:
            seed = v + n  # codec-sim seeds the experiment at n with seed + n
            res = simulate.run_reliability_experiment(
                model, policy, n, CODEC_RATES, CODEC_EPS, DECODE_CHECK_TRIALS, seed,
                keep_records=True,
            )
            cb_seeds = rng.derive_seeds(seed, 3 * DECODE_CHECK_TRIALS)[::3]
            for rec, cb_seed in zip(res.records, cb_seeds):
                cb = simulate.sample_codebook(q_u, q_v_given_u, n, *CODEC_RATES, cb_seed)
                want = scan_decode(rec.received, cb, q_uvy, CODEC_EPS)
                if rec.decoded != want:
                    problems.append(f"n={n} codebook {cb_seed}: decoder {rec.decoded} != scan {want}")
        return problems

    codec = ["codec-sim", "--channel", channel, "--policy", policy_doc,
             "--r1", str(CODEC_RATES[0]), "--r2", str(CODEC_RATES[1]), "--r", str(CODEC_RATES[2]),
             "--n", ",".join(map(str, CODEC_N)), "--trials", codec_trials,
             "--eps", str(CODEC_EPS), "--seed", str(v)]
    # the README's binning-sim rates
    binning = ["binning-sim", "--alpha", "0.0289", "--sigma", "0.05", "--ra", "0.89",
               "--rbin", "0.64", "--r", "0.2", "--n", "8,12", "--trials", binning_trials,
               "--eps", "1.25", "--seed", str(v)]
    return Workload("code-montecarlo", v, [
        Job("codec-sim", lambda: run_cli(codec), check=decode_check),
        Job("binning-sim", lambda: run_cli(binning)),
    ])


# ---------------------------------------------------------------------------
# code-exact: a few dense enumerations over all state and output sequences


def code_exact(v: int, tiny: bool) -> Workload:
    found = load_models("bsc_q010_copy_tap.json", "wiretap.json")
    model = found["bsc_q010_copy_tap.json"]
    policy = cli.load_policy_spec(fixture("uniform_v_is_x.json"), model)
    cli.load_policy_spec(fixture("x_given_s.json"), found["wiretap.json"])
    joint = models.assemble_joint(model, policy)
    q_u, q_v_given_u = code_distributions(joint)
    # criterion 9: outer rate 0.15 above I(V;Z|U), two messages at every n
    r2 = prob.mutual_information(joint, ("V",), ("Z",), ("U",)) + 0.15
    codebooks = ((6, 2),) if tiny else ((6, 4), (8, 1))

    def leakage(n: int, seed: int) -> dict:
        cb = simulate.sample_codebook(q_u, q_v_given_u, n, 0.0, r2, 1.0 / n, seed)
        channel = simulate.exact_message_channel(model, policy, cb)
        cap = simulate.leakage_capacity(channel)
        kernel = channel.kernel.reshape(cb.num_messages, -1)
        weights = np.sin(np.arange(kernel.size)).reshape(kernel.shape)
        return {
            "bits": float(cap.bits),
            "lower": float(cap.lower),
            "upper": float(cap.upper),
            "messages": int(kernel.shape[0]),
            "outputs": int(kernel.shape[1]),
            "checksum": float((kernel * weights).sum()),
            "row_sum_error": float(np.abs(kernel.sum(axis=1) - 1.0).max()),
        }

    def leakage_check(out: dict, first: bool) -> list[str]:
        problems = []
        for key, value in out.items():
            if key.endswith(".upper") and not value - out[key[:-6] + ".lower"] <= 1e-9:
                problems.append(f"{key[:-6]}: sandwich gap {value - out[key[:-6] + '.lower']!r} > 1e-9")
            if key.endswith(".row_sum_error") and not value <= 1e-9:
                problems.append(f"{key}: message-channel rows do not sum to 1 ({value!r})")
        return problems

    def run_leakage() -> dict:
        out = {}
        for n, count in codebooks:
            for k in range(count):
                seed = 7000 + 100 * v + k
                out.update(flatten(leakage(n, seed), f"n{n}.cb{seed}."))
        return out

    softcov = ["softcov-sim", "--channel", fixture("wiretap.json"), "--policy",
               fixture("x_given_s.json"), "--r1", "0.7", "--r2", "0.7",
               "--n", "6,8" if tiny else "8,10", "--trials", "1" if tiny else "2",
               "--seed", str(v)]
    jobs = [
        Job("message-channel-leakage", run_leakage, check=leakage_check),
        Job("softcov-sim", lambda: run_cli(softcov)),
    ]
    for r1, r2_cov in (("0.6", "0.6"), ("0.7", "0.7"), ("0.3", "0.4")):
        argv = ["softcov-exponent", "--channel", fixture("wiretap.json"), "--policy",
                fixture("x_given_s.json"), "--r1", r1, "--r2", r2_cov]
        jobs.append(Job(f"softcov-exponent-{r1}-{r2_cov}", lambda argv=argv: run_cli(argv)))
    return Workload("code-exact", v, jobs)


BUILDERS = {
    "rate-search": rate_search,
    "grid-oracle": grid_oracle,
    "code-montecarlo": code_montecarlo,
    "code-exact": code_exact,
}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Load the fixtures and models of a workload and list its jobs."""
    return BUILDERS[name](seed % NUM_VARIANTS, tiny)
