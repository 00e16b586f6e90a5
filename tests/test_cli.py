"""CLI plumbing: spec loading, config hashing, dispatch, and artifact determinism.

Subcommands run in-process through cli.main so exit codes, the stdout JSON
summary, and CSV bytes can all be captured and compared across reruns.
"""
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from identities import random_model, random_rln_model
import sdwtc
from sdwtc import __version__, cli, rates
from sdwtc.cli import (
    _fmt,
    _median,
    _parse_n_list,
    _round12,
    build_parser,
    load_channel_spec,
    load_policy_spec,
    main,
)
from sdwtc.models import (
    POLICY_KINDS,
    InputPolicy,
    RlnModel,
    as_input_policy,
    assemble_joint,
    build_rln_example,
    lift_side_information,
    model_to_dict,
)
from sdwtc.optimize import FUNCTIONALS, _search_space, rate_report
from sdwtc.prob import Channel, Pmf, binary_entropy, entropy, inv_binary_entropy
from sdwtc.simulate import CodeLaw, binning_otp_protocol, index_count

RNG_SEED = 20240823


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def wiretap_doc() -> dict:
    """Binary wiretap doc: Y = BSC(q_s)(X) with q_0=0.1, q_1=0.3; Z = BSC(0.4)(X)."""
    k = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for s, q in enumerate((0.1, 0.3)):
            py = np.array([1.0 - q, q]) if x == 0 else np.array([q, 1.0 - q])
            pz = np.array([0.6, 0.4]) if x == 0 else np.array([0.4, 0.6])
            k[x, s] = py[:, None] * pz[None, :]
    return {
        "kind": "generic",
        "alphabets": {"S": [0, 1], "X": [0, 1], "Y": [0, 1], "Z": [0, 1]},
        "state_pmf": [0.6, 0.4],
        "kernel": k.tolist(),
    }


def const_u_policy_doc() -> dict:
    """U singleton, V uniform binary, X = V, all independent of the state."""
    k = np.zeros((2, 1, 2, 2))
    for v in range(2):
        k[:, 0, v, v] = 0.5
    return {"kind": "gp", "u": [0], "v": [0, 1], "kernel": k.tolist()}


def x_given_s_doc(q: float = 0.3) -> dict:
    return {"kind": "x_given_s", "kernel": [[1.0 - q, q], [q, 1.0 - q]]}


# ---------------------------------------------------------------------------
# config hashing


def test_config_hash_follows_the_options_read(capsys):
    def digest(*flags):
        assert main(["example", "--restarts", "1", "--iters", "5", *flags]) == 0
        return json.loads(capsys.readouterr().out)["config_hash"]

    seven = digest("--seed", "7")
    assert len(seven) == 16
    assert set(seven) <= set("0123456789abcdef")
    assert digest("--seed", "7", "--alpha", "0.25") == seven  # a default spelled out
    assert digest("--seed", "8") != seven


# ---------------------------------------------------------------------------
# channel spec loading


def test_load_rln_example_spec(tmp_path):
    path = write_json(tmp_path / "ch.json", {"kind": "rln_example", "alpha": 0.25, "sigma": 0.5})
    model = load_channel_spec(path)
    assert isinstance(model, RlnModel)
    assert abs(entropy(model.state_pmf) - 0.188722) < 1e-6


def test_malformed_row_is_a_hard_error(tmp_path):
    doc = wiretap_doc()
    doc["kernel"][1][0] = [[0.4, 0.2], [0.2, 0.1]]  # sums to 0.9
    path = write_json(tmp_path / "bad.json", doc)
    with pytest.raises(ValueError, match=r"row \(1, 0\)"):
        load_channel_spec(path)


def test_parse_error_carries_line_context(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "generic",\n  "alphabets": ???\n}')
    with pytest.raises(ValueError, match="parse error") as err:
        load_channel_spec(str(path))
    assert "line 2" in str(err.value)
    assert "broken.json" in str(err.value)


def test_unknown_kind_is_named_in_the_error(tmp_path):
    path = write_json(tmp_path / "odd.json", {"kind": "mystery"})
    with pytest.raises(ValueError, match="mystery"):
        load_channel_spec(path)


def test_generic_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(RNG_SEED)
    model = random_model(rng, ns=3, nx=2, ny=2, nz=3)
    first = write_json(tmp_path / "a.json", model_to_dict(model))
    loaded = load_channel_spec(first)
    second = write_json(tmp_path / "b.json", model_to_dict(loaded))
    again = load_channel_spec(second)
    assert np.array_equal(loaded.channel.kernel, model.channel.kernel)
    assert np.array_equal(again.channel.kernel, model.channel.kernel)
    assert np.array_equal(again.state_pmf.probs, model.state_pmf.probs)
    assert again.s_symbols == model.s_symbols
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_rln_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(RNG_SEED + 1)
    model = random_rln_model(rng)
    path = write_json(tmp_path / "rln.json", model_to_dict(model))
    loaded = load_channel_spec(path)
    assert isinstance(loaded, RlnModel)
    assert np.array_equal(loaded.state_channel.kernel, model.state_channel.kernel)
    assert np.array_equal(loaded.main_channel.kernel, model.main_channel.kernel)
    assert np.array_equal(loaded.state_pmf.probs, model.state_pmf.probs)


# ---------------------------------------------------------------------------
# policy spec loading


def test_policy_kinds_load_into_the_right_shapes(tmp_path):
    model = load_channel_spec(write_json(tmp_path / "ch.json", wiretap_doc()))
    gp = load_policy_spec(write_json(tmp_path / "gp.json", const_u_policy_doc()), model)
    assert gp.kernel.kernel.shape == (2, 1, 2, 2)
    direct = load_policy_spec(write_json(tmp_path / "xs.json", x_given_s_doc()), model)
    assert isinstance(direct, Channel)
    assert direct.in_names == ("S",) and direct.out_names == ("X",)
    ceg_doc = {
        "kind": "ceg",
        "t": [0, 1],
        "p_t": [0.5, 0.5],
        "kernel": [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]]],
    }
    p_t, kernel = load_policy_spec(write_json(tmp_path / "ceg.json", ceg_doc), model)
    assert isinstance(p_t, Pmf)
    assert kernel.in_names == ("T", "S") and kernel.out_names == ("X",)
    with pytest.raises(ValueError, match="unknown policy kind"):
        load_policy_spec(write_json(tmp_path / "zz.json", {"kind": "zz"}), model)


@pytest.mark.parametrize(
    "kind, functional, card_u, card_v",
    [("gp", "RA", 2, 3), ("x_given_s", "LN_encdec", 1, 1), ("ceg", "CEG", 3, 1), ("rln", "RLN", 2, 3)],
)
def test_loader_rebuilds_what_the_search_builds(tmp_path, kind, functional, card_u, card_v):
    # a policy from the search's builder, written out under the table's field
    # names and read back, evaluates to the same report
    rng = np.random.default_rng(RNG_SEED + 2)
    model = random_rln_model(rng) if kind == "rln" else random_model(rng, ns=3, nx=2)
    entry = FUNCTIONALS[functional]
    assert entry.policy_kinds[0] == kind
    shapes, build = _search_space(entry, model, card_u, card_v)
    policy = build([rng.dirichlet(np.ones(d), size=rows) for rows, d in shapes])

    spec = POLICY_KINDS[kind]
    parts = (policy.kernel,) if isinstance(policy, InputPolicy) else policy
    parts = parts if isinstance(parts, tuple) else (parts,)
    doc = {"kind": kind}
    doc.update((field, list(range(size))) for field, size
               in zip(spec.aux, entry.aux_sizes(card_u, card_v)))
    doc.update((field, (p.kernel if isinstance(p, Channel) else p.probs).tolist())
               for (field, _, _), p in zip(spec.parts, parts))
    loaded = load_policy_spec(write_json(tmp_path / "pol.json", doc), model)
    assert rate_report(functional, model, loaded) == rate_report(functional, model, policy)


# ---------------------------------------------------------------------------
# rate subcommand


def test_rate_with_constant_u_matches_chv(tmp_path, capsys):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", const_u_policy_doc())
    model = load_channel_spec(ch)
    expected = rates.report(rates.CHV, assemble_joint(model, load_policy_spec(pol, model))).value
    status = main(["rate", "--channel", ch, "--policy", pol, "--functional", "RA", "--seed", "5"])
    summary = json.loads(capsys.readouterr().out)
    assert status == 0
    assert abs(summary["results"]["value"] - expected) < 1e-11
    assert summary["seed"] == 5
    assert summary["version"] == __version__
    assert len(summary["config_hash"]) == 16


def test_rate_lifts_x_given_s_policy(tmp_path, capsys):
    # a bare (S,) -> (X,) kernel gets the degenerate-U, V=X lift, same as
    # the simulation subcommands
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    model = load_channel_spec(ch)
    lifted = as_input_policy(model, load_policy_spec(pol, model))
    expected = rates.report(rates.CHV, assemble_joint(model, lifted)).value
    status = main(["rate", "--channel", ch, "--policy", pol, "--functional", "CHV"])
    summary = json.loads(capsys.readouterr().out)
    assert status == 0
    assert abs(summary["results"]["value"] - expected) < 1e-11


def test_rln_policy_kind_feeds_the_rln_functional(tmp_path, capsys):
    ch = write_json(tmp_path / "ch.json", {"kind": "rln_example", "alpha": 0.25, "sigma": 0.5})
    pol = write_json(
        tmp_path / "pol.json",
        {
            "kind": "rln",
            "a": [0, 1],
            "b": [0],
            "p_x": [0.5, 0.5],
            "a_kernel": [[1.0, 0.0], [0.0, 1.0]],
            "b_kernel": [[1.0], [1.0]],
        },
    )
    status = main(["rate", "--channel", ch, "--policy", pol, "--functional", "RLN"])
    summary = json.loads(capsys.readouterr().out)
    assert status == 0
    capacity = 0.5 * (1.0 - binary_entropy(0.25))
    assert abs(summary["results"]["value"] - capacity) < 1e-9


def test_csv_columns_and_formatting(tmp_path, capsys):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", const_u_policy_doc())
    out_csv = tmp_path / "rate.csv"
    status = main(
        ["rate", "--channel", ch, "--policy", pol, "--functional", "CHV", "--out", str(out_csv)]
    )
    capsys.readouterr()
    assert status == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "metric,n,seed,value,lower_ci,upper_ci"
    first = lines[1].split(",")
    assert first[0] == "value"
    model = load_channel_spec(ch)
    expected = rates.report(rates.CHV, assemble_joint(model, load_policy_spec(pol, model))).value
    assert first[3] == f"{expected:.12g}"
    assert all(line.count(",") == 5 for line in lines)


# ---------------------------------------------------------------------------
# optimize / example subcommands


def test_optimize_subcommand_traces_restarts(tmp_path, capsys):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    out_csv = tmp_path / "opt.csv"
    argv = [
        "optimize", "--channel", ch, "--functional", "CHV", "--card-v", "2",
        "--restarts", "3", "--iters", "40", "--seed", "9", "--out", str(out_csv),
    ]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    res = summary["results"]
    assert res["value"] == pytest.approx(res["trace_max"], rel=1e-9)
    rows = out_csv.read_text().splitlines()
    assert len(rows) == 1 + 3
    assert all(row.startswith("restart_best,") for row in rows[1:])


def test_example_reproduces_the_closed_form(capsys):
    status = main(
        ["example", "--alpha", "0.25", "--sigma", "0.5",
         "--restarts", "2", "--iters", "60", "--seed", "1"]
    )
    summary = json.loads(capsys.readouterr().out)
    assert status == 0
    res = summary["results"]
    assert abs(res["capacity_closed_form"] - 0.094361) < 1e-6
    assert res["closed_form_gap"] < 1e-9
    assert "A = S" in res["achieving_policy"]
    assert res["optimized_value"] <= res["capacity_closed_form"] + 1e-9


# ---------------------------------------------------------------------------
# covering / simulation subcommands


def test_softcov_exponent_reports_positive_gamma(tmp_path, capsys):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    status = main(
        ["softcov-exponent", "--channel", ch, "--policy", pol, "--r1", "0.6", "--r2", "0.6"]
    )
    summary = json.loads(capsys.readouterr().out)
    assert status == 0
    res = summary["results"]
    assert res["gamma"] > 0.0
    assert res["degenerate"] is False
    assert res["r1"] > res["i_uw"]
    assert res["r1"] + res["r2"] > res["i_uvw"]


def test_softcov_sim_emits_per_seed_divergences(tmp_path, capsys):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    out_csv = tmp_path / "cov.csv"
    argv = [
        "softcov-sim", "--channel", ch, "--policy", pol, "--r1", "0.7", "--r2", "0.7",
        "--n", "3", "--trials", "5", "--seed", "2", "--out", str(out_csv),
    ]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    rows = out_csv.read_text().splitlines()
    assert len(rows) == 1 + 5
    values = [float(row.split(",")[3]) for row in rows[1:]]
    assert all(v >= -1e-12 for v in values)
    median = summary["results"]["median_divergence"]["3"]
    assert median == pytest.approx(float(np.median(values)), rel=1e-9)


def test_softcov_sim_holds_one_codebook_at_a_time(tmp_path, capsys):
    # a codebook at n = 10 holds (128, 128, 1, 10) int64 outer words, 1.25 MiB;
    # a second trial must not keep the first one's while it draws its own
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    peaks = []
    for trials in (1, 1, 2):  # the first run warms the caches
        tracemalloc.start()
        try:
            assert main(["softcov-sim", "--channel", ch, "--policy", pol, "--r1", "0.7", "--r2", "0.7",
                         "--n", "10", "--trials", str(trials), "--seed", "1"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        capsys.readouterr()
    assert peaks[2] - peaks[1] < 128 * 128 * 10 * 8 // 10


def test_codec_sim_reruns_are_byte_identical(tmp_path, capsys):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    out_csv = tmp_path / "sim.csv"
    argv = [
        "codec-sim", "--channel", ch, "--policy", pol, "--r1", "0.25", "--r2", "0.25",
        "--n", "4,6", "--trials", "8", "--eps", "1.0", "--seed", "11", "--out", str(out_csv),
    ]
    assert main(argv) == 0
    first_out = capsys.readouterr().out
    first_csv = out_csv.read_bytes()
    assert main(argv) == 0
    assert capsys.readouterr().out == first_out
    assert out_csv.read_bytes() == first_csv
    summary = json.loads(first_out)
    assert set(summary["results"]) == {"4", "6"}
    for block in summary["results"].values():
        assert 0.0 <= block["avg_error_rate"] <= 1.0


def test_binning_sim_summary_counts_indices(capsys):
    alpha_star = inv_binary_entropy(1.0 - binary_entropy(0.25))
    hs = binary_entropy(0.25)
    ra = 1.1 * hs
    rbin = ra - 0.25
    argv = [
        "binning-sim", "--alpha", str(alpha_star), "--sigma", "0.05",
        "--ra", str(ra), "--rbin", str(rbin), "--r", "0.2",
        "--n", "6", "--trials", "5", "--eps", "1.25", "--seed", "3",
    ]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    block = summary["results"]["6"]
    assert block["num_keys"] == index_count(6, ra - rbin)
    assert block["num_bins"] == index_count(6, rbin)
    assert block["num_messages"] == index_count(6, 0.2)
    assert 0.0 <= block["error_rate"] <= 1.0
    res = binning_otp_protocol(build_rln_example(alpha_star, 0.05), 6, ra, rbin, 0.2, 5, 3 + 6, 1.25)
    assert (block["x_decode_failures"], block["key_decode_failures"]) == (
        res.x_decode_failures, res.key_decode_failures)


@pytest.mark.parametrize("example", [["--alpha", "0.4"], ["--sigma=0.3"], ["--sigma", "0.5", "--alpha", "0.25"]])
def test_binning_sim_refuses_example_options_beside_a_channel(tmp_path, capsys, example):
    # --alpha and --sigma build the example channel; beside --channel they were ignored
    ch = write_json(tmp_path / "ch.json", {"kind": "rln_example", "alpha": 0.25, "sigma": 0.5})
    argv = ["binning-sim", "--ra", "0.89", "--rbin", "0.64", "--r", "0.2", "--n", "6", "--trials", "4"]
    assert main(argv + ["--channel", ch]) == 0
    capsys.readouterr()
    status = main(argv + ["--channel", ch] + example)
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["command"] == "binning-sim"
    flag = min(tok.partition("=")[0] for tok in example if tok.startswith("--"))  # --alpha first
    assert record["error"] == {"type": "UsageError",
                               "message": f"argument {flag}: not allowed with argument --channel"}
    # without --channel they still build the example channel, and stdout is unchanged
    assert main(argv + example) == 0
    with_options = capsys.readouterr().out
    assert json.loads(with_options)["results"]["6"]["num_keys"] == index_count(6, 0.89 - 0.64)
    if example == ["--sigma", "0.5", "--alpha", "0.25"]:  # the defaults, given explicitly
        assert main(argv) == 0
        assert capsys.readouterr().out == with_options


# ---------------------------------------------------------------------------
# error records


def test_missing_flags_produce_an_error_record(tmp_path, capsys):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    status = main(["softcov-exponent", "--channel", ch, "--policy", pol])
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["error"] == {"type": "UsageError",
                               "message": "the following arguments are required: --r1, --r2"}
    assert record["version"] == __version__
    assert "config_hash" not in record
    assert "results" not in record


# a command line per subcommand that runs; {ch}, {gp} and {xs} name documents
RUNNABLE = {
    "rate": ["--channel", "{ch}", "--policy", "{gp}", "--functional", "RA"],
    "optimize": ["--channel", "{ch}", "--functional", "CHV", "--restarts", "1", "--iters", "5"],
    "example": ["--restarts", "1", "--iters", "5"],
    "softcov-exponent": ["--channel", "{ch}", "--policy", "{xs}", "--r1", "0.6", "--r2", "0.6"],
    "softcov-sim": ["--channel", "{ch}", "--policy", "{xs}", "--r1", "0.7", "--r2", "0.7",
                    "--n", "3", "--trials", "1"],
    "codec-sim": ["--channel", "{ch}", "--policy", "{xs}", "--r1", "0.25", "--r2", "0.25",
                  "--n", "4", "--trials", "2"],
    "binning-sim": ["--ra", "0.89", "--rbin", "0.64", "--n", "6", "--trials", "2"],
}


def runnable(tmp_path, subcommand: str) -> list[str]:
    docs = {"ch": write_json(tmp_path / "ch.json", wiretap_doc()),
            "gp": write_json(tmp_path / "gp.json", const_u_policy_doc()),
            "xs": write_json(tmp_path / "xs.json", x_given_s_doc())}
    return [subcommand, *(flag.format(**docs) for flag in RUNNABLE[subcommand])]


@pytest.mark.parametrize("subcommand, unread", [
    ("rate", ["--trials", "7", "--alpha", "3"]),
    ("optimize", ["--policy", "pol.json"]),
    ("example", ["--r", "5"]),  # not taken as an abbreviation of --restarts
    ("softcov-exponent", ["--trials", "3"]),
    ("softcov-sim", ["--eps", "1.0"]),
    ("codec-sim", ["--w-axis", "Y"]),
    ("binning-sim", ["--r1", "0.5"]),
])
def test_each_subcommand_refuses_an_option_it_does_not_read(tmp_path, capsys, subcommand, unread):
    argv = runnable(tmp_path, subcommand)
    assert main(argv) == 0
    capsys.readouterr()
    status = main(argv + unread)
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["command"] == subcommand
    assert record["error"] == {"type": "UsageError",
                               "message": f"unrecognized arguments: {' '.join(unread)}"}


@pytest.mark.parametrize("subcommand, dropped", [
    ("rate", "--channel"),
    ("optimize", "--channel"),
    ("softcov-exponent", "--policy"),
    ("softcov-sim", "--n"),
    ("codec-sim", "--r2"),
    ("binning-sim", "--ra"),
])
def test_a_missing_required_option_is_a_usage_error(tmp_path, capsys, subcommand, dropped):
    argv = runnable(tmp_path, subcommand)
    at = argv.index(dropped)
    status = main(argv[:at] + argv[at + 2:])
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["command"] == subcommand
    assert record["error"] == {"type": "UsageError",
                               "message": f"the following arguments are required: {dropped}"}


@pytest.mark.parametrize("argv, command, message", [
    (["softcov-exponent", "--r1", "0.6", "--r2", "0.6", "--w-axis", "Q"], "softcov-exponent",
     "argument --w-axis: invalid choice: 'Q'"),
    (["codec-sim", "--n", "3,x"], "codec-sim", "argument --n: --n wants comma-separated integers"),
    (["codec-sim", "--n", ""], "codec-sim", "argument --n: --n wants comma-separated integers, got ''"),
    (["example", "--trials", "7", "--no-such-option"], "example",
     "unrecognized arguments: --trials 7 --no-such-option"),
    (["rate", "--policy", "pol.json", "--functional", "RA"], "rate",
     "the following arguments are required: --channel"),
    (["softcov-exponent", "--channel", "ch.json", "--r1", "0.6", "--r2", "0.6"], "softcov-exponent",
     "the following arguments are required: --policy"),
    (["no-such-command"], None, "argument subcommand: invalid choice: 'no-such-command'"),
    ([], None, "the following arguments are required: subcommand"),
], ids=["bad-choice", "bad-n-list", "empty-n-list", "unknown-option", "no-channel", "no-policy",
        "unknown-command", "no-command"])
def test_parser_errors_are_error_records(capsys, argv, command, message):
    status = main(argv)
    out, err = capsys.readouterr()
    record = json.loads(out)
    assert status == 1
    assert err == ""
    assert record["command"] == command
    assert record["version"] == __version__
    assert record["error"]["type"] == "UsageError"
    assert record["error"]["message"].startswith(message)
    assert "results" not in record


@pytest.mark.parametrize("argv", [["--help"], ["codec-sim", "--help"]])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sdwtc")


@pytest.mark.parametrize("flags", [
    ["--eps", "-0.5"], ["--n", "0"], ["--n", "-3"], ["--eps", "nan"], ["--eps", "inf"],
])
def test_binning_sim_refuses_bad_blocklength_and_eps(capsys, flags):
    argv = ["binning-sim", "--alpha", "0.0289", "--sigma", "0.05", "--ra", "0.89",
            "--rbin", "0.64", "--r", "0.2", "--n", "6", "--trials", "3", "--eps", "1.25"]
    status = main(argv + flags)
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["error"]["type"] == "ValueError"
    assert record["error"]["message"].startswith("need blocklength n >= 1 and eps >= 0")
    assert "results" not in record


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_codec_sim_refuses_non_finite_eps(tmp_path, capsys, eps):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    status = main(["codec-sim", "--channel", ch, "--policy", pol, "--r1", "0.25", "--r2", "0.25",
                   "--n", "4", "--trials", "2", "--eps", eps])
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["error"]["type"] == "ValueError"
    assert record["error"]["message"].startswith("need blocklength n >= 1 and eps >= 0 finite")
    assert "results" not in record


@pytest.mark.parametrize("flags", [
    ["--r1", "nan", "--r2", "0.6"],
    ["--r1", "0.6", "--r2", "nan"],
    ["--r1", "inf", "--r2", "0.6"],
])
def test_softcov_exponent_refuses_non_finite_rates(tmp_path, capsys, flags):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    status = main(["softcov-exponent", "--channel", ch, "--policy", pol, *flags])
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["error"]["type"] == "ValueError"
    assert "must be finite" in record["error"]["message"]
    assert "results" not in record


@pytest.mark.parametrize("subcommand, flags", [
    ("softcov-sim", ["--trials", "0"]),
    ("softcov-sim", ["--trials", "-2"]),
    ("codec-sim", ["--leakage-trials", "-1"]),
])
def test_bad_trial_counts_are_error_records(tmp_path, capsys, subcommand, flags):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    argv = [subcommand, "--channel", ch, "--policy", pol, "--r1", "0.7", "--r2", "0.7",
            "--n", "3", "--trials", "4", "--seed", "2"]
    status = main(argv + flags)
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert status == 1
    assert record["error"]["type"] == "ValueError"
    assert f"trials must be positive, got {flags[1]}" in record["error"]["message"]
    assert "results" not in record
    assert captured.err == ""


@pytest.mark.parametrize("subcommand, flags", [
    ("softcov-sim", ["--trials", str(10 ** 12)]),
    ("codec-sim", ["--trials", str(10 ** 12)]),
    ("codec-sim", ["--leakage-trials", str(10 ** 12)]),
    ("binning-sim", ["--trials", str(10 ** 12)]),
])
def test_trial_counts_above_the_bound_are_error_records(tmp_path, capsys, subcommand, flags):
    # a count no run could finish is refused where it enters, before any seed is derived
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    docs = (["--ra", "0.5", "--rbin", "0.25"] if subcommand == "binning-sim"
            else ["--channel", ch, "--policy", pol, "--r1", "0.25", "--r2", "0.25"])
    tracemalloc.start()
    try:
        status = main([subcommand, *docs, "--n", "3", "--seed", "2", *flags])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["error"]["type"] == "ValueError"
    assert f"trials must be at most 10000000, got {10 ** 12}" in record["error"]["message"]
    assert peak < 2 ** 20


def test_softcov_sim_runs_at_n12(tmp_path, capsys):
    # 113 569 codewords: counting each gave 4.65e8 and was refused; the
    # distinct halves are admitted
    fixtures = Path(__file__).resolve().parents[1] / "bench" / "fixtures"
    out_csv = tmp_path / "cov.csv"
    assert main(["softcov-sim", "--channel", str(fixtures / "wiretap.json"), "--policy",
                 str(fixtures / "x_given_s.json"), "--r1", "0.7", "--r2", "0.7", "--n", "12",
                 "--trials", "2", "--seed", "1", "--out", str(out_csv)]) == 0
    median = json.loads(capsys.readouterr().out)["results"]["median_divergence"]["12"]
    values = [float(row.split(",")[3]) for row in out_csv.read_text().splitlines()[1:]]
    assert len(values) == 2 and all(0.0 < v < 1e-3 for v in values)
    assert median == pytest.approx(sum(values) / 2, rel=1e-9)


@pytest.mark.parametrize("subcommand, flags, message", [
    ("softcov-sim", ["--r1", "1100", "--r2", "0.7", "--n", "1"], "n*rate = 1100.0"),
    ("softcov-sim", ["--r1", "0.7", "--r2", "inf", "--n", "3"],
     "rates must be finite and nonnegative, got inf"),
    ("codec-sim", ["--r1", "0.25", "--r2", "0.25", "--r", "nan", "--n", "4"],
     "rates must be finite and nonnegative, got nan"),
    ("codec-sim", ["--r1", "9", "--r2", "0.25", "--n", "7"], "n*rate = 63.0"),
    ("binning-sim", ["--ra", "nan", "--rbin", "0.2", "--n", "6"],
     "rates must be finite and nonnegative, got nan"),
    ("binning-sim", ["--ra", "70.25", "--rbin", "0.25", "--n", "1"], "n*rate = 70.0"),
])
def test_uncountable_rates_are_error_records(tmp_path, capsys, subcommand, flags, message):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    docs = [] if subcommand == "binning-sim" else ["--channel", ch, "--policy", pol]
    status = main([subcommand, *docs, *flags, "--trials", "2", "--seed", "1"])
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert status == 1
    assert record["error"]["type"] == "ValueError"
    assert message in record["error"]["message"]
    assert captured.err == ""


def test_optimize_refuses_restarts_above_the_bound_before_allocating(tmp_path, capsys):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    tracemalloc.start()
    try:
        status = main(["optimize", "--channel", ch, "--functional", "RA", "--restarts", str(10 ** 8)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["error"]["type"] == "ValueError"
    assert "100000000 restarts" in record["error"]["message"]
    assert peak < 2 ** 20


def test_optimize_refuses_a_search_that_cannot_finish(tmp_path, capsys):
    # refused by the budget's candidate bound before any seed or generator exists
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    status = main(["optimize", "--channel", ch, "--functional", "RA", "--restarts", "1",
                   "--iters", str(10 ** 12)])
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["error"]["type"] == "ValueError"
    assert "1 restarts x 1000000000000 iterations" in record["error"]["message"]
    assert "refusing more than 10000000 candidates" in record["error"]["message"]


PINNED_LEAKAGE = {"4": 0.0164762588102, "6": 0.0231424938517}


def test_codec_sim_leakage_is_pinned(tmp_path, capsys):
    # the medians printed when each leakage codebook rebuilt the code law
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    argv = ["codec-sim", "--channel", ch, "--policy", pol, "--r1", "0.25", "--r2", "0.25",
            "--r", "0.25", "--n", "4,6", "--trials", "4", "--eps", "1.0", "--seed", "11",
            "--leakage-trials", "2"]
    assert main(argv) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert {n: block["median_leakage_bits"] for n, block in results.items()} == PINNED_LEAKAGE


def count_code_laws(monkeypatch) -> list:
    """The joints of the CodeLaw.of calls that cli makes from here on."""
    joints = []

    def of(joint):
        joints.append(joint)
        return CodeLaw.of(joint)

    monkeypatch.setattr(cli, "CodeLaw", SimpleNamespace(of=of))
    return joints


@pytest.mark.parametrize("leakage_trials, laws", [("0", 0), ("2", 1)])
def test_codec_sim_builds_a_code_law_only_for_its_leakage(tmp_path, capsys, monkeypatch, leakage_trials, laws):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    joints = count_code_laws(monkeypatch)
    assert main(["codec-sim", "--channel", ch, "--policy", pol, "--r1", "0.25", "--r2", "0.25", "--r", "0.25",
                 "--n", "4,6", "--trials", "4", "--eps", "1.0", "--leakage-trials", leakage_trials]) == 0
    capsys.readouterr()
    assert len(joints) == laws


def test_softcov_sim_builds_one_code_law_per_run(tmp_path, capsys, monkeypatch):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    joints = count_code_laws(monkeypatch)
    for n_list in ("3", "3,4,5"):
        assert main(["softcov-sim", "--channel", ch, "--policy", pol, "--r1", "0.7", "--r2", "0.7",
                     "--n", n_list, "--trials", "2"]) == 0
    capsys.readouterr()
    assert len(joints) == 2


@pytest.mark.parametrize("subcommand, flags", [
    ("softcov-exponent", ["--r1", "0.6", "--r2", "0.6"]),
    ("softcov-sim", ["--r1", "0.7", "--r2", "0.7", "--n", "4", "--trials", "1"]),
    ("codec-sim", ["--r1", "0.2", "--r2", "0.2", "--n", "4", "--trials", "4", "--leakage-trials", "1"]),
])
def test_code_subcommands_refuse_an_rln_channel_and_take_it_lifted(tmp_path, capsys, subcommand, flags):
    rln = build_rln_example(0.1, 0.5)
    ch = write_json(tmp_path / "rln.json", model_to_dict(rln))
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    assert main([subcommand, "--channel", ch, "--policy", pol, *flags]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "TypeError",
        "message": f"{subcommand} needs an SdWtcModel; lift_side_information turns an rln channel into one",
    }
    lifted = write_json(tmp_path / "lifted.json", model_to_dict(lift_side_information(rln)))
    assert main([subcommand, "--channel", lifted, "--policy", pol, *flags]) == 0
    capsys.readouterr()


def test_successive_mains_print_what_fresh_processes_print(tmp_path, capsys):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", const_u_policy_doc())
    out_csv = tmp_path / "rate.csv"
    runs = [["rate", "--channel", ch, "--policy", pol, "--functional", "RA", "--out", str(out_csv)],
            ["rate", "--channel", ch, "--policy", pol, "--functional", "CHV"]]
    env = dict(os.environ, PYTHONPATH=str(Path(sdwtc.__file__).parents[1]))
    fresh = [subprocess.run([sys.executable, "-m", "sdwtc.cli", *argv], env=env, check=True,
                            capture_output=True, text=True).stdout for argv in runs]
    out_csv.unlink()
    for argv, want in zip(runs, fresh):
        assert main(argv) == 0
        assert capsys.readouterr().out == want
    assert json.loads(fresh[1])["csv"] is None
    assert build_parser() is build_parser()


def test_non_finite_literals_are_refused(tmp_path):
    for value, literal in ((math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")):
        doc = wiretap_doc()
        doc["state_pmf"] = [value, 0.4]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # json writes the bare literal
        with pytest.raises(ValueError, match=f"non-finite number {literal} in "):
            load_channel_spec(str(path))


@pytest.mark.parametrize("subcommand", ["rate", "optimize"])
def test_nan_state_pmf_is_an_error_record(tmp_path, capsys, subcommand):
    doc = wiretap_doc()
    doc["state_pmf"] = [math.nan, math.nan]
    ch = tmp_path / "nan.json"
    ch.write_text(json.dumps(doc))
    pol = write_json(tmp_path / "pol.json", const_u_policy_doc())
    docs = ["--policy", pol] if subcommand == "rate" else []
    status = main([subcommand, "--channel", str(ch), *docs, "--functional", "RA"])
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["error"]["type"] == "ValueError"
    assert "non-finite" in record["error"]["message"]
    assert "results" not in record


def test_functional_model_mismatch_is_an_error_record(tmp_path, capsys):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    status = main(["rate", "--channel", ch, "--policy", pol, "--functional", "RLN"])
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["error"] == {
        "type": "TypeError", "message": "the RLN functional needs an RlnModel"
    }


@pytest.mark.parametrize(
    "functional, doc, message",
    [
        ("CEG", const_u_policy_doc(), "functional CEG takes a ceg policy, got gp"),
        ("RA", {"kind": "ceg", "t": [0], "p_t": [1.0], "kernel": [[[0.5, 0.5], [0.5, 0.5]]]},
         "functional RA takes a gp or x_given_s policy, got ceg"),
    ],
)
def test_policy_kind_mismatch_is_an_error_record(tmp_path, capsys, functional, doc, message):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", doc)
    status = main(["rate", "--channel", ch, "--policy", pol, "--functional", functional])
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["error"] == {"type": "ValueError", "message": message}
    assert "results" not in record


def test_rate_without_functional_lists_the_names(tmp_path, capsys):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    status = main(["rate", "--channel", ch, "--policy", pol])
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["error"]["type"] == "ValueError"
    message = record["error"]["message"]
    assert message.startswith("unknown functional None")
    assert all(f"'{name}'" in message for name in ("RA", "RA_alt", "CHV", "CEG", "RLN",
                                                   "semidet", "LN_encdec"))


@pytest.mark.parametrize(
    "channel, policy, message",
    [
        (wiretap_doc(), {"kind": "gp", "v": [0], "kernel": [[[[1.0, 0.0]]]] * 2},
         "pol.json has no field 'u'"),
        ({k: v for k, v in wiretap_doc().items() if k != "alphabets"}, x_given_s_doc(),
         "ch.json has no field 'alphabets'"),
        ({**wiretap_doc(), "alphabets": {"S": [0, 1], "X": [0, 1], "Y": [0, 1]}}, x_given_s_doc(),
         "ch.json has no field 'Z'"),
        ([wiretap_doc()], x_given_s_doc(), "ch.json must hold a JSON object, got list"),
        (wiretap_doc(), [x_given_s_doc()], "pol.json must hold a JSON object, got list"),
        ({"kind": "semideterministic", "alphabets": {"S": [0, 1], "X": [0, 1], "Z": [0]},
          "state_pmf": [0.5, 0.5], "g": [[0, 1]], "z_kernel": [[[1.0], [1.0]], [[1.0], [1.0]]]},
         x_given_s_doc(), "ch.json field 'g' must hold 2 rows (one per X symbol) "
         "of 2 entries (one per S symbol)"),
        (wiretap_doc(), {**const_u_policy_doc(), "u": 3},
         "pol.json field 'u' must list the symbols, got int"),
        ({**wiretap_doc(), "alphabets": {"S": 2, "X": [0, 1], "Y": [0, 1], "Z": [0, 1]}},
         x_given_s_doc(), "ch.json field 'S' must list the symbols, got int"),
        ({"kind": "rln_example", "alpha": [0.25], "sigma": 0.5}, x_given_s_doc(),
         "ch.json field 'alpha' must hold a number"),
        ({**wiretap_doc(), "state_pmf": {"a": 1}}, x_given_s_doc(),
         "ch.json field 'state_pmf' must hold a rectangular array of numbers"),
        (wiretap_doc(), {"kind": "x_given_s", "kernel": [["a", "b"], [1, 0]]},
         "pol.json field 'kernel' must hold a rectangular array of numbers"),
        (wiretap_doc(), {"kind": "x_given_s", "kernel": [[0.5, 0.5], [1.0]]},
         "pol.json field 'kernel' must hold a rectangular array of numbers"),
        ({**wiretap_doc(), "state_pmf": None}, x_given_s_doc(),
         "ch.json field 'state_pmf' must hold a rectangular array of numbers"),
        (wiretap_doc(), {"kind": "x_given_s", "kernel": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]},
         "pol.json field 'kernel': kernel shape (2, 3) does not match axes (2, 2)"),
        (wiretap_doc(), {"kind": "x_given_s", "kernel": [[0.6, 0.3], [0.5, 0.5]]},
         "pol.json field 'kernel': Channel row (0,) sums to 0.8999999999999999, expected 1"),
        (wiretap_doc(), {**x_given_s_doc(), "kind": ["x_given_s"]},
         "unknown policy kind ['x_given_s']; expected one of ('gp', 'x_given_s', 'ceg', 'rln')"),
        (wiretap_doc(), {**x_given_s_doc(), "kind": {"kind": "gp"}},
         "unknown policy kind {'kind': 'gp'}; expected one of ('gp', 'x_given_s', 'ceg', 'rln')"),
        ({**wiretap_doc(), "alphabets": [[0, 1], [0, 1], [0, 1], [0, 1]]}, x_given_s_doc(),
         "ch.json field 'alphabets' must be an object, got list"),
        ({"kind": "semideterministic", "alphabets": [[0, 1], [0, 1], [0]],
          "state_pmf": [0.5, 0.5], "g": [[0, 1], [1, 0]], "z_kernel": [[[1.0], [1.0]], [[1.0], [1.0]]]},
         x_given_s_doc(), "ch.json field 'alphabets' must be an object, got list"),
        ({**wiretap_doc(), "alphabets": {"S": [[0, [1]], 2], "X": [0, 1], "Y": [0, 1], "Z": [0, 1]}},
         x_given_s_doc(), "ch.json field 'S' must list numbers, strings or flat lists of them"),
        ({**wiretap_doc(), "alphabets": {"S": [{"a": 1}, 2], "X": [0, 1], "Y": [0, 1], "Z": [0, 1]}},
         x_given_s_doc(), "ch.json field 'S' must list numbers, strings or flat lists of them"),
        ({"kind": "semideterministic", "alphabets": {"S": [0, 1], "X": [0, 1], "Z": [0]},
          "state_pmf": [0.5, 0.5], "g": [[{"a": 1}, 1], [[0, [1]], 0]],
          "z_kernel": [[[1.0], [1.0]], [[1.0], [1.0]]]},
         x_given_s_doc(), "ch.json field 'g' must list numbers, strings or flat lists of them"),
        ({**wiretap_doc(), "alphabets": {"S": [0, 1], "X": [0, 1], "Y": [0, 0], "Z": [0, 1]}},
         x_given_s_doc(), "ch.json field 'kernel': axis Y alphabet labels must be unique, got (0, 0)"),
        (wiretap_doc(), {**const_u_policy_doc(), "u": [0, 0],
                         "kernel": [[[[0.25, 0.0], [0.0, 0.25]]] * 2] * 2},
         "pol.json field 'kernel': axis U alphabet labels must be unique, got (0, 0)"),
        ({"kind": "rln", "alphabets": {"S": [0, 1], "S1": [0, 0, "?"], "S2": [0], "X": [0, 1],
                                        "Y": [0, 1], "Z": [0, 1]},
          "state_pmf": [0.5, 0.5], "state_kernel": [[[0.5], [0.0], [0.5]], [[0.0], [0.5], [0.5]]],
          "main_kernel": [[[0.75, 0.0], [0.25, 0.0]], [[0.0, 0.25], [0.0, 0.75]]]},
         x_given_s_doc(), "ch.json field 'state_kernel': axis S1 alphabet labels must be unique, "
         "got (0, 0, '?')"),
        ({**wiretap_doc(), "alphabets": {"S": [0, 1], "X": [0, 1], "Y": [None, True], "Z": [0, 1]}},
         x_given_s_doc(), "ch.json field 'Y' must list numbers, strings or flat lists of them"),
        ({**wiretap_doc(), "alphabets": {"S": [0, 1], "X": [0, 1], "Y": [0, 1], "Z": [0, False]}},
         x_given_s_doc(), "ch.json field 'Z' must list numbers, strings or flat lists of them"),
        ({**wiretap_doc(), "alphabets": {"S": [[0, None], [1, 0]], "X": [0, 1], "Y": [0, 1], "Z": [0, 1]}},
         x_given_s_doc(), "ch.json field 'S' must list numbers, strings or flat lists of them"),
        (wiretap_doc(), {**const_u_policy_doc(), "u": [None]},
         "pol.json field 'u' must list numbers, strings or flat lists of them"),
        ({"kind": "semideterministic", "alphabets": {"S": [0, 1], "X": [0, 1], "Z": [0]},
          "state_pmf": [0.5, 0.5], "g": [[0, None], [1, 0]], "z_kernel": [[[1.0], [1.0]], [[1.0], [1.0]]]},
         x_given_s_doc(), "ch.json field 'g' must list numbers, strings or flat lists of them"),
        ({"kind": "semideterministic", "alphabets": {"S": [0, 1], "X": [0, 1], "Z": [0]},
          "state_pmf": [0.5, 0.5], "g": [[0, [1, True]], [1, 0]],
          "z_kernel": [[[1.0], [1.0]], [[1.0], [1.0]]]},
         x_given_s_doc(), "ch.json field 'g' must list numbers, strings or flat lists of them"),
    ],
)
def test_malformed_documents_are_error_records(tmp_path, capsys, channel, policy, message):
    ch = write_json(tmp_path / "ch.json", channel)
    pol = write_json(tmp_path / "pol.json", policy)
    status = main(["rate", "--channel", ch, "--policy", pol, "--functional", "RA"])
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["error"]["type"] == "ValueError"
    assert record["error"]["message"].endswith(message)
    assert "results" not in record


def test_unreadable_channel_is_reported_not_raised(capsys):
    status = main(["rate", "--channel", "/no/such/file.json", "--policy", "x", "--functional", "RA"])
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["error"]["type"] == "FileNotFoundError"
    # the subcommand and the five options rate reads, defaults included
    assert record["config_hash"] == "8d9b4f68e932890e"


# ---------------------------------------------------------------------------
# formatting helpers


def test_floats_print_with_twelve_significant_digits():
    assert _fmt(math.pi) == "3.14159265359"
    assert _fmt(0.25) == "0.25"
    assert _fmt(123456789012345.0) == "1.23456789012e+14"


def test_round12_walks_nested_structures():
    blob = _round12({"a": [math.pi, {"b": np.float64(1.0) / 3.0}], "n": np.int64(4), "s": "x"})
    assert blob["a"][0] == float("3.14159265359")
    assert blob["a"][1]["b"] == float("0.333333333333")
    assert blob["n"] == 4 and isinstance(blob["n"], int)
    assert blob["s"] == "x"
    assert _round12(float("inf")) == "inf"
    json.dumps(blob)


def test_n_list_parsing():
    assert _parse_n_list("4,6,8") == (4, 6, 8)
    for text in ("4,x", "", ","):
        with pytest.raises(Exception, match="comma-separated"):
            _parse_n_list(text)


def test_median_is_numpys_median_bit_for_bit():
    rng = np.random.default_rng(RNG_SEED + 7)
    cases = [[1.5e308, 1.7e308], [5e-324, 5e-324]]  # a sum past the range; halves that underflow
    for case in range(360):
        values = (rng.normal(size=case % 9 + 1) * 10.0 ** rng.integers(-300, 300)).tolist()
        for k in rng.integers(len(values), size=rng.integers(3)):  # repeats
            values[k] = values[rng.integers(len(values))]
        for k in rng.integers(len(values), size=rng.integers(3)):
            values[k] = (-math.inf, math.inf)[rng.integers(2)]
        cases.append(values)
    for values in cases:
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or a sum past the range
            want = np.float64(np.median(values))
        got = _median(values)
        assert type(got) is float
        assert np.float64(got).tobytes() == want.tobytes(), values
    for values in ([math.nan, 3.0, 1.0], [2.0, 1.0, math.nan, 0.0, 5.0]):  # NaN sorts nowhere
        assert math.isnan(_median(values)) and math.isnan(np.median(values))


def test_commands_do_not_import_numpy_ma(tmp_path):
    # np.median and the 1-D np.unique make numpy 2.x import numpy.ma for a
    # handful of floats or ints; compared with the modules present after the
    # imports, so this also holds where numpy imports ma eagerly
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    runs = [
        ["optimize", "--channel", ch, "--functional", "RA", "--card-u", "2", "--card-v", "2",
         "--restarts", "2", "--iters", "20"],
        ["example", "--restarts", "2", "--iters", "20"],
        ["softcov-sim", "--channel", ch, "--policy", pol, "--r1", "0.7", "--r2", "0.7", "--n", "3",
         "--trials", "3"],
        ["codec-sim", "--channel", ch, "--policy", pol, "--r1", "0.25", "--r2", "0.25", "--r", "0.25",
         "--n", "4", "--trials", "4", "--eps", "1.0", "--leakage-trials", "2"],
    ]
    script = "\n".join([
        "import contextlib, io, json, sys",
        "import numpy, sdwtc.cli",
        "before, added = set(sys.modules), {}",
        "for argv in json.loads(sys.argv[1]):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert sdwtc.cli.main(argv) == 0, argv",
        "    added[argv[0]] = sorted(set(sys.modules) - before)",
        "print(json.dumps(added))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(sdwtc.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env, check=True,
                         capture_output=True, text=True).stdout
    added = json.loads(out)
    assert list(added) == [argv[0] for argv in runs]
    for command, modules in added.items():
        assert not [m for m in modules if m.split(".")[:2] == ["numpy", "ma"]], command
