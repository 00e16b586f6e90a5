"""CLI plumbing: spec loading, config hashing, dispatch, and artifact determinism.

Subcommands run in-process through cli.main so exit codes, the stdout JSON
summary, and CSV bytes can all be captured and compared across reruns.
"""
import json
import math

import numpy as np
import pytest

from identities import random_model, random_rln_model
from sdwtc import __version__, rates
from sdwtc.cli import (
    RunConfig,
    _fmt,
    _parse_n_list,
    _round12,
    config_hash,
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
    model_to_dict,
)
from sdwtc.optimize import FUNCTIONALS, _search_space, rate_report
from sdwtc.prob import Channel, Pmf, binary_entropy, entropy, inv_binary_entropy
from sdwtc.simulate import index_count

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
# RunConfig and hashing


def test_config_rejects_unknown_fields():
    with pytest.raises(TypeError):
        RunConfig(subcommand="rate", bogus=1)


def test_config_hash_is_stable_and_sensitive():
    a = RunConfig(subcommand="optimize", seed=7, n=(4, 6))
    b = RunConfig(subcommand="optimize", seed=7, n=(4, 6))
    digest = config_hash(a)
    assert digest == config_hash(b)
    assert len(digest) == 16
    assert set(digest) <= set("0123456789abcdef")
    assert digest != config_hash(RunConfig(subcommand="optimize", seed=8, n=(4, 6)))


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


# ---------------------------------------------------------------------------
# error records


def test_missing_flags_produce_an_error_record(tmp_path, capsys):
    ch = write_json(tmp_path / "ch.json", wiretap_doc())
    pol = write_json(tmp_path / "pol.json", x_given_s_doc())
    status = main(["softcov-exponent", "--channel", ch, "--policy", pol])
    record = json.loads(capsys.readouterr().out)
    assert status == 1
    assert record["error"]["type"] == "ValueError"
    assert "--r1" in record["error"]["message"]
    assert record["version"] == __version__
    assert len(record["config_hash"]) == 16
    assert "results" not in record


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
    status = main([subcommand, "--channel", str(ch), "--policy", pol, "--functional", "RA"])
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
    # recorded when main still spelled out every RunConfig keyword
    assert record["config_hash"] == "289f5f83f5486787"


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
    assert _parse_n_list("") == ()
    with pytest.raises(Exception, match="comma-separated"):
        _parse_n_list("4,x")
