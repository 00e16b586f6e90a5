"""Every command line CI runs, in process through cli.main, against its
recorded exit status, stdout and CSV in golden_cli.json (see golden_cli.py
for how rows compare and how to rewrite one)."""
import json
import warnings

import pytest

import golden_cli

GOLDEN = golden_cli.load()
ROWS = GOLDEN["rows"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    if not golden_cli.exact(GOLDEN):
        warnings.warn(f"golden CLI outputs compared {golden_cli.comparison(GOLDEN)}", stacklevel=1)
    return golden_cli.stage(tmp_path_factory.mktemp("golden"))


def test_golden_rows_are_named_once_and_cover_both_outcomes():
    assert len({row["name"] for row in ROWS}) == len(ROWS)
    assert {row["status"] for row in ROWS} == {0, 1}
    assert all(("csv" in row) == ("--out" in row["argv"]) for row in ROWS)


@pytest.mark.parametrize("row", ROWS, ids=[row["name"] for row in ROWS])
def test_command_line_prints_its_golden_output(row, workdir):
    got = golden_cli.run_in_process(row, workdir)
    found = golden_cli.mismatches(row, got, golden_cli.exact(GOLDEN))
    assert not found, f"compared {golden_cli.comparison(GOLDEN)}: " + "; ".join(found)


def _scaled(obj, factor):
    if isinstance(obj, dict):
        return {k: _scaled(v, factor) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_scaled(v, factor) for v in obj]
    return obj * factor if isinstance(obj, float) else obj


@pytest.mark.parametrize("factor, close", [(1 + 1e-12, True), (1 + 1e-6, False)])
def test_other_numpy_versions_compare_floats_within_the_tolerance(factor, close):
    row = next(row for row in ROWS if row["name"] == "codec_leakage_csv")
    stdout = json.dumps(_scaled(json.loads("\n".join(row["stdout"])), factor), indent=2)
    cells = [",".join(str(v * factor) if isinstance(v, float) else v for v in line)
             for line in golden_cli._cells(row["csv"])]
    for got in ({**row, "stdout": stdout.splitlines()}, {**row, "csv": cells}):
        assert golden_cli.mismatches(row, got, byte_exact=True)
        assert (not golden_cli.mismatches(row, got, byte_exact=False)) == close
