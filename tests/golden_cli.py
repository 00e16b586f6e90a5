"""Golden outputs of the sdwtc command lines that CI runs.

golden_cli.json lists each command line (its argv after ``sdwtc``) with
its exit status, its stdout as a list of lines and, for a line that
passes ``--out``, the CSV text as a list of lines.  Rows run in a scratch
directory holding copies of bench/fixtures and tests/fixtures, so the
relative paths that config_hash hashes are the same wherever they run,
and ``--out`` files stay out of the tree.

On the numpy version the file records, outputs must match byte for byte.
numpy gives its Generator streams no guarantee across versions (NEP 19),
so on any other version stdout is compared as parsed JSON and CSV cell by
cell: floats within 1e-9 relative, everything else equal.

    python tests/golden_cli.py                 # each row twice, in fresh sdwtc processes
    python tests/golden_cli.py --save DIR      # the same, keeping each row's stdout as DIR/<name>
    python tests/golden_cli.py --update NAME   # rewrite row NAME from this checkout, in process
    python tests/golden_cli.py --update        # rewrite every row and the numpy version
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_cli.json")
FIXTURES = ("bench/fixtures", "tests/fixtures")
REL_TOL = 1e-9


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def exact(golden: dict) -> bool:
    """Whether outputs are compared byte for byte: numpy is the file's version."""
    return np.__version__ == golden["numpy"]


def comparison(golden: dict) -> str:
    if exact(golden):
        return f"byte for byte (numpy {np.__version__}, as recorded)"
    return (f"as parsed JSON and CSV cells, floats within {REL_TOL:g} relative "
            f"(numpy {np.__version__}; the file records {golden['numpy']})")


def stage(dest: Path) -> Path:
    """Copy the fixture directories into dest, under their relative paths."""
    for rel in FIXTURES:
        shutil.copytree(ROOT / rel, dest / rel, dirs_exist_ok=True)
    return dest


def _csv_path(row: dict, workdir: Path) -> Path | None:
    argv = row["argv"]
    return workdir / argv[argv.index("--out") + 1] if "--out" in argv else None


def _lines(text: str, end: str = "\n") -> list[str]:
    """The lines of text, each ended by end (csv.writer ends its rows with \\r\\n)."""
    lines = text.split(end)
    if lines[-1] != "":
        raise ValueError(f"output does not end with {end!r}: {text[-40:]!r}")
    return lines[:-1]


def _outcome(row: dict, workdir: Path, run) -> dict:
    """The exit status, stdout lines and (for an --out row) CSV lines of
    run() -> (status, stdout), any earlier --out file removed first."""
    path = _csv_path(row, workdir)
    if path is not None and path.exists():
        path.unlink()
    status, stdout = run()
    got = {"status": status, "stdout": _lines(stdout)}
    if path is not None:
        got["csv"] = None
        if path.exists():
            with open(path, newline="") as fh:
                got["csv"] = _lines(fh.read(), "\r\n")
    return got


def run_in_process(row: dict, workdir: Path) -> dict:
    """Run a row through cli.main with workdir as the working directory."""
    from sdwtc import cli

    def run() -> tuple[int, str]:
        out, cwd = io.StringIO(), os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out):
                return cli.main(list(row["argv"])), out.getvalue()
        finally:
            os.chdir(cwd)

    return _outcome(row, workdir, run)


def run_fresh(row: dict, workdir: Path) -> dict:
    """Run a row in a fresh sdwtc console-script process in workdir."""
    def run() -> tuple[int, str]:
        proc = subprocess.run([shutil.which("sdwtc") or "sdwtc", *row["argv"]], cwd=workdir,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
        return proc.returncode, proc.stdout

    return _outcome(row, workdir, run)


def _close(want, got) -> bool:
    """Equal, except that floats may differ by REL_TOL relative."""
    if isinstance(want, dict):
        return isinstance(got, dict) and want.keys() == got.keys() and all(
            _close(want[k], got[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(want) == len(got) and all(map(_close, want, got))
    if isinstance(want, float) and isinstance(got, float):
        return want == got or math.isclose(want, got, rel_tol=REL_TOL)
    return type(want) is type(got) and want == got


def _cells(lines) -> list[list]:
    """CSV rows with every cell that reads as a number turned into a float."""
    def cell(text: str):
        try:
            return float(text)
        except ValueError:
            return text
    return [[cell(text) for text in row] for row in csv.reader(lines or ())]


def mismatches(row: dict, got: dict, byte_exact: bool) -> list[str]:
    """What in got differs from the row's recorded status, stdout and CSV."""
    found = []
    if got["status"] != row["status"]:
        found.append(f"exit status {got['status']}, recorded {row['status']}")
    if byte_exact:
        for key in ("stdout", "csv"):
            if got.get(key) != row.get(key):
                found.append(f"{key} differs:\n" + "\n".join(got.get(key) or ()))
        return found
    try:
        same = _close(json.loads("\n".join(row["stdout"])), json.loads("\n".join(got["stdout"])))
    except json.JSONDecodeError:
        same = False
    if not same:
        found.append("stdout differs:\n" + "\n".join(got["stdout"]))
    if "csv" in row and not _close(_cells(row["csv"]), _cells(got["csv"])):
        found.append("csv differs:\n" + "\n".join(got["csv"] or ()))
    return found


def _check(save: Path | None) -> int:
    golden = load()
    print(f"comparing {len(golden['rows'])} rows {comparison(golden)}", file=sys.stderr)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = stage(Path(tmp))
        for row in golden["rows"]:
            first, second = run_fresh(row, workdir), run_fresh(row, workdir)
            found = mismatches(row, first, exact(golden))
            if first != second:
                found.append("a rerun printed other bytes")
            if save is not None:
                save.mkdir(parents=True, exist_ok=True)
                (save / row["name"]).write_text("".join(line + "\n" for line in first["stdout"]))
            for problem in found:
                print(f"{row['name']}: sdwtc {' '.join(row['argv'])}: {problem}", file=sys.stderr)
            failed += bool(found)
    print(f"{failed} of {len(golden['rows'])} rows failed", file=sys.stderr)
    return 1 if failed else 0


def _update(names: list[str]) -> int:
    golden = load()
    rows = {row["name"]: row for row in golden["rows"]}
    unknown = [name for name in names if name not in rows]
    if unknown:
        sys.exit(f"no rows named {unknown}")
    if names and not exact(golden):
        sys.exit(f"the file records numpy {golden['numpy']}; rewrite every row on numpy {np.__version__}")
    golden["numpy"] = np.__version__
    with tempfile.TemporaryDirectory() as tmp:
        workdir = stage(Path(tmp))
        for name in names or rows:
            rows[name].update(run_in_process(rows[name], workdir))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--save", type=Path, help="directory for each row's stdout")
    parser.add_argument("--update", nargs="*", metavar="NAME", help="rows to rewrite (none: all)")
    opts = parser.parse_args()
    sys.exit(_update(opts.update) if opts.update is not None else _check(opts.save))
