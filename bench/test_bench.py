"""Smoke test of the benchmark itself, at tiny job sizes.

    python3 -m pytest bench/test_bench.py -q

Records tiny-size references into a temporary file, then checks that every
end-to-end and per-layer metric named in BENCHMARK.json is emitted with its
unit, that a reference value moved beyond the tolerance turns that job into
a counted failure (and one moved within it does not), and that a directory
without the sdwtc source gives no result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=180)


def run(workload: str, trace: int, references: Path) -> dict:
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
                 "--trace", str(trace), "--tiny", "--references", str(references))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def references(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("bench") / "references.json"
    proc = bench("--record", "--tiny", "--seed", str(SEED), "--references", str(path))
    assert proc.returncode == 0, proc.stderr
    return path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, references):
    res = run(workload, trace, references)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


@pytest.mark.parametrize("shift, fails", [(1e-6, True), (1e-12, False)])
def test_moved_reference_value_is_a_counted_failure(references, tmp_path, shift, fails):
    doc = json.loads(references.read_text())
    jobs = doc["code-exact"][str(SEED)]
    jobs["softcov-exponent-0.6-0.6"]["gamma"] += shift
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(doc))
    res = run("code-exact", 0, moved)
    # the moved job fails on every pass, every other job passes
    assert res["failed"] * len(jobs) == (res["attempted"] if fails else 0)
    assert res["correct"] is not fails


def test_directory_without_source_gives_no_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
