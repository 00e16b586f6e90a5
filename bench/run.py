"""sdwtc benchmark launcher.

    python3 bench/run.py --workload rate-search --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout.  The launcher fixes the environment (one
BLAS/OpenMP thread, SDWTC_WORKERS removed so the restart thread pool stays
off, the checkout's ``src`` as the only PYTHONPATH entry, a fixed hash
seed), times set-up in several fresh processes, then runs the workload in
one fresh worker process (worker.py) and prints:

* lines starting with ``#``: the environment header (nproc, Python, numpy
  and BLAS versions, git commit, workload seed) and a summary with
  ``ops_failed_frac`` and ``rate_shortfall_bits``;
* as the last line, one JSON object with ``correct``, ``attempted``,
  ``failed`` and ``metrics``: the end-to-end metrics (``wall_s``,
  ``setup_s``, ``peak_rss_mb``) with --trace 0, the per-layer metrics of
  tracing.py with --trace 1.

Workloads (workloads.py): rate-search, grid-oracle, code-montecarlo,
code-exact.  ``python3 bench/run.py --record`` re-records
bench/references.json from the current source.

The run exits non-zero without a result when the checkout has no sdwtc
source, when a process fails, or when the run would exceed its time limit.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TIME_LIMIT_S = 170.0
SETUP_PROBES = 5
SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="sdwtc benchmark launcher")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="re-record the reference outputs")
    p.add_argument("--tiny", action="store_true", help="small job sizes, for the smoke test")
    p.add_argument("--references", help="reference file (default bench/references.json)")
    args = p.parse_args(argv)
    if not args.record and (args.workload is None or args.seed is None):
        p.error("--workload and --seed are required")
    return args


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in SINGLE_THREAD})
    env.pop("SDWTC_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(extra: list[str], args, deadline: float) -> dict:
    """Run worker.py to completion; return the JSON of its last stdout line."""
    cmd = [sys.executable, str(WORKER), *extra]
    if args.tiny:
        cmd.append("--tiny")
    if args.references:
        cmd += ["--references", args.references]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the run finished")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(extra)}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def measure(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "sdwtc" / "__init__.py").is_file():
        raise BenchError(f"no sdwtc source under {ROOT / 'src'}; run from a full checkout")
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    if not args.trace:
        # the first probe also fills the bytecode cache; it is not counted
        probes = 1 if args.tiny else SETUP_PROBES + 1
        for _ in range(probes):
            setup.append(run_worker([*base, "--setup-only"], args, deadline)["setup_s"])
        setup = setup[-SETUP_PROBES:]
    res = run_worker([*base, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                     args, deadline)

    env = res["env"]
    print(f"# workload={args.workload} seed={args.seed} variant={res['variant']} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print(f"# nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']!r} commit={git_commit()}")
    print("# env " + " ".join(f"{var}=1" for var in SINGLE_THREAD) + " SDWTC_WORKERS=unset")
    print(f"# passes={res['passes']} wall_s={res['wall_s']:.6f} attempted={res['attempted']} "
          f"failed={res['failed']} ops_failed_frac={res['failed'] / res['attempted']:.6g} "
          f"rate_shortfall_bits={res['rate_shortfall_bits']!r}")
    for problem in res["problems"]:
        print(f"# problem: {problem}")
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.record:
            extra = ["--record"]
            if args.workload:
                extra += ["--workload", args.workload]
            if args.seed is not None:
                extra += ["--seed", str(args.seed)]
            run_worker(extra, args, time.monotonic() + 3600.0)
            return 0
        print(json.dumps(measure(args)))
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
