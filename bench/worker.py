"""Run one benchmark workload in this process; print the measurements as one JSON line.

    worker.py --workload NAME --seed N --seconds S --trace 0|1
    worker.py --setup-only --workload NAME --seed N
    worker.py --record [--workload NAME] [--seed N]

run.py starts this script after fixing the environment (one BLAS thread,
no restart thread pool, the checkout's ``src`` on PYTHONPATH); use run.py.

A run executes the workload's job list once as a warm-up, then repeats it
for the measuring window and reports the median pass time.  Every job
execution is one operation: it fails when it raises, when an output differs
from its recorded reference, or when an independent check rejects it.
With --trace 1 the window is split: untraced passes first, then passes with
every traced function wrapped (tracing.py); the per-layer metrics come from
the traced passes and the tracing overhead is the difference of the medians.

--setup-only times importing sdwtc, loading and validating the fixtures and
building the models, from a fresh process.  --record runs one pass of every
variant and writes its outputs as the references.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports sdwtc, so it counts towards set-up)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
MAX_PROBLEMS = 10


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small job sizes, for the smoke test")
    p.add_argument("--references", type=Path, default=REFERENCES)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--record", action="store_true")
    return p.parse_args(argv)


def check_source(sdwtc) -> None:
    """Refuse to measure an sdwtc that is not the checkout's own source."""
    src = (ROOT / "src").resolve()
    if src not in Path(sdwtc.__file__).resolve().parents:
        raise SystemExit(f"imported sdwtc from {sdwtc.__file__}, not from {src}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


class Runner:
    """Executes passes over a workload's jobs and tallies operations."""

    def __init__(self, workload, references: dict | None):
        self.workload = workload
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.shortfall = 0.0
        self.policies = 0

    def check(self, job, outputs: dict, first: bool) -> list[str]:
        problems = []
        if self.references is not None:
            reference = self.references.get(job.name)
            problems = (["no recorded reference"] if reference is None
                        else workloads.compare(reference, outputs))
        try:
            problems += job.check(outputs, first)
        except Exception as err:  # noqa: BLE001 - a broken output counts as a failed operation
            problems.append(f"check raised {type(err).__name__}: {err}")
        return problems

    def one_pass(self, first: bool = False, record: dict | None = None) -> float:
        """Run every job once; return the summed job time (checks excluded)."""
        elapsed = 0.0
        shortfall = 0.0
        for job in self.workload.jobs:
            self.policies += job.policies
            t = time.perf_counter()
            try:
                outputs, problems = job.run(), []
            except Exception as err:  # noqa: BLE001 - counted, and the run goes on
                outputs, problems = None, [f"raised {type(err).__name__}: {err}"]
            elapsed += time.perf_counter() - t
            if outputs is not None:
                problems = self.check(job, outputs, first)
                if record is not None:
                    record[job.name] = outputs
                if job.shortfall is not None and not problems:
                    shortfall += job.shortfall(outputs)
            self.attempted += 1
            if problems:
                self.failed += 1
                for problem in problems:
                    if len(self.problems) < MAX_PROBLEMS:
                        self.problems.append(f"{job.name}: {problem}")
        if first:
            self.shortfall = shortfall
        return elapsed

    def passes(self, seconds: float) -> list[float]:
        """Repeat the job list until the window has passed (at least once)."""
        times = []
        end = time.perf_counter() + seconds
        while not times or time.perf_counter() < end:
            times.append(self.one_pass())
        return times


def record(args) -> None:
    refs = json.loads(args.references.read_text()) if args.references.exists() else {}
    refs["tolerance"] = {"int": "exact", "bool": "exact", "str": "exact",
                         "float": f"absolute {workloads.FLOAT_ATOL}"}
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    variants = ([args.seed % workloads.NUM_VARIANTS] if args.seed is not None
                else range(workloads.NUM_VARIANTS))
    for name in names:
        for v in variants:
            runner = Runner(workloads.build(name, v, args.tiny), None)
            outputs: dict = {}
            runner.one_pass(first=True, record=outputs)
            if runner.failed:
                raise SystemExit(f"{name} variant {v}: {runner.problems}")
            refs.setdefault(name, {})[str(v)] = outputs
            print(f"recorded {name} variant {v}", file=sys.stderr)
    args.references.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record:
        record(args)
        return 0
    if args.workload not in workloads.WORKLOADS or args.seed is None:
        raise SystemExit(f"need --seed and --workload, one of {workloads.WORKLOADS}")
    check_source(workloads.cli)
    workload = workloads.build(args.workload, args.seed, args.tiny)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0

    refs = json.loads(args.references.read_text())
    runner = Runner(workload, refs.get(args.workload, {}).get(str(workload.variant), {}))
    runner.one_pass(first=True)
    result = {"variant": workload.variant, "env": environment()}
    if args.trace:
        from tracing import Tracer

        untraced = runner.passes(args.seconds / 2)
        tracer = Tracer()
        runner.policies = 0
        tracer.install()
        try:
            traced = runner.passes(args.seconds / 2)
        finally:
            tracer.uninstall()
        overhead = statistics.median(traced) - statistics.median(untraced)
        result["per_layer"] = tracer.per_layer(len(traced), runner.policies, runner.shortfall, overhead)
        tracer.save(ROOT / ".bench_out" / f"spans-{args.workload}.npz")
        times = untraced
    else:
        times = runner.passes(args.seconds)
    result.update(
        passes=len(times),
        wall_s=statistics.median(times),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        rate_shortfall_bits=runner.shortfall,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
