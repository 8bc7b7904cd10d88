"""design-forge benchmark.

    python3 bench/run.py --workload ms-build --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30     # every workload, as a table
    python3 bench/run.py --record-digests                # rewrite bench/digests.json

One run sets up its workload several times (imports included) and reports
the median as ``setup_s``, then repeats passes over the workload's fixed
operation list for ``--seconds``.  Every time is taken between two runs of
a fixed reference loop and rescaled to the reference's nominal speed
(``workloads.at_reference_speed``), because the shared machine's speed
drifts by up to 1.6x within seconds.  Each operation's time is its median
over the passes; totals, ``wall_s`` included, and percentiles are taken over
those per-operation medians.
With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the fastest traced pass.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics without tracing, per-layer
metrics with it).  The program is imported from ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "construct_s": "s",
    "verify_ok_s": "s",
    "verify_fail_s": "s",
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_p99_ms": "ms",
    "decided_share": "share",
    "peak_rss_mb": "MB",
}


def fresh_import():
    for name in [m for m in sys.modules if m == "design_forge" or m.startswith("design_forge.")]:
        del sys.modules[name]
    importlib.import_module("design_forge.cli")
    return sys.modules["design_forge"]


def set_up(cls, seed: int, work: Path):
    """Import the program and build the inputs, SETUP_REPEATS times."""
    from workloads import at_reference_speed, reference

    times = []
    before = reference()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = fresh_import()
        workload = cls()
        workload.setup(seed, work, lib)
        t = time.perf_counter() - t0
        gc.collect()
        after = reference()
        times += at_reference_speed([t], before, after)
        before = after
    return statistics.median(times), lib, workload


class Passes:
    """Passes of one workload: per-pass walls, per-operation times, and the
    spans of the fastest traced pass."""

    def __init__(self):
        self.results = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.spans = None
        self.walked = 0
        self.peak_rss_mb = 0.0

    @property
    def best_wall(self) -> float:
        return min(r.wall for r in self.results)

    def one(self, workload, lib, tracer=None) -> None:
        if tracer is not None:
            tracer.reset()
        result = workload.run_pass(lib, tracer)
        if not self.results:  # before the gate's own checks add to the peak
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        errors = workload.check(lib, result)
        attempted, failed = workload.op_counts(result, errors)
        self.attempted += attempted
        self.failed += failed
        self.errors += errors
        result.outcomes = None
        result.extra.pop("reports", None)
        if tracer is not None and (not self.results or result.wall < self.best_wall):
            self.spans, self.walked = tracer.spans, tracer.words_walked
        self.results.append(result)

    def run(self, workload, lib, budget: float) -> None:
        start = time.perf_counter()
        while True:
            self.one(workload, lib)
            if time.perf_counter() - start + self.best_wall > budget:
                return

    def typical(self, values_of) -> list[float]:
        """Per-item median over the passes of a list each pass records."""
        return [statistics.median(col) for col in zip(*(values_of(r) for r in self.results))]


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, passes: Passes, setup_s: float) -> dict:
    from workloads import Ms1Sweep

    per_op = passes.typical(lambda r: r.times)
    wall = sum(per_op)
    if isinstance(workload, Ms1Sweep):
        construct = sum(per_op)
        ok_times = passes.typical(lambda r: r.extra["ok"])
        fail_times = passes.typical(lambda r: r.extra["fail"])
        wall += sum(ok_times) + sum(fail_times)
        ok, fail = statistics.fmean(ok_times), statistics.fmean(fail_times)
        decided, share = workload.decided, workload.decided / len(workload.cases)
    else:
        rcs = [workload.expected_rc(op) for op in workload.ops]
        kinds = [op.kind for op in workload.ops]
        construct = sum(t for t, k in zip(per_op, kinds) if k == "construct")
        ok = sum(t for t, k, rc in zip(per_op, kinds, rcs) if k == "verify" and rc == 0)
        fail = sum(t for t, k, rc in zip(per_op, kinds, rcs) if k == "verify" and rc == 1)
        share = 1 - passes.failed / passes.attempted
        decided = share * len(workload.ops)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "construct_s": construct,
        "verify_ok_s": ok,
        "verify_fail_s": fail,
        "cases_per_s": decided / wall,
        "case_p50_ms": 1000 * statistics.median(per_op),
        "case_p99_ms": 1000 * percentile(per_op, 99),
        "decided_share": share,
        "peak_rss_mb": passes.peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def measure(name: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    import spans as tracing
    from workloads import WORKLOADS

    setup_s, lib, workload = set_up(WORKLOADS[name], seed, work)
    untraced = Passes()
    runs = [untraced]
    if traced:
        # untraced and traced passes alternate, so both meet the same slow phases
        tracer, traced_passes = tracing.Tracer(), Passes()
        runs.append(traced_passes)
        start = time.perf_counter()
        while True:
            untraced.one(workload, lib)
            tracer.install(lib)
            try:
                traced_passes.one(workload, lib, tracer)
            finally:
                tracer.uninstall()
            if time.perf_counter() - start + 2 * untraced.best_wall > seconds:
                break
        overhead = sum(traced_passes.typical(lambda r: r.times)) / sum(untraced.typical(lambda r: r.times)) - 1
        best = min(traced_passes.results, key=lambda r: r.wall)
        values = tracing.layer_metrics(traced_passes.spans, best.wall, overhead, traced_passes.walked)
        metrics = {n: {"value": values[n], "unit": u} for n, u in tracing.PER_LAYER.items()}
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracing.dump(traced_passes.spans, out / f"trace-{name}-seed{seed}.jsonl")
    else:
        untraced.run(workload, lib, seconds)
        metrics = end_to_end(workload, untraced, setup_s)
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    errors = [e for p in runs for e in p.errors]
    for e in errors[:20]:
        print(f"FAILED {e}", file=sys.stderr)
    if hasattr(workload, "counts"):
        print(f"criterion-5 grid outcomes: {workload.counts}", file=sys.stderr)
    print(f"{name}: {len(untraced.results)} untraced passes"
          + (f", {len(runs[1].results)} traced" if traced else ""), file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_digests(work: Path) -> None:
    """Run every op whose outputs have a recorded digest and write the table."""
    import gate
    from workloads import WORKLOADS, run_cli

    lib = fresh_import()
    table = {}
    for cls in WORKLOADS.values():
        if not hasattr(cls, "recordable_ops"):
            continue
        for op in cls().recordable_ops(work, lib):
            rc, out, err = run_cli(lib.cli.main, op.argv)
            text = op.output.read_text() if op.output else None
            table[op.key] = {"rc": rc, "sha256": gate.digest(rc, out, err, text)}
    gate.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} digests in {gate.DIGESTS}", file=sys.stderr)


def run_all(args) -> int:
    """Each workload in its own fresh process, then one table."""
    from workloads import WORKLOADS

    rc = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}")
            rc = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        share = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_share={share:.4f}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:38s} {v['value']:14.6g} {v['unit']}")
        rc |= not result["correct"]
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["ms-build", "claims-verify", "ms1-sweep", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "design_forge" / "__init__.py").is_file():
        print(f"error: the program is not in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.record_digests:
            record_digests(work)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
