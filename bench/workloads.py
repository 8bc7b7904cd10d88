"""The three workloads.  Each builds its inputs from the seed in ``setup``,
runs one pass of its fixed operation list in ``run_pass``, and checks a
pass's outcomes in ``check``.

``ms-build`` and ``claims-verify`` are lists of CLI operations, each run as
``design_forge.cli.main(argv)`` in this process with stdout and stderr
captured.  ``ms1-sweep`` calls the library: a closed loop of ``ms1_feasible``
then ``ms1_construct`` over a list of alphabets, one case after another.
"""

from __future__ import annotations

import gc
import io
import json
import sys
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Callable

import gate
import gen


# The reference loop's fastest time on the 2-CPU machine where the baseline
# was recorded; times are reported in seconds at that speed.
REF_SECONDS = 0.0017


def reference() -> float:
    """Time one run of a fixed pure-Python loop doing the program's kind of
    work (tuples, sorting, dict counts)."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(3000):
        key = tuple(sorted(((i * 7) % 31, (i * 13) % 17, i % 5)))
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0


def at_reference_speed(times, before: float, after: float) -> list[float]:
    """Times measured between two reference runs, rescaled to the speed at
    which the reference takes REF_SECONDS.  The machine's speed drifts by
    up to 1.6x within seconds; the reference runs next to each measurement
    see the same speed, so the ratio cancels the drift."""
    return [t * 2 * REF_SECONDS / (before + after) for t in times]


@dataclass
class Op:
    """One CLI call.  ``key`` names it in the digest table; an op whose
    outputs depend on a seeded corruption has no recorded digest and is
    checked by ``recheck`` on its report instead."""

    key: str
    argv: list[str]
    kind: str  # "construct" (construct, transform) or "verify"
    output: Path | None = None
    recorded: bool = True
    recheck: Callable[[str], str | None] | None = None


@dataclass
class PassResult:
    wall: float  # measured, without the reference runs
    times: list[float]  # at reference speed
    outcomes: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def run_cli(main, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


class CliWorkload:
    """A fixed list of CLI operations, timed one by one."""

    def __init__(self):
        self.ops: list[Op] = []
        self.first: list[str] = []  # digests seen on the first pass
        self.digests = gate.load_digests()

    def expected_rc(self, op: Op) -> int:
        return self.digests[op.key]["rc"] if op.recorded else 1

    def run_pass(self, lib, tracer=None) -> PassResult:
        main = sys.modules["design_forge.cli"].main
        times, outcomes = [], []
        before = reference()
        wall = 0.0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            gc.collect()  # each op starts from a clean heap, as a fresh CLI process would
            t0 = time.perf_counter()
            outcome = run_cli(main, op.argv)
            t = time.perf_counter() - t0
            after = reference()
            times += at_reference_speed([t], before, after)
            wall += t
            before = after
            outcomes.append(outcome)
        return PassResult(wall, times, outcomes)

    def check(self, lib, result: PassResult) -> list[str]:
        """Errors of one pass; an op with an error counts as failed."""
        errors = []
        digests = []
        for i, (op, (rc, out, err)) in enumerate(zip(self.ops, result.outcomes)):
            file_text = op.output.read_text() if op.output and op.output.exists() else None
            d = gate.digest(rc, out, err, file_text)
            digests.append(d)
            problem = None
            if self.first:
                if d != self.first[i]:
                    problem = "output differs from the first pass"
            elif op.key not in self.digests and op.recorded:
                problem = "no recorded digest"
            elif rc != self.expected_rc(op):
                problem = f"exit {rc}, want {self.expected_rc(op)}: {err.strip()[:200]}"
            elif op.recorded and d != self.digests[op.key]["sha256"]:
                problem = "output digest differs from the seed commit's"
            elif rc == 1 and op.recheck is not None:
                problem = op.recheck(out)
            elif rc == 1:
                problem = "rejection without a re-checkable counterexample"
            if problem:
                errors.append(f"{op.key}: {problem}")
        if not self.first:
            self.first = digests
        return errors

    def op_counts(self, result: PassResult, errors) -> tuple[int, int]:
        return len(self.ops), len(errors)


# --------------------------------------------------------------------------
# ms-build
# --------------------------------------------------------------------------

class MsBuild(CliWorkload):
    """The paper's headline objects, built and checked as MS designs.

    Hybrid MS designs at k = 5 with i = 0, i = 6 (all classes: S(2,5,101))
    and a seeded i in 1..5; oa-gdd MS designs at k = 7, 8, 9, 11 with
    r = k - 1 and a seeded partial r at k = 9, which is a GDD but not an MS
    design, so its ms verify rejects.  ``verify --claim ms`` on every output.

    The distance pass costs B^2 for B blocks, and B moves with i and r, so
    each seeded value comes with its mirror (6 - i, 8 - r): the pair's work
    is the same, within 1%, whatever the seed draws.
    """

    name = "ms-build"

    def setup(self, seed, work: Path, lib) -> None:
        rng = gen.new_rng(seed, self.name)
        i, r = rng.randint(1, 5), rng.randint(1, 7)
        self.ops = self.build_ops(
            work,
            [(5, 0), (5, 6), (5, i), (5, 6 - i)],
            [(7, 6), (8, 7), (9, 8), (11, 10), (9, r), (9, 8 - r)],
        )

    @staticmethod
    def build_ops(work: Path, hybrids, gdds) -> list[Op]:
        builds, verifies = [], []
        families = [("hybrid", "i", k, i) for k, i in hybrids] + [("oa-gdd", "r", k, r) for k, r in gdds]
        for family, p, k, v in families:
            label = f"{family} k={k} {p}={v}"
            path = work / f"{family}-k{k}-{p}{v}.json"
            builds.append(Op(
                f"construct {label}",
                ["construct", "--family", family, "--k", str(k), f"--{p}", str(v), "-o", str(path)],
                "construct", output=path,
            ))
            verifies.append(Op(
                f"verify ms {label}", ["verify", "--claim", "ms", str(path)], "verify",
                recheck=lambda report, path=path: _recheck_file(report, path),
            ))
        return builds + verifies

    def recordable_ops(self, work: Path, lib) -> list[Op]:
        return self.build_ops(
            work, [(5, i) for i in range(7)], [(7, 6), (8, 7), (11, 10)] + [(9, r) for r in range(1, 9)]
        )


def _recheck_file(report: str, path: Path) -> str | None:
    lib = sys.modules["design_forge"]
    data = json.loads(path.read_text())
    if json.loads(report).get("counterexample", {}).get("kind") == "coverage":
        return gate.recheck_coverage(lib, report, data["alphabet"], data["blocks"])
    return gate.recheck_distance(lib, report, data["alphabet"], data["blocks"])


# --------------------------------------------------------------------------
# claims-verify
# --------------------------------------------------------------------------

class ClaimsVerify(CliWorkload):
    """Every claim except ``ms`` on large files made in set-up: once on the
    valid file (exit 0) and once on a seeded corruption (exit 1 with a
    counterexample), plus both large-set transforms and an OA checked at a
    strength it does not have.

    Each claim has a fixed kind of corruption and the seed picks its target,
    because the kinds reject after different amounts of work; the kinds are
    spread over the claims so that each is used."""

    name = "claims-verify"
    GDD_K = 16

    def setup(self, seed, work: Path, lib) -> None:
        rng = gen.new_rng(seed, self.name)
        r = rng.randint(1, self.GDD_K - 2)
        self.ops = []

        def write(name, text):
            path = work / name
            path.write_text(text)
            return str(path)

        def pair(claim, label, kind, sizes, t, k, blocks):
            good = write(f"{label}.json", gen.design_json(sizes, t, k, blocks))
            bad_blocks, first, count = gen.corrupt_blocks(sizes, t, blocks, gen.new_rng(seed, label), kind)
            bad = write(f"{label}-bad.json", gen.design_json(sizes, t, k, bad_blocks))
            self.ops.append(Op(f"verify {claim} {label}", ["verify", "--claim", claim, good], "verify"))
            self.ops.append(Op(
                f"verify {claim} {label} {kind}", ["verify", "--claim", claim, bad], "verify",
                recorded=False,
                recheck=lambda rep: gate.recheck_coverage(
                    sys.modules["design_forge"], rep, sizes, bad_blocks, (first, count)
                ),
            ))

        pair("steiner", "S(2,8,449)", "perturb", [2] * 449, 2, 8, gen.steiner_449())
        sizes, blocks = gen.oa_gdd(self.GDD_K, r)
        pair("gdd", f"oa-gdd k={self.GDD_K} r={r}", "delete", sizes, 2, self.GDD_K, blocks)
        copies = gen.sum_large_set()
        pair("gdd", "folded LH(4,10,4,3)", "duplicate", [11] * 5, 4, 5, gen.fold(copies))

        blocks, classes = gen.affine_32()
        good = write("affine-32.json", gen.design_json([2] * 1024, 2, 32, blocks, classes))
        bad_blocks, bad_classes = gen.corrupt_resolution(blocks, classes, gen.new_rng(seed, "affine"), "perturb")
        bad = write("affine-32-bad.json", gen.design_json([2] * 1024, 2, 32, bad_blocks, bad_classes))
        self.ops.append(Op("verify resolution AG(2,32)", ["verify", "--claim", "resolution", good], "verify"))
        self.ops.append(Op(
            "verify resolution AG(2,32) perturb", ["verify", "--claim", "resolution", bad], "verify",
            recorded=False, recheck=lambda rep: gate.recheck_parallel(rep, bad_blocks, bad_classes),
        ))

        ls_text = gen.largeset_json([11] * 4, 3, 4, copies)
        good = write("lh.json", ls_text)
        bad_copies, first, count = gen.corrupt_large_set([11] * 4, copies, gen.new_rng(seed, "lh"), "delete")
        bad = write("lh-bad.json", gen.largeset_json([11] * 4, 3, 4, bad_copies))
        self.ops.append(Op("verify largeset LH(4,10,4,3)", ["verify", "--claim", "largeset", good], "verify"))
        self.ops.append(Op(
            "verify largeset LH(4,10,4,3) delete", ["verify", "--claim", "largeset", bad], "verify",
            recorded=False, recheck=lambda rep: gate.recheck_multiplicity(rep, bad_copies, (first, count)),
        ))
        folded = str(work / "folded LH(4,10,4,3).json")
        self.ops.append(Op("transform ls-to-gdd LH(4,10,4,3)", ["transform", "ls-to-gdd", good], "construct"))
        self.ops.append(Op("transform gdd-to-ls folded LH(4,10,4,3)", ["transform", "gdd-to-ls", folded], "construct"))

        oa_text, rows = gen.oa_extended_text()
        good = write("oa-32.txt", oa_text)
        bad_rows, bad_text = gen.corrupt_oa(rows, 32, gen.new_rng(seed, "oa"), "perturb")
        bad = write("oa-32-bad.txt", bad_text)
        for s in (2, 3):
            self.ops.append(Op(
                f"verify oa OA(2,33,32) strength {s}", ["verify", "--claim", "oa", "--strength", str(s), good],
                "verify", recheck=lambda rep: gate.recheck_oa(rep, rows),
            ))
        self.ops.append(Op(
            "verify oa OA(2,33,32) perturb", ["verify", "--claim", "oa", "--strength", "2", bad], "verify",
            recorded=False, recheck=lambda rep: gate.recheck_oa(rep, bad_rows),
        ))

    def recordable_ops(self, work: Path, lib) -> list[Op]:
        """The recorded ops of seed 0, and the valid oa-gdd check at every r."""
        self.setup(0, work, lib)
        ops = [op for op in self.ops if op.recorded and "oa-gdd" not in op.key]
        for r in range(1, self.GDD_K - 1):
            sizes, blocks = gen.oa_gdd(self.GDD_K, r)
            path = work / f"oa-gdd-r{r}.json"
            path.write_text(gen.design_json(sizes, 2, self.GDD_K, blocks))
            ops.append(Op(f"verify gdd oa-gdd k={self.GDD_K} r={r}", ["verify", "--claim", "gdd", str(path)], "verify"))
        return ops


# --------------------------------------------------------------------------
# ms1-sweep
# --------------------------------------------------------------------------

BUILT, REFUSED, UNDECIDED = "built", "refused", "undecided"


def criterion5_grid():
    """The criterion-5 grid: n <= 10, sizes 2..6, k 2..5, in its order."""
    return [
        (sizes, k)
        for n in range(1, 11)
        for sizes in combinations_with_replacement(range(2, 7), n)
        for k in range(2, 6)
    ]


def wider_grid():
    """n <= 12, sizes 2..7, k 2..6 (92815 cases)."""
    return [
        (sizes, k)
        for n in range(1, 13)
        for sizes in combinations_with_replacement(range(2, 8), n)
        for k in range(2, 7)
    ]


class Ms1Sweep:
    """The criterion-5 grid plus a seeded sample, without repeats, of the
    rest of the wider grid.  Designs built on the criterion-5 grid are also
    run through ``verify_mixed_steiner``, once as built and once with their
    last block deleted."""

    name = "ms1-sweep"
    SAMPLE = 8000
    CHUNK = 250  # cases timed between two reference runs

    def setup(self, seed, work: Path, lib) -> None:
        base = criterion5_grid()
        seen = set(base)
        rest = [case for case in wider_grid() if case not in seen]
        self.base_len = len(base)
        self.cases = base + gen.new_rng(seed, self.name).sample(rest, self.SAMPLE)
        self.first = None
        self.checks: list = []  # (design, its corrupted copy) per built criterion-5 design

    def run_pass(self, lib, tracer=None) -> PassResult:
        cons = sys.modules["design_forge.constructions"]
        errors = sys.modules["design_forge.errors"]
        feasible, construct = cons.ms1_feasible, cons.ms1_construct
        verify = sys.modules["design_forge.verify"].verify_mixed_steiner
        Infeasible, ConstructionFailed = errors.Infeasible, errors.ConstructionFailed
        clock = time.perf_counter
        times, outcomes = array("d"), []
        gc.collect()
        before = reference()
        measured = 0.0
        for lo in range(0, len(self.cases), self.CHUNK):
            chunk = []
            for sizes, k in self.cases[lo: lo + self.CHUNK]:
                t0 = clock()
                feas = feasible(sizes, k).feasible
                try:
                    outcome = construct(sizes, k)
                except Infeasible:
                    outcome = REFUSED
                except ConstructionFailed:
                    outcome = UNDECIDED
                chunk.append(clock() - t0)
                outcomes.append((feas, outcome))
            after = reference()
            times.extend(at_reference_speed(chunk, before, after))
            measured += sum(chunk)
            before = after
        if not self.checks:
            for (feas, outcome) in outcomes[: self.base_len]:
                if not isinstance(outcome, str):
                    cut = lib.MixedDesign(outcome.alphabet, 1, outcome.k, outcome.blocks[:-1])
                    self.checks.append((outcome, cut))
        ok_times, fail_times, reports = [], [], []
        before = reference()
        for design, cut in self.checks:
            t0 = clock()
            good = verify(design)
            t1 = clock()
            bad = verify(cut)
            ok_times.append(t1 - t0)
            fail_times.append(clock() - t1)
            reports.append((good, bad))
        after = reference()
        wall = measured + sum(ok_times) + sum(fail_times)
        extra = {
            "ok": at_reference_speed(ok_times, before, after),
            "fail": at_reference_speed(fail_times, before, after),
            "reports": reports,
        }
        return PassResult(wall, times, outcomes, extra)

    def check(self, lib, result: PassResult) -> list[str]:
        errors = []
        if self.first is not None:
            for case, a, b in zip(self.cases, result.outcomes, self.first):
                if a != b:
                    errors.append(f"{case}: outcome differs from the first pass")
        else:
            self.decided = 0
            for (sizes, k), (feas, outcome) in zip(self.cases, result.outcomes):
                problem = self._check_case(sizes, k, feas, outcome)
                if problem:
                    errors.append(f"alphabet {sizes} k={k}: {problem}")
                elif outcome != UNDECIDED:
                    self.decided += 1
            self.first = result.outcomes
            self.counts = {BUILT: 0, REFUSED: 0, UNDECIDED: 0}
            for _, outcome in self.first[: self.base_len]:
                self.counts[outcome if isinstance(outcome, str) else BUILT] += 1
        for (design, cut), (good, bad) in zip(self.checks, result.extra["reports"]):
            if not good.ok:
                errors.append(f"{design.alphabet.sizes}: a built design fails verify_mixed_steiner")
            problem = self._recheck_cut(lib, cut, bad)
            if problem:
                errors.append(f"{design.alphabet.sizes} less its last block: {problem}")
        return errors

    @staticmethod
    def _check_case(sizes, k, feas, outcome) -> str | None:
        arith = gate.ms1_arith_feasible(sizes, k)
        if feas != arith:
            return f"ms1_feasible says {feas}, the arithmetic says {arith}"
        if outcome == REFUSED:
            return "feasible alphabet refused as Infeasible" if arith else None
        if outcome == UNDECIDED:
            return None if arith else "infeasible alphabet ended in ConstructionFailed"
        return gate.check_ms1_design(sizes, k, outcome)

    @staticmethod
    def _recheck_cut(lib, cut, report) -> str | None:
        ce = report.counterexample
        if report.ok or ce is None or ce.kind != "coverage":
            return "want a coverage counterexample"
        count = sum(1 for b in cut.blocks if lib.covers(b, ce.word, cut.alphabet))
        if count != ce.count or count == 1:
            return f"word {ce.word.support} is covered {count} times, report says {ce.count}"
        return None

    def op_counts(self, result: PassResult, errors) -> tuple[int, int]:
        return len(self.cases) + 2 * len(self.checks), len(errors)


WORKLOADS = {w.name: w for w in (MsBuild, ClaimsVerify, Ms1Sweep)}
