"""Self-test of the benchmark: ``python3 bench/selftest.py``.

A tiny ladder runs through the same set-up, pass, gate and metric code as
the real workloads and must emit every end-to-end and per-layer metric with
its unit; the gate must trip on an altered digest and on faked
counterexamples; the word order must match the program's enumeration.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class TinyBuild(workloads.MsBuild):
    """Three small builds and their ms verifies; one of them rejects."""

    name = "tiny-build"

    def setup(self, seed, work, lib):
        self.ops = self.build_ops(work, [(3, 1)], [(4, 3), (5, 2)])
        if not self.digests:
            for op in self.ops:
                rc, out, err = workloads.run_cli(lib.cli.main, op.argv)
                text = op.output.read_text() if op.output else None
                self.digests[op.key] = {"rc": rc, "sha256": gate.digest(rc, out, err, text)}

    def __init__(self):
        super().__init__()
        self.digests = {}


class TinySweep(workloads.Ms1Sweep):
    name = "tiny-sweep"

    def setup(self, seed, work, lib):
        base = [case for case in workloads.criterion5_grid() if len(case[0]) <= 4][:120]
        self.base_len = len(base)
        self.cases = base + gen.new_rng(seed, self.name).sample(
            [c for c in workloads.wider_grid()[:400] if c not in set(base)], 30
        )
        self.first = None
        self.checks = []


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        self.work = Path(tempfile.mkdtemp(prefix=".bench_selftest_", dir=HERE.parent))
        workloads.WORKLOADS.update({"tiny-build": TinyBuild, "tiny-sweep": TinySweep})

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_tiny_ladder_emits_every_metric(self):
        for name in ("tiny-build", "tiny-sweep"):
            for traced, want in ((False, run.END_TO_END), (True, spans.PER_LAYER)):
                result = run.measure(name, 3, 0.2, traced, self.work)
                self.assertTrue(result["correct"], (name, traced))
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), list(want))
                for metric, unit in want.items():
                    self.assertEqual(result["metrics"][metric]["unit"], unit)
                    self.assertIsInstance(result["metrics"][metric]["value"], (int, float))
                json.dumps(result)

    def test_gate_trips_on_an_altered_digest(self):
        _, lib, workload = run.set_up(TinyBuild, 0, self.work)
        self.assertEqual(workload.check(lib, workload.run_pass(lib)), [])
        key = workload.ops[0].key
        workload.digests[key] = dict(workload.digests[key], sha256="0" * 64)
        workload.first = []
        errors = workload.check(lib, workload.run_pass(lib))
        self.assertEqual(len(errors), 1)
        self.assertIn("digest", errors[0])

    def test_gate_trips_on_faked_counterexamples(self):
        lib = run.fresh_import()
        sizes, t = [2] * 449, 2
        blocks, first, count = gen.corrupt_blocks(sizes, t, gen.steiner_449(), gen.new_rng(0, "s"), "delete")
        true = {"ok": False, "counterexample": {"kind": "coverage", "word": first, "count": count}}
        self.assertIsNone(gate.recheck_coverage(lib, json.dumps(true), sizes, blocks, (first, count)))
        for fake in ({"count": 2}, {"word": [[0, 1], [1, 1]], "count": 0}):
            report = json.dumps({**true, "counterexample": {**true["counterexample"], **fake}})
            self.assertIsNotNone(gate.recheck_coverage(lib, report, sizes, blocks, (first, count)))
        self.assertIsNotNone(gate.recheck_coverage(lib, json.dumps({"ok": True}), sizes, blocks))

        u, v = [[0, 1], [1, 1], [2, 1]], [[0, 1], [1, 1], [3, 1]]
        report = {"ok": False, "stats": {"required_distance": 5},
                  "counterexample": {"kind": "distance", "pair": [u, v], "distance": 2}}
        self.assertIsNone(gate.recheck_distance(lib, json.dumps(report), [2] * 4, [u, v]))
        report["counterexample"]["distance"] = 1
        self.assertIsNotNone(gate.recheck_distance(lib, json.dumps(report), [2] * 4, [u, v]))

        copies = gen.sum_large_set(4, 2)
        bad, first, count = gen.corrupt_large_set([5] * 3, copies, gen.new_rng(0, "l"), "duplicate")
        report = {"ok": False, "counterexample": {"kind": "multiplicity", "word": first, "count": count}}
        self.assertIsNone(gate.recheck_multiplicity(json.dumps(report), bad, (first, count)))
        report["counterexample"]["count"] = 0
        self.assertIsNotNone(gate.recheck_multiplicity(json.dumps(report), bad, (first, count)))

        blocks, classes = gen.affine_32()
        report = {"ok": False, "counterexample": {"kind": "parallel", "coordinate": 0, "class_index": 0, "count": 2}}
        self.assertIsNotNone(gate.recheck_parallel(json.dumps(report), blocks, classes))

        _, rows = gen.oa_extended_text()
        report = {"ok": False, "strength": 2, "columns": [0, 1], "symbols": [0, 0], "count": 0}
        self.assertIsNotNone(gate.recheck_oa(json.dumps(report), rows))

    def test_ms1_design_check(self):
        lib = run.fresh_import()
        design = lib.ms1_construct((2, 2, 2, 2), 2)
        self.assertIsNone(gate.check_ms1_design((2, 2, 2, 2), 2, design))
        w = lib.Codeword
        twice = lib.MixedDesign(lib.MixedAlphabet((3, 3)), 1, 2, (w(((0, 1), (1, 1))), w(((0, 2), (1, 2)))))
        self.assertIsNotNone(gate.check_ms1_design((3, 3), 2, twice))
        self.assertTrue(gate.ms1_arith_feasible((2, 2, 3), 2))
        self.assertFalse(gate.ms1_arith_feasible((2, 5), 2))

    def test_word_order_matches_the_program(self):
        lib = run.fresh_import()
        for sizes in ((2, 3, 2, 4, 3), (11, 11, 11, 11)):
            alphabet = lib.MixedAlphabet(sizes)
            for t in range(1, len(sizes) + 1):
                order = gen.WordOrder(sizes, t)
                words = [w.support for w in lib.enumerate_t_words(alphabet, t)]
                self.assertEqual([order.rank(w) for w in words], list(range(len(words))))
                self.assertEqual(order.total, len(words))

    def test_generated_designs_pass_the_program(self):
        lib = run.fresh_import()
        design = lib.design_from_json(gen.design_json([2] * 449, 2, 8, gen.steiner_449()))[0]
        self.assertTrue(lib.verify_steiner(design, 2, 8, 449).ok)
        sizes, blocks = gen.oa_gdd(16, 5)
        self.assertTrue(lib.verify_gdd(lib.design_from_json(gen.design_json(sizes, 2, 16, blocks))[0]).ok)
        copies = gen.sum_large_set()
        self.assertTrue(lib.verify_large_set(lib.largeset_from_json(gen.largeset_json([11] * 4, 3, 4, copies))).ok)


if __name__ == "__main__":
    unittest.main()
