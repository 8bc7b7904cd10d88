"""Spans and counters at the program's module boundaries, recorded from
outside the program.

``Tracer.install`` replaces each function named in ``SPANNED`` with a
wrapper, under every module name that refers to it (``cli.min_distance``,
``verify.min_distance`` and ``core.min_distance`` are one function), so calls
between layers and calls inside one layer both become spans.  Each span
records its name, start, end, parent and the benchmark operation it belongs
to; counters are computed from the arguments and results at the same
boundary.  Spans stay in memory until the run ends.  ``uninstall`` puts the
original functions back.

Per-pair primitives (``hamming_distance``, ``covers``) get no span: they run
once per block pair and a span would cost more than the work it measures.
``enumerate_t_words`` is a generator, so it is counted (words yielded) but
not timed.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("fields", "oa", "core", "constructions", "verify", "formats", "cli")

SPANNED = {
    "fields": ("field_create",),
    "oa": ("oa_square", "oa_extended", "oa_sum", "mols_complete", "verify_oa"),
    "core": ("min_distance",),
    "constructions": (
        "ms1_feasible", "ms1_construct", "construct_from_oa", "validate_cover",
        "base_system", "combine_partition", "resolvable_affine", "expand_design",
        "construct_hybrid_ms", "largeset_to_gdd", "gdd_to_largeset",
    ),
    "verify": (
        "verify_gdd", "verify_mixed_steiner", "verify_steiner",
        "verify_resolution", "verify_large_set",
    ),
    "formats": (
        "design_to_json", "design_from_json", "largeset_to_json",
        "largeset_from_json", "report_to_json", "oa_to_text", "oa_from_text",
    ),
    "cli": ("main",),
}

# per-layer metric -> unit, in the order they are reported
PER_LAYER = {
    "core.min_distance_s": "s",
    "core.min_distance_calls": "count",
    "core.block_pairs": "count",
    "core.words_walked": "count",
    "verify.verify_mixed_steiner_s": "s",
    "verify.verify_mixed_steiner_self_s": "s",
    "verify.verify_gdd_s": "s",
    "verify.verify_steiner_s": "s",
    "verify.verify_resolution_s": "s",
    "verify.verify_large_set_s": "s",
    "verify.words": "count",
    "verify.subwords": "count",
    "verify.reject_walk_ratio": "share",
    "constructions.expand_design_s": "s",
    "constructions.expand_design_self_s": "s",
    "constructions.combine_partition_s": "s",
    "constructions.validate_cover_s": "s",
    "constructions.resolvable_affine_s": "s",
    "constructions.construct_from_oa_s": "s",
    "constructions.blocks_out": "count",
    "constructions.largeset_fold_s": "s",
    "constructions.largeset_slice_s": "s",
    "constructions.ms1_feasible_s": "s",
    "constructions.ms1_construct_s": "s",
    "constructions.ms1_success_ratio": "share",
    "formats.design_from_json_s": "s",
    "formats.largeset_json_s": "s",
    "formats.oa_text_s": "s",
    "formats.bytes_in": "bytes",
    "formats.design_to_json_s": "s",
    "formats.report_to_json_s": "s",
    "formats.bytes_out": "bytes",
    "oa.build_s": "s",
    "oa.verify_oa_s": "s",
    "oa.tuples_checked": "count",
    "fields.field_create_s": "s",
    "fields.field_create_calls": "count",
    "cli.main_s": "s",
    "cli.main_self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_share": "share",
    "trace.unattributed_share": "share",
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "child", "walked", "counters")

    def __init__(self, id, name, parent, op):
        self.id, self.name, self.parent, self.op = id, name, parent, op
        self.child = 0.0  # time covered by child spans (they never overlap)
        self.walked = 0
        self.counters = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _blocks_of(result) -> int:
    if isinstance(result, tuple) and result:
        result = result[0]
    if hasattr(result, "blocks"):
        return len(result.blocks)
    if hasattr(result, "copies"):
        return sum(len(c) for c in result.copies)
    return 0


def _count_verify(span, args, result):
    if result is None:
        return
    span.counters["ok"] = int(result.ok)
    if "words" in result.stats:
        span.counters["words"] = result.stats["words"]
        if span.name != "verify.verify_large_set":
            design = args[0]
            span.counters["subwords"] = len(design.blocks) * math.comb(design.k, design.t)


def _count(span, args, result, exc):
    name = span.name
    if name == "core.min_distance":
        b = len(args[0].blocks)
        span.counters["block_pairs"] = b * (b - 1) // 2
    elif name.startswith("verify."):
        _count_verify(span, args, result)
    elif name == "oa.verify_oa":
        array, t = args[0], args[1]
        span.counters["tuples"] = math.comb(array.columns, t) * len(array.rows)
    elif name == "constructions.ms1_construct":
        if exc is None or type(exc).__name__ == "ConstructionFailed":
            span.counters["attempt"] = 1
            span.counters["built"] = int(exc is None)
    elif name.startswith("formats.") and name.endswith(("_from_json", "_from_text")):
        span.counters["bytes_in"] = len(args[0])
    elif name.startswith("formats.") and result is not None:
        span.counters["bytes_out"] = len(result)
    if name.startswith("constructions.") and result is not None:
        span.counters["blocks"] = _blocks_of(result)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = None
        self.words_walked = 0
        self._patches = []

    def install(self, package) -> None:
        modules = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in LAYERS]
        for layer, names in SPANNED.items():
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                self._replace(modules, fn, self._spanned(f"{layer}.{name}", fn))
        core = sys.modules[f"{package.__name__}.core"]
        self._replace(modules, core.enumerate_t_words, self._counted(core.enumerate_t_words))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def reset(self) -> None:
        self.spans, self.stack, self.words_walked = [], [], 0

    def _replace(self, modules, fn, wrapper) -> None:
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is fn]:
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrapper)

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, self.stack[-1] if self.stack else None, self.op)
            self.spans.append(span)
            self.stack.append(span)
            walked = self.words_walked
            result = exc = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                span.walked = self.words_walked - walked
                if span.parent is not None:
                    span.parent.child += span.end - span.start
                _count(span, args, result, exc)

        return traced

    def _counted(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for word in fn(*args, **kwargs):
                self.words_walked += 1
                yield word

        return counted



def dump(spans, path) -> None:
    """Write spans as JSON lines: name, start, end, parent id, op id, counters."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({
                "name": s.name, "start": s.start, "end": s.end,
                "parent": None if s.parent is None else s.parent.id,
                "op_id": s.op, "counters": s.counters,
            }) + "\n")


def layer_metrics(spans, wall: float, overhead: float, words_walked: int) -> dict:
    """Per-layer metrics of one traced pass whose wall time was ``wall``;
    ``overhead`` is the traced time over the untraced time, less one."""
    incl: dict = defaultdict(float)
    own: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    sums: dict = defaultdict(int)
    reject_walked = reject_words = top = 0.0
    blocks_out = 0
    for s in spans:
        incl[s.name] += s.seconds
        own[s.name] += s.seconds - s.child
        calls[s.name] += 1
        for key, value in s.counters.items():
            sums[(s.name, key)] += value
        parent = s.parent.name if s.parent is not None else ""
        if s.parent is None:
            top += s.seconds
        if s.name.startswith("verify.") and not parent.startswith("verify."):
            if s.counters.get("ok") == 0 and "words" in s.counters:
                reject_walked += s.walked
                reject_words += s.counters["words"]
        if s.name.startswith("constructions.") and not parent.startswith("constructions."):
            blocks_out += s.counters.get("blocks", 0)

    def total(key):
        return sum(v for (name, k), v in sums.items() if k == key)

    def ratio(a, b):
        return a / b if b else 0.0

    verify_names = [f"verify.{n}" for n in SPANNED["verify"]]
    attempts = sums[("constructions.ms1_construct", "attempt")]
    return {
        "core.min_distance_s": incl["core.min_distance"],
        "core.min_distance_calls": calls["core.min_distance"],
        "core.block_pairs": sums[("core.min_distance", "block_pairs")],
        "core.words_walked": words_walked,
        "verify.verify_mixed_steiner_s": incl["verify.verify_mixed_steiner"],
        "verify.verify_mixed_steiner_self_s": own["verify.verify_mixed_steiner"],
        "verify.verify_gdd_s": incl["verify.verify_gdd"],
        "verify.verify_steiner_s": incl["verify.verify_steiner"],
        "verify.verify_resolution_s": incl["verify.verify_resolution"],
        "verify.verify_large_set_s": incl["verify.verify_large_set"],
        "verify.words": sum(sums[(n, "words")] for n in verify_names),
        "verify.subwords": total("subwords"),
        "verify.reject_walk_ratio": ratio(reject_walked, reject_words),
        "constructions.expand_design_s": incl["constructions.expand_design"],
        "constructions.expand_design_self_s": own["constructions.expand_design"],
        "constructions.combine_partition_s": incl["constructions.combine_partition"],
        "constructions.validate_cover_s": incl["constructions.validate_cover"],
        "constructions.resolvable_affine_s": incl["constructions.resolvable_affine"],
        "constructions.construct_from_oa_s": incl["constructions.construct_from_oa"],
        "constructions.blocks_out": blocks_out,
        "constructions.largeset_fold_s": incl["constructions.largeset_to_gdd"],
        "constructions.largeset_slice_s": incl["constructions.gdd_to_largeset"],
        "constructions.ms1_feasible_s": incl["constructions.ms1_feasible"],
        "constructions.ms1_construct_s": incl["constructions.ms1_construct"],
        "constructions.ms1_success_ratio": ratio(
            sums[("constructions.ms1_construct", "built")], attempts
        ),
        "formats.design_from_json_s": incl["formats.design_from_json"],
        "formats.largeset_json_s": incl["formats.largeset_from_json"] + incl["formats.largeset_to_json"],
        "formats.oa_text_s": incl["formats.oa_from_text"] + incl["formats.oa_to_text"],
        "formats.bytes_in": total("bytes_in"),
        "formats.design_to_json_s": incl["formats.design_to_json"],
        "formats.report_to_json_s": incl["formats.report_to_json"],
        "formats.bytes_out": total("bytes_out"),
        "oa.build_s": sum(incl[f"oa.{n}"] for n in ("oa_square", "oa_extended", "oa_sum", "mols_complete")),
        "oa.verify_oa_s": incl["oa.verify_oa"],
        "oa.tuples_checked": sums[("oa.verify_oa", "tuples")],
        "fields.field_create_s": incl["fields.field_create"],
        "fields.field_create_calls": calls["fields.field_create"],
        "cli.main_s": incl["cli.main"],
        "cli.main_self_s": own["cli.main"],
        "trace.wall_s": wall,
        "trace.overhead_share": overhead,
        "trace.unattributed_share": ratio(wall - top, wall),
    }
