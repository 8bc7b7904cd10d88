"""Exhaustive, certificate-producing verifiers.

Verifiers never trust where an object came from: they re-derive every claimed
property from the raw blocks.  A fail report always carries a counterexample
that can be re-checked independently (a word with its true cover count, a
block pair with its distance, or a coordinate/class pair for resolutions).
The word enumeration is guarded by a ceiling (default 10**8 words,
overridable per call or via DESIGN_FORGE_MAX_WORDS); the mixed Steiner
distance pass is guarded by the same ceiling on block pairs.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from .core import (
    Codeword,
    LargeSet,
    MixedDesign,
    Resolution,
    enumerate_t_words,
    gdd_type_of,
    min_distance,
    word_count,
)
from .errors import (
    NonBinaryAlphabet,
    NotAPartition,
    VerificationLimitExceeded,
)

DEFAULT_MAX_WORDS = 10**8


def _word_ceiling(max_words: int | None) -> int:
    if max_words is not None:
        return max_words
    env = os.environ.get("DESIGN_FORGE_MAX_WORDS")
    if not env:
        return DEFAULT_MAX_WORDS
    if not env.strip().isdecimal():
        raise ValueError(
            f"DESIGN_FORGE_MAX_WORDS must be a nonnegative int, got {env!r}"
        )
    return int(env)


@dataclass(frozen=True)
class Counterexample:
    kind: str
    detail: str
    word: Codeword | None = None
    count: int | None = None
    pair: tuple[Codeword, Codeword] | None = None
    distance: int | None = None
    coordinate: int | None = None
    class_index: int | None = None


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    claim: str
    counterexample: Counterexample | None = None
    stats: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class BoundCheck:
    """Necessary condition for MS(t, t+1, Z_{g+1}^n x Z_{m+1}):
    n >= max(m + t - 1, g + t - 1)."""

    feasible: bool
    t: int
    g: int
    m: int
    n: int
    hole_bound: int
    group_bound: int

    @property
    def required(self) -> int:
        return max(self.hole_bound, self.group_bound)


def _coverage_counterexample(design: MixedDesign, ceiling: int) -> tuple[
    Counterexample | None, int
]:
    """Exactly-once coverage of every weight-t word by the blocks.

    Counts each block's weight-t subwords (output-insensitive: O(blocks *
    C(k, t)) plus a closed-form total), and only walks the full enumeration
    to locate the first violating word when the check fails.
    """
    total = word_count(design.alphabet, design.t)
    if total > ceiling:
        raise VerificationLimitExceeded(
            f"{total} weight-{design.t} words exceed the ceiling {ceiling}"
        )
    counts: Counter = Counter()
    for b in design.blocks:
        for sub in combinations(b.support, design.t):
            counts[sub] += 1
    if len(counts) == total and all(v == 1 for v in counts.values()):
        return None, total
    for w in enumerate_t_words(design.alphabet, design.t):
        c = counts.get(w.support, 0)
        if c != 1:
            return (
                Counterexample(
                    kind="coverage",
                    detail=f"word {w.support} covered {c} times, want exactly 1",
                    word=w,
                    count=c,
                ),
                total,
            )
    raise AssertionError("coverage mismatch without a violating word")


def verify_gdd(design: MixedDesign, max_words: int | None = None) -> VerificationReport:
    """Group divisible design check: every weight-t word (one point from each
    of t distinct groups) lies in exactly one block."""
    bad, total = _coverage_counterexample(design, _word_ceiling(max_words))
    stats = {
        "blocks": len(design.blocks),
        "words": total,
        "t": design.t,
        "k": design.k,
        "gdd_type": str(gdd_type_of(design)),
    }
    return VerificationReport(bad is None, "gdd", bad, stats)


def verify_mixed_steiner(design: MixedDesign, max_words: int | None = None) -> VerificationReport:
    """Mixed Steiner check: the GDD coverage clause plus minimum distance
    >= 2(k - t) + 1.  The distance pass compares every block pair, so it
    raises VerificationLimitExceeded when the pairs exceed the ceiling."""
    required = 2 * (design.k - design.t) + 1
    ceiling = _word_ceiling(max_words)
    bad, total = _coverage_counterexample(design, ceiling)
    stats = {
        "blocks": len(design.blocks),
        "words": total,
        "t": design.t,
        "k": design.k,
        "required_distance": required,
    }
    if bad is not None:
        return VerificationReport(False, "mixed-steiner", bad, stats)
    pairs = len(design.blocks) * (len(design.blocks) - 1) // 2
    if pairs > ceiling:
        raise VerificationLimitExceeded(
            f"{pairs} block pairs exceed the ceiling {ceiling}"
        )
    dist = min_distance(design)
    stats["min_distance"] = dist.value
    if dist.value < required:
        bad = Counterexample(
            kind="distance",
            detail=f"blocks at distance {dist.value}, want >= {required}",
            pair=dist.witness,
            distance=int(dist.value),
        )
        return VerificationReport(False, "mixed-steiner", bad, stats)
    return VerificationReport(True, "mixed-steiner", None, stats)


def verify_steiner(
    design: MixedDesign, t: int, k: int, n: int, max_words: int | None = None
) -> VerificationReport:
    """Steiner system S(t, k, n) check over a binary alphabet: every t-subset
    of the n points in exactly one block.  Also reports whether the block
    count equals C(n, t) / C(k, t)."""
    if any(s != 2 for s in design.alphabet.sizes):
        raise NonBinaryAlphabet(
            f"steiner check needs an all-binary alphabet, got sizes {design.alphabet.sizes}"
        )
    stats = {"blocks": len(design.blocks), "t": t, "k": k, "n": n}
    shape = []
    if design.t != t:
        shape.append(f"design t={design.t} != {t}")
    if design.k != k:
        shape.append(f"design k={design.k} != {k}")
    if design.alphabet.n != n:
        shape.append(f"design has {design.alphabet.n} points, not {n}")
    if shape:
        bad = Counterexample(kind="shape", detail="; ".join(shape))
        return VerificationReport(False, "steiner", bad, stats)
    expected = math.comb(n, t) // math.comb(k, t)
    stats["expected_blocks"] = expected
    stats["block_count_matches"] = len(design.blocks) == expected
    bad, total = _coverage_counterexample(design, _word_ceiling(max_words))
    stats["words"] = total
    return VerificationReport(bad is None, "steiner", bad, stats)


def verify_resolution(design: MixedDesign, resolution: Resolution) -> VerificationReport:
    """Resolution check: classes partition the block indices (NotAPartition
    otherwise) and every class touches every coordinate exactly once."""
    indices = [i for cls in resolution.classes for i in cls]
    if sorted(indices) != list(range(len(design.blocks))):
        raise NotAPartition(
            f"classes list {len(indices)} indices over {len(design.blocks)} blocks"
        )
    stats = {
        "blocks": len(design.blocks),
        "classes": len(resolution.classes),
        "points": design.alphabet.n,
    }
    if all(s == 2 for s in design.alphabet.sizes) and design.t == 2 and design.k > 1:
        expected = (design.alphabet.n - 1) // (design.k - 1)
        stats["expected_classes"] = expected
        stats["class_count_matches"] = len(resolution.classes) == expected
    for ci, cls in enumerate(resolution.classes):
        seen: Counter = Counter()
        for i in cls:
            for c, _ in design.blocks[i].support:
                seen[c] += 1
        for c in range(design.alphabet.n):
            if seen[c] != 1:
                bad = Counterexample(
                    kind="parallel",
                    detail=f"coordinate {c} appears {seen[c]} times in class {ci}",
                    count=seen[c],
                    coordinate=c,
                    class_index=ci,
                )
                return VerificationReport(False, "resolution", bad, stats)
    return VerificationReport(True, "resolution", None, stats)


def verify_large_set(ls: LargeSet, max_words: int | None = None) -> VerificationReport:
    """Large-set check: every weight-k word over the alphabet is a block of
    exactly lam copies, and each copy separately passes the GDD check at
    strength t."""
    total = word_count(ls.alphabet, ls.k)
    ceiling = _word_ceiling(max_words)
    if total > ceiling:
        raise VerificationLimitExceeded(
            f"{total} weight-{ls.k} words exceed the ceiling {ceiling}"
        )
    stats = {
        "copies": len(ls.copies),
        "lambda": ls.lam,
        "words": total,
        "t": ls.t,
        "k": ls.k,
    }
    membership: Counter = Counter()
    for copy in ls.copies:
        for b in set(copy):
            membership[b.support] += 1
    bad = None
    if len(membership) != total or any(v != ls.lam for v in membership.values()):
        for w in enumerate_t_words(ls.alphabet, ls.k):
            c = membership.get(w.support, 0)
            if c != ls.lam:
                bad = Counterexample(
                    kind="multiplicity",
                    detail=f"word {w.support} is a block of {c} copies, want {ls.lam}",
                    word=w,
                    count=c,
                )
                break
    if bad is not None:
        return VerificationReport(False, "large-set", bad, stats)
    for ci, copy in enumerate(ls.copies):
        rep = verify_gdd(
            MixedDesign(ls.alphabet, ls.t, ls.k, copy), max_words=max_words
        )
        if not rep.ok:
            bad = Counterexample(
                kind="copy",
                detail=f"copy {ci} fails the GDD check: {rep.counterexample.detail}",
                word=rep.counterexample.word,
                count=rep.counterexample.count,
                class_index=ci,
            )
            return VerificationReport(False, "large-set", bad, stats)
    return VerificationReport(True, "large-set", None, stats)


def ms_bound_check(t: int, g: int, m: int, n: int) -> BoundCheck:
    """Necessary bound for MS(t, t+1, Z_{g+1}^n x Z_{m+1}) (block size t+1
    only): n >= max(m + t - 1, g + t - 1)."""
    if t < 2:
        raise ValueError("bound applies for t >= 2")
    if min(g, m, n) < 1:
        raise ValueError("g, m, n must be >= 1")
    hole_bound = m + t - 1
    group_bound = g + t - 1
    return BoundCheck(n >= max(hole_bound, group_bound), t, g, m, n, hole_bound, group_bound)
