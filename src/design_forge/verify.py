"""Exhaustive, certificate-producing verifiers.

Verifiers never trust where an object came from: they re-derive every claimed
property from the raw blocks.  A fail report always carries a counterexample
that can be re-checked independently (a word with its true cover count, a
block pair with its distance, or a coordinate/class pair for resolutions).
The word enumeration is guarded by a ceiling (default 10**8 words,
overridable per call or via DESIGN_FORGE_MAX_WORDS); weight-2 coverage is
packed in one bit per word plus one int per (coordinate, symbol) entry, or
in one byte per word on an alphabet too wide for bitmasks, so that ceiling
also bounds its memory, and one rule reads the first violator from either
packing.  The mixed Steiner distance pass, run only where
counting cannot settle the distance, is guarded by the same ceiling on
block pairs.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, combinations
from operator import attrgetter

from .core import (
    Codeword,
    LargeSet,
    MixedAlphabet,
    MixedDesign,
    Resolution,
    first_miscount,
    gdd_type_of,
    min_distance,
    word_count,
    word_supports,
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


def _within_ceiling(amount: int, what: str, ceiling: int) -> int:
    if amount > ceiling:
        raise VerificationLimitExceeded(f"{amount} {what} exceed the ceiling {ceiling}")
    return amount


@dataclass(frozen=True, slots=True)
class Counterexample:
    kind: str
    detail: str
    word: Codeword | None = None
    count: int | None = None
    pair: tuple[Codeword, Codeword] | None = None
    distance: int | None = None
    coordinate: int | None = None
    class_index: int | None = None
    columns: tuple[int, ...] | None = None
    symbols: tuple[int, ...] | None = None


@dataclass(frozen=True, slots=True)
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


def _coverage_counterexample(alphabet: MixedAlphabet, t: int, blocks, ceiling: int) -> tuple[
    Counterexample | None, int
]:
    """Exactly-once coverage of every weight-t word over the alphabet by the
    blocks, counted over the blocks' weight-t subwords (O(blocks * C(k, t)))
    against the closed-form total, by _pair_miscount at t = 2 and by
    core.first_miscount otherwise; only the violator becomes a Codeword."""
    total = _within_ceiling(word_count(alphabet, t), f"weight-{t} words", ceiling)
    if t == 2:
        bad = _pair_miscount(alphabet, blocks, total)
    else:
        subwords = [w for b in blocks for w in combinations(b.support, t)]
        bad = first_miscount(subwords, total, lambda: word_supports(alphabet, t))
    if bad is None:
        return None, total
    support, c = bad
    return (
        Counterexample(
            kind="coverage",
            detail=f"word {support} covered {c} times, want exactly 1",
            word=Codeword(support),
            count=c,
        ),
        total,
    )


# masks while the entries are at most this many times k - 1, bytes above
_MASK_ENTRIES_PER_K = 4096


def _pair_miscount(alphabet: MixedAlphabet, blocks, total: int):
    """first_miscount of the blocks' weight-2 subwords against the `total`
    weight-2 words, without a walk.

    The entries (c, s) are numbered 0..P-1 in order: entry (c, s) is
    off[c] + s, and coordinate c's entries end at cut[c].  The words are
    packed by _pair_masks, k big-int ORs per block, or by _pair_bytes,
    C(k, 2) byte increments per block.  An OR costs time in proportion to
    its width, up to P bits, so masks serve while P <= 4096 (k - 1) and
    bytes above, where an alphabet with one wide coordinate would make
    masks quadratic.

    Either packing returns None on accept, else a reader (bad, count):
    bad(x, end) is the least entry y >= end whose word with entry x is not
    covered exactly once, or -1, and count(x, y) is that word's count, or
    None where the packing cannot hold it.  The violator is read in the
    contract's (c1, c2, s1, s2) order: the least c1 with a bad entry, then
    over its entries, in s1 order, each entry's least bad y, keeping the
    least c2 (a tie keeps the lower s1).  A count the packing cannot hold
    is recounted over the blocks."""
    sizes = alphabet.sizes
    cut = list(accumulate(q - 1 for q in sizes))
    off = [e - q for e, q in zip(cut, sizes)]
    k = len(blocks[0].support) if blocks else 0
    pack = _pair_masks if cut[-1] <= _MASK_ENTRIES_PER_K * (k - 1) else _pair_bytes
    reader = pack(sizes, cut, off, blocks, total)
    if reader is None:
        return None
    bad, count = reader
    for c1, end in enumerate(cut):
        hits = [(x, y) for x in range(off[c1] + 1, end) if (y := bad(x, end)) >= 0]
        if hits:
            break
    x, y = min(hits, key=lambda hit: (bisect_right(cut, hit[1]), hit[0]))
    c2 = bisect_right(cut, y)
    u, v = (c1, x - off[c1]), (c2, y - off[c2])
    n = count(x, y)
    if n is None:
        n = sum(u in b.support and v in b.support for b in blocks)
    return (u, v), n


def _pair_masks(sizes, cut, off, blocks, total: int):
    """_pair_miscount's packing by one bitmask per entry, for blocks of one
    weight k >= 2.

    Entry y is bit P-1-y, so the entries of the coordinates after c are the
    low P - cut[c] bits.  A block's support is walked once in reverse: each
    entry x ORs the bits already passed into seen[x], then adds its own.
    seen[x] holds only words of x, so its set bits count distinct covered
    words; the B blocks accept when that count, their own pair count
    B*C(k, 2) and `total` agree.  Equal counts with fewer than `total`
    words leave no word covered twice.  Otherwise a second pass also keeps
    twice[x] |= seen[x] & passed, and a word met twice has no count here."""
    p = cut[-1]
    top = [p - 1 - o for o in off]  # entry (c, s) is bit top[c] - s
    seen = [0] * p
    for b in blocks:
        # the last entry has no bits to take, and the first none to give
        support = b.support
        c, s = support[-1]
        passed = 1 << (top[c] - s)
        for c, s in support[-2:0:-1]:
            seen[off[c] + s] |= passed
            passed |= 1 << (top[c] - s)
        c, s = support[0]
        seen[off[c] + s] |= passed
    pairs = len(blocks) * math.comb(len(blocks[0].support), 2)
    covered = sum(map(int.bit_count, seen))
    if covered == pairs == total:
        return None
    twice = [0] * p
    if covered != pairs:
        seen = [0] * p
        for b in blocks:
            passed = 0
            for c, s in reversed(b.support):
                x = off[c] + s
                m = seen[x]
                twice[x] |= m & passed
                seen[x] = m | passed
                passed |= 1 << (top[c] - s)

    # the reader takes its tables as defaults, not as closure cells, which
    # would slow every read of them in the loops above
    def bad(x, end, p=p, seen=seen, twice=twice):
        m = (((1 << (p - end)) - 1) ^ seen[x]) | twice[x]
        return p - m.bit_length() if m else -1

    def count(x, y, p=p, twice=twice):
        return None if twice[x] >> (p - 1 - y) & 1 else 0

    return bad, count


# a slot's byte -> 0 when its word is covered exactly once, else 1
_MISCOUNT = bytes([1, 0] + [1] * 254)


def _pair_bytes(sizes, cut, off, blocks, total: int):
    """_pair_miscount's packing in one byte per word.

    Entry x owns a row of one slot per entry y of a later coordinate, slot
    row[x] + y, so there are exactly `total` slots, in (c1, s1, c2, s2)
    order.  A byte stays at 255 once there, and such a word has no count
    here."""
    p = cut[-1]
    widths = (p - e for e, q in zip(cut, sizes) for _ in range(q - 1))
    row = [end - p for end in accumulate(widths)]
    buf = bytearray(total)
    for b in blocks:
        for x, y in combinations([off[c] + s for c, s in b.support], 2):
            try:
                buf[row[x] + y] += 1
            except ValueError:
                pass
    if buf.count(1) == total:
        return None
    miss = buf.translate(_MISCOUNT)

    # as in _pair_masks, the tables are defaults rather than closure cells
    def bad(x, end, p=p, row=row, miss=miss):
        f = miss.find(1, row[x] + end, row[x] + p)
        return f - row[x] if f >= 0 else -1

    def count(x, y, row=row, buf=buf):
        n = buf[row[x] + y]
        return None if n == 255 else n

    return bad, count


def _coverage_distance(design: MixedDesign) -> int | float | None:
    """The minimum distance of a design that passed the coverage check,
    settled by counting, or None when counting cannot settle it.

    Coverage puts every (coordinate, symbol) pair, and so every coordinate,
    in some block.  Two blocks that share at most one coordinate are at
    distance 2k - 2 when their symbols agree there, 2k - 1 when they differ
    and 2k when the blocks are disjoint.  So once no coordinate pair lies in
    two blocks, the B*k block entries decide the distance: more entries
    than the sum(q_i - 1) pairs puts some pair in two blocks (2k - 2), else
    more entries than the n coordinates puts some coordinate in two blocks
    (2k - 1), else the blocks are disjoint (2k).  B*C(k, 2) <= C(n, 2) is
    necessary for the coordinate pairs to be distinct, so it is checked
    before they are listed.  At t = 2 none are listed: coverage makes
    B*C(k, 2) the number of weight-2 words, sum_{i<j}(q_i - 1)(q_j - 1),
    which exceeds C(n, 2) once some q_i > 2.  So only an all-binary design
    gets here, and two of its blocks on the same two coordinates would both
    hold symbol 1 at each and cover that weight-2 word twice.

    Otherwise some coordinate pair lies in two blocks, and when t = 2 and at
    most one coordinate c has q_c > 2 the distance is 2k - 3.  Coverage lets
    two blocks share at most one entry, and so at most two coordinates, as
    every other one is binary.  Two blocks on one pair share c and a binary
    entry, with unequal symbols at c, else a word is covered twice."""
    b, k, n = len(design.blocks), design.k, design.alphabet.n
    if b < 2:
        return math.inf
    if b * (k * (k - 1) // 2) <= n * (n - 1) // 2:
        pairs = ()
        if design.t != 2:
            pairs = [(u[0], v[0]) for blk in design.blocks for u, v in combinations(blk.support, 2)]
        if len(set(pairs)) == len(pairs):
            entries = b * k
            return 2 * k - (entries > sum(design.alphabet.group_sizes)) - (entries > n)
    if design.t == 2 and sum(q > 2 for q in design.alphabet.sizes) <= 1:
        return 2 * k - 3
    return None


def verify_gdd(design: MixedDesign, max_words: int | None = None) -> VerificationReport:
    """Group divisible design check: every weight-t word (one point from each
    of t distinct groups) lies in exactly one block."""
    return _verify_design(design, None, _word_ceiling(max_words))


def verify_mixed_steiner(design: MixedDesign, max_words: int | None = None) -> VerificationReport:
    """Mixed Steiner check: the GDD coverage clause plus minimum distance
    >= 2(k - t) + 1.  The distance is settled by counting when no two
    blocks share two coordinates, or when t = 2 and at most one coordinate
    is nonbinary (see _coverage_distance); otherwise, or when that value
    falls short, core.min_distance's bit-sliced column sum
    counts every block pair and names the least witness pair, and
    VerificationLimitExceeded is raised first when the pairs exceed the
    ceiling."""
    return _verify_design(design, 2 * (design.k - design.t) + 1, _word_ceiling(max_words))


def _verify_design(design: MixedDesign, required: int | None, ceiling: int) -> VerificationReport:
    """Exact coverage of the weight-t words and, when `required` is given,
    minimum distance >= required, which runs only after coverage passed.
    The claim is "gdd" unless the distance clause of a mixed Steiner system
    (required >= 2(k - t) + 1) was checked.  Both public design checks and
    the constructors' check of their own output share this body."""
    bad, total = _coverage_counterexample(design.alphabet, design.t, design.blocks, ceiling)
    stats = {
        "blocks": len(design.blocks),
        "words": total,
        "t": design.t,
        "k": design.k,
    }
    if required is None:
        stats["gdd_type"] = str(gdd_type_of(design))
        return VerificationReport(bad is None, "gdd", bad, stats)
    claim = "mixed-steiner" if required >= 2 * (design.k - design.t) + 1 else "gdd"
    stats["required_distance"] = required
    if bad is not None:
        return VerificationReport(False, claim, bad, stats)
    value, witness = _coverage_distance(design), None
    if value is None or value < required:
        pairs = len(design.blocks) * (len(design.blocks) - 1) // 2
        _within_ceiling(pairs, "block pairs", ceiling)
        dist = min_distance(design)
        value, witness = dist.value, dist.witness
    stats["min_distance"] = value
    if value < required:
        bad = Counterexample(
            kind="distance",
            detail=f"blocks at distance {value}, want >= {required}",
            pair=witness,
            distance=int(value),
        )
        return VerificationReport(False, claim, bad, stats)
    return VerificationReport(True, claim, None, stats)


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
    bad, total = _coverage_counterexample(
        design.alphabet, design.t, design.blocks, _word_ceiling(max_words)
    )
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
        coords = [c for i in cls for c, _ in design.blocks[i].support]
        miss = first_miscount(coords, design.alphabet.n, lambda: range(design.alphabet.n))
        if miss is not None:
            c, count = miss
            bad = Counterexample(
                kind="parallel",
                detail=f"coordinate {c} appears {count} times in class {ci}",
                count=count,
                coordinate=c,
                class_index=ci,
            )
            return VerificationReport(False, "resolution", bad, stats)
    return VerificationReport(True, "resolution", None, stats)


def verify_large_set(ls: LargeSet, max_words: int | None = None) -> VerificationReport:
    """Large-set check: every weight-k word over the alphabet is a block of
    exactly lam copies, and each copy separately covers every weight-t word
    once (the GDD check at strength t; LargeSet already holds t to 1..k and
    k to the n coordinates)."""
    ceiling = _word_ceiling(max_words)
    total = _within_ceiling(word_count(ls.alphabet, ls.k), f"weight-{ls.k} words", ceiling)
    stats = {
        "copies": len(ls.copies),
        "lambda": ls.lam,
        "words": total,
        "t": ls.t,
        "k": ls.k,
    }
    # a copy's distinct blocks, found by hashing their support tuples in C
    # rather than each Codeword through its generated Python __hash__
    members = [s for copy in ls.copies for s in set(map(attrgetter("support"), copy))]
    miss = first_miscount(members, total, lambda: word_supports(ls.alphabet, ls.k), ls.lam)
    if miss is not None:
        support, c = miss
        bad = Counterexample(
            kind="multiplicity",
            detail=f"word {support} is a block of {c} copies, want {ls.lam}",
            word=Codeword(support),
            count=c,
        )
        return VerificationReport(False, "large-set", bad, stats)
    for ci, copy in enumerate(ls.copies):
        ce, _ = _coverage_counterexample(ls.alphabet, ls.t, copy, ceiling)
        if ce is not None:
            bad = Counterexample(
                kind="copy",
                detail=f"copy {ci} fails the GDD check: {ce.detail}",
                word=ce.word,
                count=ce.count,
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
