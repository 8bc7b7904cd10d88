"""Constructions of mixed Steiner systems and group divisible designs.

Conventions shared by every construction here:

* coordinates and symbols are 0-based (sources that state blocks with 1-based
  positions over symbols 1..k are shifted at the boundary; design meta
  records the shift);
* a product point (x, j) of X x Z_{k-1} flattens to x*(k-1) + j;
* outputs are deterministic: fixed row orders, fixed class orders, stable
  tie-breaks.  Re-running any construction reproduces the same object.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import accumulate
from operator import getitem, mul

from .core import (
    Codeword,
    GddType,
    LargeSet,
    MixedAlphabet,
    MixedDesign,
    Resolution,
    _type_word_count,
    _valid_codewords,
)
from .errors import (
    ConstructionFailed,
    CopyCountMismatch,
    CoverInvariantViolated,
    Infeasible,
    LargeSetInvalid,
    NoSuchSystem,
    NotPrimePower,
    NotResolvable,
    ROutOfRange,
    TypeMismatch,
)
from .fields import prime_power
from .oa import oa_extended, oa_square
from .verify import (
    Counterexample,
    VerificationReport,
    _verify_design,
    _within_ceiling,
    _word_ceiling,
    verify_resolution,
    verify_steiner,
)


# --------------------------------------------------------------------------
# the output check shared by every builder
# --------------------------------------------------------------------------

def _checked(
    alphabet: MixedAlphabet, t: int, k: int, supports, meta: str,
    required: int | None = None, resolution: Resolution | None = None,
) -> MixedDesign:
    """The one place where a builder's design is made and checked.  The
    supports are wrapped without Codeword's check of each block
    (core._valid_codewords), so they must pass it as they stand: each
    builder says why its supports come out sorted.  The design is then checked in
    full: its fit to the alphabet, exact coverage of its weight-t words,
    minimum distance >= `required` when it is given, and, when a resolution
    is given, that it resolves the design.  The passing design report is
    attached as design.report; a failing report raises ConstructionFailed
    carrying it.  The word and block-pair ceiling of the verifiers applies
    (VerificationLimitExceeded)."""
    design = MixedDesign(alphabet, t, k, _valid_codewords(supports), meta=meta)
    report = _verify_design(design, required, _word_ceiling(None))
    if report.ok and resolution is not None:
        rep = verify_resolution(design, resolution)
        if not rep.ok:
            report = rep
    if not report.ok:
        raise ConstructionFailed(
            f"{design.meta}: output failed verification: {report.counterexample.detail}",
            report=report,
        )
    object.__setattr__(design, "report", report)
    return design


def _words_within_ceiling(pairs, t: int) -> int:
    """Hold the weight-t words of the alphabet of group type `pairs`, (g, m)
    for g^m, to the word ceiling before that alphabet is built."""
    return _within_ceiling(_type_word_count(pairs, t), f"weight-{t} words", _word_ceiling(None))


# --------------------------------------------------------------------------
# weight-1 systems: one fresh symbol at each of a block's k coordinates
# --------------------------------------------------------------------------

# Search nodes (blocks placed or candidates excluded) before ms1_construct
# gives up; every alphabet of the criterion-5 grid is settled in under 200.
MS1_SEARCH_NODES = 1000


@dataclass(frozen=True)
class Ms1Feasibility:
    feasible: bool
    difference: int
    residue: int


def ms1_feasible(sizes, k: int) -> Ms1Feasibility:
    """Necessary arithmetic for MS(1, k, Q): with q_1 <= ... <= q_n,
    sum_{i<n}(q_i - 1) - (q_n - 1)(k - 1) must be nonnegative and divisible
    by k.  Input order does not matter; it is sorted ascending here."""
    _, difference, residue = _ms1_arithmetic(sizes, k)
    return Ms1Feasibility(difference >= 0 and residue == 0, difference, residue)


def _ms1_arithmetic(sizes, k: int):
    """The sizes sorted ascending, with ms1_feasible's difference and its
    residue mod k: the one sort that both ms1_feasible and ms1_construct
    use.  k is checked before the sizes are read."""
    if k < 2:
        raise ValueError("k must be >= 2")
    q = sorted(sizes)
    if not q or q[0] < 2:
        raise ValueError(f"alphabet sizes must all be >= 2, got {tuple(sizes)}")
    difference = sum(q) - q[-1] - (len(q) - 1) - (q[-1] - 1) * (k - 1)
    return q, difference, difference % k


def ms1_construct(sizes, k: int) -> MixedDesign:
    """An MS(1, k, Q) whenever one exists, over the sizes sorted ascending.

    Such a system is a set of B = sum(q_i - 1)/k blocks, each a k-subset of
    the coordinates holding one fresh nonzero symbol at each, such that
    coordinate i lies in q_i - 1 blocks and two blocks share at most one
    coordinate (distance 2(k-1)+1).  The steps, in order:

    1. the arithmetic of ms1_feasible: Infeasible when it fails;
    2. three closed-form bounds (_ms1_bound): NoSuchSystem naming the bound
       and its witness when one fails;
    3. the sum(q_i - 1) weight-1 words, one per block entry, held to the
       word ceiling (VerificationLimitExceeded) before any route runs;
    4. the greedy: repeatedly emit a block holding one fresh nonzero symbol
       from each of the k currently largest alphabets (ties broken by
       (current size, coordinate index), taking the largest), then
       decrement.  Its blocks are kept when no two share two coordinates;
    5. otherwise, at k = 2, Havel-Hakimi (_ms1_graph), which step 2 makes
       sure succeeds; at k >= 3 an exact search (_ms1_search) of at most
       MS1_SEARCH_NODES nodes: a design, NoSuchSystem("exhaustive-search")
       when it proves that none exists, or plain ConstructionFailed when
       the budget runs out, which leaves the question open.

    The design is checked at distance 2k - 1 before it is returned."""
    q, difference, residue = _ms1_arithmetic(sizes, k)
    if difference < 0 or residue:
        why = f"difference {difference}"
        if difference >= 0:
            why += f", residue {residue}"
        raise Infeasible(f"infeasible: {why} (alphabet {tuple(q)}, k={k})")
    d = [s - 1 for s in q]
    refuted = _ms1_bound(d, k)
    if refuted is not None:
        raise _no_ms1(q, k, *refuted)
    _within_ceiling(sum(d), "weight-1 words", _word_ceiling(None))
    blocks, how = _ms1_greedy(d, k), "greedy"
    if blocks is None and k == 2:
        blocks, how = _ms1_graph(d), "havel-hakimi"
    elif blocks is None:
        blocks, how = _ms1_search(d, k), "search"
    # each route's block lists distinct coordinates in ascending order, and
    # a coordinate's symbols are counted from 1, so each support is sorted
    used = [0] * len(q)
    supports = []
    for block in blocks:
        support = []
        for i in block:
            used[i] += 1
            support.append((i, used[i]))
        supports.append(tuple(support))
    meta = f"ms1 k={k} {how} over sorted sizes"
    return _checked(MixedAlphabet(tuple(q)), 1, k, supports, meta, 2 * k - 1)


def _no_ms1(q, k: int, bound: str, witness, detail: str) -> NoSuchSystem:
    return NoSuchSystem(
        f"no MS(1, {k}, Q) exists for alphabet {tuple(q)}: {bound} bound fails: {detail}",
        VerificationReport(
            False, "mixed-steiner", Counterexample(kind=bound, detail=detail), {"t": 1, "k": k}
        ),
        bound,
        witness,
    )


def _ms1_bound(d, k: int):
    """The first of three necessary conditions that the group sizes
    d_i = q_i - 1 (ascending, sum divisible by k) fail, as (bound, witness,
    detail); None when all three hold.  B = sum(d)/k is the block count.

    * block-pairs: the pairs of blocks through one coordinate share it, so
      they differ across coordinates: sum C(d_i, 2) <= C(B, 2).
    * pair-degrees: the coordinate pairs inside blocks form a simple graph
      in which coordinate i has degree d_i(k-1), so that sequence must be
      graphic.  The witness is the least r at which the Erdos-Gallai
      inequality sum_{j<=r} a_j <= r(r-1) + sum_{j>r} min(a_j, r) fails,
      with a the sequence sorted descending.  r = 1 is the star bound
      d_max(k-1) <= n-1.
    * top-set: the s coordinates of largest d_i hold sum d_i incidences, and
      a block meeting them j times holds C(j, 2) of their C(s, 2) pairs, so
      sum d_i - C(s, 2) blocks at least meet them: at most B.  The witness
      is the least failing s."""
    n = len(d)
    b = sum(d) // k
    lhs = (sum(map(mul, d, d)) - k * b) // 2  # sum(d) = kB
    if lhs > b * (b - 1) // 2:
        return "block-pairs", None, (
            f"sum of C(q_i - 1, 2) = {lhs} > C(B, 2) = {b * (b - 1) // 2} with B = {b} blocks"
        )
    a = [x * (k - 1) for x in reversed(d)]
    suffix = [*accumulate(reversed(a), initial=0)][::-1]  # suffix[j] = sum(a[j:])
    above = n  # a[j] > r exactly for j < above
    for r in range(1, n + 1):
        if a[r - 1] < r:  # from here sum_{j<=r} a_j - rhs changes by 2(a_r - r + 1) <= 0
            break
        while above and a[above - 1] <= r:
            above -= 1
        rhs = r * (r - 1) + r * max(0, above - r) + suffix[max(above, r)]
        if suffix[0] - suffix[r] > rhs:
            return "pair-degrees", r, (
                f"pair degrees (q_i - 1)(k - 1) are not graphic: Erdos-Gallai fails "
                f"at r = {r} ({suffix[0] - suffix[r]} > {rhs})"
            )
    top = 0
    for s in range(1, n + 1):
        if d[n - s] < s:  # from here top - C(s, 2) changes by d[n - s] - (s - 1) <= 0
            break
        top += d[n - s]
        if top - s * (s - 1) // 2 > b:
            return "top-set", s, (
                f"the {s} largest groups meet at least {top - s * (s - 1) // 2} "
                f"blocks, more than B = {b}"
            )
    return None


def _ms1_greedy(d, k: int):
    """The greedy's blocks as sorted lists of coordinates, or None as soon
    as a block would share two coordinates with an earlier one."""
    adj = [0] * len(d)  # adj[i]: coordinates already in a block with i
    order = sorted(zip(d, range(len(d))))  # (symbols left, coordinate), ascending
    blocks = []
    for _ in range(sum(d) // k):
        top = order[-k:]
        if top[0][0] == 0:
            return None
        block = sorted([i for _, i in top])
        mask = 0
        for i in block:
            mask |= 1 << i
        for i in block:
            if adj[i] & mask:
                return None
            adj[i] |= mask ^ 1 << i
        order[-k:] = [(r - 1, i) for r, i in top]
        order.sort()
        blocks.append(block)
    return blocks


def _ms1_graph(d):
    """At k = 2 the blocks are the edges of a simple graph with degrees d,
    which Havel-Hakimi builds whenever the pair-degrees bound holds: join a
    coordinate with the most symbols left to the next ones in that order."""
    order = sorted(zip([-x for x in d], range(len(d))))  # (-symbols left, coordinate)
    edges = []
    while order and order[0][0]:
        r, v = order.pop(0)  # v has -r symbols left: join it to the next -r
        order[:-r] = [(s + 1, u) for s, u in order[:-r]]
        edges += [(u, v) if u < v else (v, u) for _, u in order[:-r]]
        order.sort()
    return sorted(edges)


def _ms1_search(d, k: int):
    """Blocks of an MS(1, k, Q) with group sizes d, as sorted coordinate
    tuples; NoSuchSystem when none exists, ConstructionFailed past
    MS1_SEARCH_NODES nodes.

    Depth first, one coordinate at a time: take the coordinate v with the
    least slack (candidates left minus those it still needs), then branch on
    its candidate c0 with the most symbols left: either the next block of v
    holds c0 (and k-2 more candidates, pairwise new), or c0 is never in a
    block with v.  Two candidates with the same symbols left and the same
    block neighbours are interchangeable: a block takes a prefix of each
    such class, and excluding c0 excludes its whole class.  A new
    coordinate is taken only when the residual degrees still pass the
    block-pairs and top-set bounds (counting only pairs not yet used).
    Each node() call is one counted decision: the recursion follows the path."""
    n = len(d)
    k1 = k - 1
    rem = list(d)  # symbols left per coordinate
    adj = [0] * n  # bitmask of coordinates already in a block with i
    bit = [1 << i for i in range(n)]
    alive = (1 << n) - 1  # coordinates with symbols left
    cover = range(n)
    down = range(n - 1, -1, -1)
    placed: list[tuple[int, ...]] = []
    nodes = 0

    def stuck() -> bool:
        order = sorted([(rem[u], u) for u in cover if rem[u]], reverse=True)
        total = pairs = 0
        for r, u in order:
            if (alive & ~adj[u]).bit_count() <= r * k1:
                return True
            total += r
            pairs += r * (r - 1)
        b = total // k
        if pairs > b * (b - 1):
            return True
        seen = top = free = 0
        for r, u in order:
            free += (seen & ~adj[u]).bit_count()
            seen |= bit[u]
            top += r
            if top - free > b:
                return True
        return False

    def options(v, allowed):
        c0 = best = 0
        for u in down:
            if allowed >> u & 1 and rem[u] > best:
                c0, best = u, rem[u]
        free = allowed & ~bit[c0] & ~adj[c0]
        members = [u for u in down if free >> u & 1]
        members.sort(key=rem.__getitem__, reverse=True)
        last = {}
        previous = {}
        for u in members:
            key = (rem[u], adj[u])
            previous[u] = last.get(key)
            last[key] = u
        found = []

        def extend(start, block, banned):
            if len(block) == k:
                found.append(block)
                return
            for j in range(start, len(members)):
                u = members[j]
                p = previous[u]
                if not banned >> u & 1 and (p is None or p in block):
                    extend(j + 1, block + (u,), banned | adj[u])

        extend(0, (v, c0), 0)
        return c0, found

    def fresh() -> bool:  # True, with the blocks in `placed`, once all are full
        if not alive:
            return True
        if stuck():
            return False
        v = min(  # least slack, then most symbols left, then lowest index
            (u for u in cover if rem[u]),
            key=lambda u: ((alive & ~adj[u]).bit_count() - rem[u] * k1, -rem[u]),
        )
        return node(v, alive & ~adj[v] & ~bit[v])

    def node(v, allowed) -> bool:  # each block that options() lists, then c0's exclusion
        nonlocal alive, nodes
        if allowed.bit_count() < rem[v] * k1:
            return False
        nodes += 1
        if nodes > MS1_SEARCH_NODES:
            raise ConstructionFailed(
                f"search budget of {MS1_SEARCH_NODES} nodes ran out (alphabet "
                f"{tuple(x + 1 for x in d)}, k={k}): existence is undecided"
            )
        c0, opts = options(v, allowed)
        for block in opts:
            mask = died = 0
            for u in block:
                mask |= bit[u]
            for u in block:
                adj[u] |= mask ^ bit[u]
                rem[u] -= 1
                if not rem[u]:
                    died |= bit[u]
            alive ^= died
            placed.append(block)
            # a coordinate the block filled may leave another too few candidates
            starved = died and any(
                rem[u] and u != v and (alive & ~adj[u]).bit_count() <= rem[u] * k1 for u in cover
            )
            if not starved and (node(v, allowed & ~mask & alive) if rem[v] else fresh()):
                return True
            placed.pop()
            alive |= mask
            for u in block:
                adj[u] &= ~mask
                rem[u] += 1
        twin = (rem[c0], adj[c0])
        twins = sum(bit[u] for u in cover if allowed >> u & 1 and (rem[u], adj[u]) == twin)
        return node(v, allowed & ~twins)

    if not fresh():
        raise _no_ms1(
            [x + 1 for x in d], k, "exhaustive-search", nodes,
            f"a complete search of {nodes} nodes finds no system",
        )
    return sorted(tuple(sorted(b)) for b in placed)


# --------------------------------------------------------------------------
# strength-2 systems from an OA(2, k, k)
# --------------------------------------------------------------------------

def construct_from_oa(k: int, r: int) -> MixedDesign:
    """GDD(2, k, rk + k(k-r)) of type 1^{rk} k^{k-r} over
    Z_2^{rk} x Z_{k+1}^{k-r}, from OA(2, k, k); an MS(2, k, .) when r = k-1.

    Blocks: r disjoint binary k-blocks {ik..ik+k-1}, plus one block per OA
    row (j_0..j_{k-1}): binary point i*k + j_i for i < r, then symbol j_i + 1
    at non-binary coordinate rk + (i - r) for i >= r.  The alphabet's
    weight-2 words are held to the word ceiling before the alphabet or the
    array is built; the output is checked at distance k + r - 2, which is
    the MS bound 2k - 3 at r = k - 1."""
    if not 1 <= r <= k - 1:
        raise ROutOfRange(f"need 1 <= r <= k-1, got r={r} k={k}")
    _words_within_ceiling(((1, r * k), (k, k - r)), 2)
    alphabet = MixedAlphabet((2,) * (r * k) + (k + 1,) * (k - r))
    array = oa_square(k)
    # cells[i][s] is the entry of symbol s at column i: (i*k + s, 1) for
    # i < r, (r*k + (i - r), s + 1) after.  A row's entries, read column by
    # column, are sorted: its binary points i*k + s rise with i below rk,
    # since each symbol s is in range(k), and its nonbinary coordinates
    # follow in order
    cells = [[(i * k + s, 1) for s in range(k)] for i in range(r)]
    cells += [[(r * k + (i - r), s + 1) for s in range(k)] for i in range(r, k)]
    blocks = [tuple(cells[i]) for i in range(r)]
    blocks += [tuple(map(getitem, cells, row)) for row in array.rows]
    meta = f"oa-gdd k={k} r={r}; 0-based (source blocks are 1-based over 1..k)"
    return _checked(alphabet, 2, k, blocks, meta, k + r - 2)


# --------------------------------------------------------------------------
# partitioned covers and their combination into mixed systems
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionedCover:
    """Blocks over points 0..n-1 split into a root set R (blocks of size k)
    and r parallel classes (blocks of size k-1) such that every t-subset of
    points lies in exactly one block of R or of some class, each class covers
    every (t-1)-subset exactly once, and classes are pairwise disjoint."""

    n: int
    t: int
    k: int
    r_blocks: tuple[tuple[int, ...], ...]
    classes: tuple[tuple[tuple[int, ...], ...], ...]


def validate_cover(cover: PartitionedCover) -> None:
    """Check every PartitionedCover invariant by combining the cover; raise
    CoverInvariantViolated with the first violation found."""
    try:
        combine_partition(cover)
    except ConstructionFailed as exc:
        raise CoverInvariantViolated(
            f"cover fails as a combined design: {exc.report.counterexample.detail}"
        ) from None


def base_system(k: int) -> PartitionedCover:
    """Cover on Z_k x Z_{k-1} (flattened): R holds the k-1 cross-sections
    {(0,j)..(k-1,j)}; class 0 holds the k columns {i} x Z_{k-1}; classes
    1..k-1 come from the non-constant rows of OA(2, k, k) grouped by
    multiplier, each row contributing its cells with symbol k-1 omitted.
    The k classes combine over Z_2^{k(k-1)} x Z_{k+1}, whose weight-2 words
    are held to the word ceiling before the array is built."""
    if k < 3:
        raise ValueError("k must be >= 3")
    _words_within_ceiling(((1, k * (k - 1)), (k, 1)), 2)
    array = oa_square(k)  # raises NotPrimePower for bad k
    w = k - 1

    def flat(i: int, j: int) -> int:
        return i * w + j

    column_class = tuple(tuple(flat(i, j) for j in range(w)) for i in range(k))
    r_blocks = tuple(tuple(flat(i, j) for i in range(k)) for j in range(w))
    classes = [column_class]
    for a in range(1, k):
        cls = []
        for b in range(k):
            row = array.rows[a * k + b]
            cls.append(tuple(sorted(flat(i, row[i]) for i in range(k) if row[i] != w)))
        classes.append(tuple(cls))
    return PartitionedCover(k * w, 2, k, r_blocks, tuple(classes))


def combine_partition(cover: PartitionedCover) -> MixedDesign:
    """MS(t, k, Z_2^n x Z_{r+1}) from a cover with r classes: R blocks kept
    binary; every block of class i (1-based) gets symbol i appended at the
    new last coordinate.  Its weight-t words are held to the word ceiling
    first; then CoverInvariantViolated refuses the shapes the output check
    cannot see: block sizes, points outside range(n) (point n aliases the
    new coordinate), and a class block listed twice (unseen at t = k).  A
    point equal to an int but of another type (1.0, True) raises Codeword's
    ValueError for its entry, after every shape check.  Blocks may list
    their points in any order; each is sorted before it is combined."""
    _words_within_ceiling(((1, cover.n), (len(cover.classes), 1)), cover.t)
    pts = range(cover.n)
    strays = []  # points in pts by equality that are not ints
    for b in cover.r_blocks:
        if len(set(b)) != cover.k or any(p not in pts for p in b):
            raise CoverInvariantViolated(f"root block {b} is not a {cover.k}-subset")
        strays += [p for p in b if type(p) is not int]
    seen: dict = {}  # block -> index of the class that first listed it
    for ci, cls in enumerate(cover.classes):
        for b in cls:
            if len(set(b)) != cover.k - 1 or any(p not in pts for p in b):
                raise CoverInvariantViolated(f"class {ci} block {b} is not a {cover.k - 1}-subset")
            key = frozenset(b)
            if key in seen:
                where = f"twice in class {ci}" if seen[key] == ci else "in two classes"
                raise CoverInvariantViolated(f"block {b} appears {where}")
            seen[key] = ci
            strays += [p for p in b if type(p) is not int]
    if strays:
        raise ValueError(f"block entry must be a [coordinate, symbol] pair, got {(strays[0], 1)!r}")

    def ordered(blocks):
        return tuple(tuple(sorted(b)) for b in blocks)

    return _combine(
        PartitionedCover(
            cover.n, cover.t, cover.k, ordered(cover.r_blocks), tuple(map(ordered, cover.classes))
        ),
        f"combined cover n={cover.n} r={len(cover.classes)}",
    )


def _combine(cover: PartitionedCover, meta: str) -> MixedDesign:
    """combine_partition without its shape checks, over a cover whose
    blocks are sorted tuples of distinct int points in range(n): those of
    expand_design (sorted by its increasing point map, with no sort) and
    the sorted copy combine_partition makes.  So (p, 1) for each point, read
    from one table of entries, then (n, i >= 1) last, is a valid sorted
    support as it stands, and no block is checked one by one.  The output
    check at distance 2(k - t) + 1 counts every exactly-once cover
    invariant: the binary t-words are the t-subsets, the words through
    symbol i at the last coordinate are the (t-1)-subsets of class i."""
    alphabet = MixedAlphabet((2,) * cover.n + (len(cover.classes) + 1,))
    # entry[p] = (p, 1), through point n, which stands for the new coordinate
    entry = [(p, 1) for p in range(cover.n + 1)].__getitem__
    blocks = [tuple(map(entry, b)) for b in cover.r_blocks]
    for ci, cls in enumerate(cover.classes, start=1):
        last = ((cover.n, ci),)
        blocks += [tuple(map(entry, b)) + last for b in cls]
    return _checked(alphabet, cover.t, cover.k, blocks, meta, 2 * (cover.k - cover.t) + 1)


# --------------------------------------------------------------------------
# resolvable designs and the product/replacement construction
# --------------------------------------------------------------------------

def resolvable_affine(q: int) -> tuple[MixedDesign, Resolution]:
    """The affine plane of order q as a resolvable S(2, q, q^2): lines
    y = m*x + c over GF(q) grouped by slope m, then the vertical class.
    Point (x, y) flattens to x*q + y, so line (m, c) is {x*q + row[x]} for
    oa_square(q)'s row (m, c), and class m is blocks m*q .. m*q + q - 1.
    Its C(q^2, 2) point pairs are held to the word ceiling before the array
    is built; the output is checked at distance 2(q - 2) + 1 together with
    its resolution."""
    _words_within_ceiling(((1, q * q),), 2)
    # cells[x][y] is the entry of point (x, y); the vertical lines are the
    # cells.  Each line lists its points x*q + y ordered by x, so it is sorted
    cells = [[(x * q + y, 1) for y in range(q)] for x in range(q)]
    lines = [tuple(map(getitem, cells, row)) for row in oa_square(q).rows]
    lines += map(tuple, cells)
    resolution = Resolution(tuple(tuple(range(m * q, m * q + q)) for m in range(q + 1)))
    meta = f"affine plane order {q}"
    plane = _checked(MixedAlphabet((2,) * (q * q)), 2, q, lines, meta, 2 * (q - 2) + 1, resolution)
    return plane, resolution


def _replaced_in_range(resolution: Resolution, i: int) -> None:
    c = len(resolution.classes)
    if not 0 <= i <= c:
        raise ValueError(f"need 0 <= i <= {c}, got {i}")


def expand_design(design: MixedDesign, resolution: Resolution, i: int) -> PartitionedCover:
    """Blow up a resolvable S(2, k, n) T to a cover on Z_n x Z_{k-1}, with
    the first i classes of the resolution replaced (ValueError unless
    0 <= i <= its class count).  A caller who wants other classes replaced
    orders resolution.classes.

    Each block {x_0 < .. < x_{k-1}} of T maps base point c*(k-1) + j of
    Z_k x Z_{k-1} to x_c*(k-1) + j.  The map is increasing, and every base
    block is sorted, so each mapped block comes out sorted with no sort.
    Through this one map a kept block gives R its base system's k-1
    cross-sections and gives its k-1 derived parallel classes (merged
    across each class of T); a replaced block gives R the (k-1)^2 rows r of
    an OA(2, k, k-1), as base points c*(k-1) + r_c.
    The n columns {x} x Z_{k-1} form one shared class, so the result has
    r = n - (k-1)*i classes.  Over the one-block S(2, k, k) the map is the
    identity, so i = 0 gives base_system(k).

    The base system needs GF(k) and the OA(2, k, k-1) needs GF(k-1), so k
    must be a prime power, and k-1 one too when i >= 1 (NotPrimePower,
    naming which one fails, before anything is built)."""
    _replaced_in_range(resolution, i)
    k = design.k
    n = design.alphabet.n
    if prime_power(k) is None:
        raise NotPrimePower(f"k = {k} is not a prime power, which the hybrid's base system needs")
    if i and prime_power(k - 1) is None:
        raise NotPrimePower(
            f"k - 1 = {k - 1} is not a prime power: replacing i >= 1 classes needs "
            "k and k - 1 both prime powers"
        )
    rep = verify_steiner(design, 2, k, n)
    if not rep.ok:
        raise NotResolvable(f"input fails the S(2,{k},{n}) check: {rep.counterexample.detail}")
    rep = verify_resolution(design, resolution)
    if not rep.ok:
        raise NotResolvable(f"input resolution fails: {rep.counterexample.detail}")
    # a resolution of an S(2, k, n) has n/k blocks per class: (n-1)/(k-1) classes
    w = k - 1
    base = base_system(k) if i < len(resolution.classes) else None
    replaced = [tuple(c * w + row[c] for c in range(k)) for row in oa_extended(w).rows] if i else ()

    r_blocks: list[tuple[int, ...]] = []
    classes: list[tuple[tuple[int, ...], ...]] = [
        tuple(tuple(range(x * w, x * w + w)) for x in range(n))
    ]
    for ci, cls in enumerate(resolution.classes):
        roots, parts = (replaced, ()) if ci < i else (base.r_blocks, base.classes[1:])
        derived: list[list[tuple[int, ...]]] = [[] for _ in parts]
        for bi in cls:
            points = [x * w + j for x, _ in design.blocks[bi].support for j in range(w)]
            point = points.__getitem__
            r_blocks.extend(tuple(map(point, b)) for b in roots)
            for sub, part in zip(derived, parts):
                sub.extend(tuple(map(point, b)) for b in part)
        classes.extend(map(tuple, derived))
    return PartitionedCover(n * w, 2, k, tuple(r_blocks), tuple(classes))


def construct_hybrid_ms(design: MixedDesign, resolution: Resolution, i: int) -> MixedDesign:
    """MS(2, k, Z_2^{(k-1)n} x Z_{n+1-(k-1)i}) from a resolvable S(2, k, n)
    with the first i of its parallel classes replaced (see expand_design);
    i = (n-1)/(k-1) replaces all of them and yields a Steiner system
    S(2, k, (k-1)n + 1).  After i's range check and before the design is
    expanded, the output's C(N, 2) + N*r weight-2 words (N = (k-1)n binary
    points, r the new coordinate's nonzero symbols) are held to the word
    ceiling.  Counting settles the distance, so no block pair is compared,
    and the output check counts those words in one bit each, by one bitmask
    per (coordinate, symbol) entry (verify._pair_masks).  k must be a prime
    power, and k - 1 one too when i >= 1 (see expand_design)."""
    _replaced_in_range(resolution, i)
    points = (design.k - 1) * design.alphabet.n
    symbols = design.alphabet.n - (design.k - 1) * i
    _words_within_ceiling(((1, points), (symbols, 1)), 2)
    return _combine(
        expand_design(design, resolution, i),
        f"hybrid k={design.k} n={design.alphabet.n} replaced={i}",
    )


# --------------------------------------------------------------------------
# large sets <-> group divisible designs with one hole group
# --------------------------------------------------------------------------

def largeset_to_gdd(ls: LargeSet) -> MixedDesign:
    """Fold an LH(n, g, t+1, t) into a GDD(t+1, t+2, ng + h) of type
    g^n h^1, h = g(n - t): blocks of copy j (1-based) get symbol j at a new
    hole coordinate appended after the n group coordinates.

    The input is a large set exactly when the fold is a GDD at strength
    t + 1: its words off the hole are the large set's (t+1)-words, and its
    words through hole symbol j are copy j - 1's t-words (0-based copies).
    So only the output is checked, and a failure raises LargeSetInvalid
    whose counterexample is a word of the folded design."""
    if ls.k != ls.t + 1:
        raise TypeMismatch(f"need block size t+1, got k={ls.k} t={ls.t}")
    if ls.lam != 1:
        raise TypeMismatch(f"transform needs multiplicity 1, got {ls.lam}")
    sizes = set(ls.alphabet.sizes)
    if len(sizes) != 1:
        raise TypeMismatch(f"groups must be uniform, got sizes {ls.alphabet.sizes}")
    n = ls.alphabet.n
    g = ls.alphabet.sizes[0] - 1
    h = g * (n - ls.t)
    if len(ls.copies) != h:
        raise CopyCountMismatch(f"{len(ls.copies)} copies, want g(n-t) = {h}")
    alphabet = MixedAlphabet(ls.alphabet.sizes + (h + 1,))
    # the copies' blocks fit coordinates 0..n-1, so (n, j >= 1) appended
    # last keeps each support valid and sorted
    blocks = [b.support + ((n, j),) for j, copy in enumerate(ls.copies, start=1) for b in copy]
    try:
        return _checked(
            alphabet, ls.t + 1, ls.k + 1, blocks, f"large set folded at hole coordinate {n}"
        )
    except ConstructionFailed as exc:
        raise LargeSetInvalid(
            f"input is not a large set, its fold fails the GDD check: "
            f"{exc.report.counterexample.detail}",
            report=exc.report,
        ) from None


def gdd_to_largeset(design: MixedDesign, hole_coordinate: int | None = None) -> LargeSet:
    """Slice a GDD(t+1, t+2, ng + h) of type g^n h^1 back into the large set
    LH(n, g, t+1, t): copy j collects the blocks holding symbol j at the hole
    coordinate (default: the last one), with the hole removed and coordinates
    re-indexed.

    The input is the fold of that large set at the hole coordinate, so, as
    in largeset_to_gdd, the large set is valid exactly when the input is a
    GDD at strength t + 1.  The input is checked before it is sliced, and a
    failure raises LargeSetInvalid whose counterexample is a word of the
    input."""
    if design.k != design.t + 1:
        raise TypeMismatch(f"need block size t+1, got k={design.k} t={design.t}")
    hole = design.alphabet.n - 1 if hole_coordinate is None else hole_coordinate
    if not 0 <= hole < design.alphabet.n:
        raise TypeMismatch(f"hole coordinate {hole} out of range")
    group_sizes = [s for c, s in enumerate(design.alphabet.sizes) if c != hole]
    if len(set(group_sizes)) != 1:
        raise TypeMismatch(
            f"non-hole groups must be uniform, got sizes {tuple(group_sizes)}"
        )
    t = design.t - 1
    n = design.alphabet.n - 1
    g = group_sizes[0] - 1
    h = design.alphabet.sizes[hole] - 1
    if h != g * (n - t):
        raise TypeMismatch(f"hole has {h} points, want g(n-t) = {g * (n - t)}")
    # dropping the hole pair and shifting later coordinates down by one is
    # monotone, so each derived support stays valid and sorted
    supports = [b.support for b in design.blocks]
    if hole == n:
        # the hole is the last coordinate, so a block meets it in its last pair
        holes = [s if c == hole else 0 for c, s in (b[-1] for b in supports)]
        supports = [b[:-1] for b in supports]
    else:
        holes = [b.symbol(hole) for b in design.blocks]
        supports = [
            tuple((c if c < hole else c - 1, s) for c, s in b if c != hole)
            for b in supports
        ]
    if 0 in holes:
        b = design.blocks[holes.index(0)]
        raise TypeMismatch(f"block {b.support} does not meet the hole coordinate {hole}")
    rep = _verify_design(design, None, _word_ceiling(None))
    if not rep.ok:
        raise LargeSetInvalid(
            f"input is not the fold of a large set, it fails the GDD check: "
            f"{rep.counterexample.detail}",
            report=rep,
        )
    copies: list[list[Codeword]] = [[] for _ in range(h)]
    for b, j in zip(_valid_codewords(supports), holes):
        copies[j - 1].append(b)
    return LargeSet(
        MixedAlphabet(tuple(group_sizes)), t, design.k - 1,
        tuple(tuple(c) for c in copies),
    )


# --------------------------------------------------------------------------
# parameter catalog of GDDs obtainable from known large sets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogRecord:
    """One GDD(t, t+1, n*g + m) of type g^n m^1 derivable from a known large
    set, with an existence flag: 'exists', 'possible-exception' (open cases
    of the source family), or 'not-exists' (the iff condition fails)."""

    t: int
    k: int
    group_size: int
    group_count: int
    hole_size: int
    existence: str
    source: str

    @property
    def gdd_type(self) -> GddType:
        return GddType(((self.group_size, self.group_count), (self.hole_size, 1)))

    @property
    def points(self) -> int:
        return self.group_size * self.group_count + self.hole_size

    def describe(self) -> str:
        return (
            f"GDD({self.t},{self.k},{self.points}) type {self.gdd_type} "
            f"[{self.existence}] from {self.source}"
        )


_LS456_EXCEPTIONS = {3, 5, 7, 9, 11, 13}


def gdd_catalog(g_values=range(2, 14), h_values=range(1, 5), ell_values=range(1, 4)):
    """Parameter records of GDDs of type g^n (g(n-t))^1 derived from the
    known large-set families LH(n, g, t+1, t).  Ranges feed the families that
    scale with a group size g, a factor h, or an exponent ell."""
    return list(_catalog_records(g_values, h_values, ell_values))


def _catalog_count(g_values, h_values, ell_values) -> int:
    """The number of records _catalog_records makes, held to the word
    ceiling before any is made.  Then the largest number the records of
    LH(5*2^ell, 9h, 4, 3) print, their fold's point count 9h(10*2^ell - 3)
    at the largest h and ell, is held to the interpreter's limit on the
    digits of an int written as a string (0: no limit), so that a catalog
    is refused before its first line rather than part way through.  That
    limit is 0 or at least 640 digits, which no other record reaches below
    the ceiling."""
    count = 5 * len(g_values) + 1 + len(h_values) * (2 + len(ell_values))
    _within_ceiling(count, "catalog records", _word_ceiling(None))
    limit = getattr(sys, "get_int_max_str_digits", int)()  # from Python 3.10.7
    if limit and h_values and ell_values:
        h, ell = max(h_values), max(ell_values)
        if 9 * h * (10 * 2**ell - 3) >= 10**limit:
            raise ValueError(
                f"the point count 9h(10*2^ell - 3) at h = {h}, ell = {ell} exceeds the "
                f"limit ({limit} digits) for integer string conversion"
            )
    return count


def _catalog_records(g_values, h_values, ell_values):
    """gdd_catalog's records, made one at a time: five for each g, then
    LH(14,720,4,3), then 2 + len(ell_values) for each h.  Each is the fold
    of its source LH(n, g, t+1, t): type g^n (g(n-t))^1, strength t+1,
    block size t+2."""

    def lh(n, g, t, existence="exists", condition=""):
        source = f"LH({n},{g},{t + 1},{t}){condition}"
        return CatalogRecord(t + 1, t + 2, g, n, g * (n - t), existence, source)

    for g in g_values:
        if g < 2:
            raise ValueError("g must be >= 2")
        yield lh(10, g, 3)
        flag = "possible-exception" if g in _LS456_EXCEPTIONS else "exists"
        yield lh(11, g, 4, flag)
        yield lh(12, g, 5, flag)
        yield lh(7, g, 3, "exists" if g % 2 == 0 else "not-exists", " iff g even")
        yield lh(6, g, 3, "exists" if g % 3 == 0 else "not-exists", " iff 3 | g")
    yield lh(14, 720, 3)
    for h in h_values:
        if h < 1:
            raise ValueError("h must be >= 1")
        yield lh(5, 4 * h, 3)
        yield lh(20, 9 * h, 3)
        for ell in ell_values:
            if ell < 1:
                raise ValueError("ell must be >= 1")
            yield lh(5 * 2**ell, 9 * h, 3)
