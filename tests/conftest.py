"""Shared fixture loaders and reference builders.

The fixtures directory holds independently published reference data,
transcribed row for row: two orthogonal arrays in the package text format,
a three-class block family over 12 binary points, and a 19-block system
over Z_2^12 x Z_5 written as four bit-groups plus a final symbol.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

import pytest

from design_forge import (
    Codeword,
    DesignForgeError,
    LargeSet,
    MixedAlphabet,
    MixedDesign,
    OrthogonalArray,
    Resolution,
    base_system,
    combine_partition,
    construct_from_oa,
    construct_hybrid_ms,
    hamming_distance,
    ms1_construct,
    oa_from_text,
    resolvable_affine,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load_oa(name: str) -> OrthogonalArray:
    return oa_from_text((FIXTURES / name).read_text())


def load_block_classes(name: str, width: int = 3) -> list[list[frozenset[int]]]:
    """Parse groups of bit-strings separated by '---' lines: bit j of group i
    set means point i*width + j is in the block."""
    classes: list[list[frozenset[int]]] = [[]]
    for line in (FIXTURES / name).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line == "---":
            classes.append([])
            continue
        groups = line.split()
        points = frozenset(
            i * width + j
            for i, bits in enumerate(groups)
            for j, bit in enumerate(bits)
            if bit == "1"
        )
        classes[-1].append(points)
    return classes


def load_mixed_rows(name: str, width: int = 3) -> MixedDesign:
    """Parse rows of bit-groups followed by one symbol for a final larger
    coordinate (0 = absent) into a design over Z_2^{groups*width} x Z_m."""
    blocks = []
    max_symbol = 1
    n_binary = None
    for line in (FIXTURES / name).read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        groups, last = parts[:-1], int(parts[-1])
        n_binary = len(groups) * width
        support = [
            (i * width + j, 1)
            for i, bits in enumerate(groups)
            for j, bit in enumerate(bits)
            if bit == "1"
        ]
        if last != 0:
            support.append((n_binary, last))
            max_symbol = max(max_symbol, last)
        blocks.append(Codeword(tuple(support)))
    alphabet = MixedAlphabet((2,) * n_binary + (max_symbol + 1,))
    k = blocks[0].weight
    return MixedDesign(alphabet, 2, k, tuple(blocks), meta=f"fixture {name}")


def brute_force_min_distance(design: MixedDesign):
    """Reference for the distance kernel: every pair of sorted blocks in
    order, per-pair Hamming distance, first minimum kept.  Returns
    (value, witness), (math.inf, None) below two blocks."""
    best, witness = math.inf, None
    for u, v in combinations(sorted(design.blocks), 2):
        d = hamming_distance(u, v)
        if d < best:
            best, witness = d, (u, v)
    return best, witness


def _resolvable(classes: list[list[tuple[int, ...]]], n: int, meta: str) -> tuple[MixedDesign, Resolution]:
    """A design over n binary points from parallel classes of point blocks,
    with its resolution: blocks numbered class by class."""
    blocks, indices = [], []
    for cls in classes:
        indices.append(tuple(range(len(blocks), len(blocks) + len(cls))))
        blocks += [Codeword(tuple((p, 1) for p in block)) for block in cls]
    design = MixedDesign(MixedAlphabet((2,) * n), 2, len(classes[0][0]), tuple(blocks), meta=meta)
    return design, Resolution(tuple(indices))


@cache
def build_kts15() -> tuple[MixedDesign, Resolution]:
    """A Kirkman triple system KTS(15), a resolvable S(2, 3, 15), on
    Z_7 x {0, 1} with a fixed point: (a, l) is point 7l + a and the fixed
    point is 14.  Its 105 point pairs fall into 15 orbits under a -> a + 1
    mod 7.  A search over the partitions of the 15 points into 5 triples
    finds a base class whose 15 pairs meet every orbit once; the 7 classes
    are that class developed mod 7."""

    def orbit(p: int, q: int):  # p < q
        if q == 14:
            return ("fixed", p // 7)
        (l, a), (m, b) = divmod(p, 7), divmod(q, 7)
        if l != m:
            return ("mixed", (b - a) % 7)
        return ("pure", l, min((b - a) % 7, (a - b) % 7))

    def search(free: list[int], used: set) -> list[tuple[int, ...]] | None:
        if not free:
            return []
        p, rest = free[0], free[1:]
        for q, r in combinations(rest, 2):
            orbits = {orbit(p, q), orbit(p, r), orbit(q, r)}
            if len(orbits) < 3 or orbits & used:
                continue
            found = search([x for x in rest if x not in (q, r)], used | orbits)
            if found is not None:
                return [(p, q, r), *found]
        return None

    base = search(list(range(15)), set())

    def shift(p: int, j: int) -> int:
        return p if p == 14 else 7 * (p // 7) + (p + j) % 7

    classes = [[tuple(sorted(shift(p, j) for p in triple)) for triple in base] for j in range(7)]
    return _resolvable(classes, 15, "KTS(15)")


@cache
def build_ag33_lines() -> tuple[MixedDesign, Resolution]:
    """The 117 lines of the affine space AG(3, 3), a resolvable
    S(2, 3, 27): point (x, y, z) of GF(3)^3 is 9x + 3y + z, and each of the
    13 directions (first nonzero entry 1) gives a parallel class of 9
    lines."""
    points = list(product(range(3), repeat=3))
    directions = [d for d in points if next(filter(None, d), 0) == 1]

    def line(x, d) -> tuple[int, ...]:
        return tuple(sorted(
            9 * ((x[0] + s * d[0]) % 3) + 3 * ((x[1] + s * d[1]) % 3) + (x[2] + s * d[2]) % 3
            for s in range(3)
        ))

    classes = [sorted({line(x, d) for x in points}) for d in directions]
    return _resolvable(classes, 27, "AG(3,3) lines")


@cache
def build_ag34_lines() -> tuple[MixedDesign, Resolution]:
    """The 336 lines of the affine space AG(3, 4), a resolvable
    S(2, 4, 64): GF(4) is {0, 1, w, w^2} written 0, 1, 2, 3, where addition
    is XOR and w^a * w^b = w^(a+b mod 3); point (x, y, z) of GF(4)^3 is
    16x + 4y + z, and each of the 21 directions (first nonzero entry 1)
    gives a parallel class of 16 lines."""
    log = {1: 0, 2: 1, 3: 2}

    def mul(a: int, b: int) -> int:
        return a and b and (1, 2, 3)[(log[a] + log[b]) % 3]

    points = list(product(range(4), repeat=3))
    directions = [d for d in points if next(filter(None, d), 0) == 1]

    def line(x, d) -> tuple[int, ...]:
        return tuple(sorted(
            16 * (x[0] ^ mul(s, d[0])) + 4 * (x[1] ^ mul(s, d[1])) + (x[2] ^ mul(s, d[2]))
            for s in range(4)
        ))

    classes = [sorted({line(x, d) for x in points}) for d in directions]
    return _resolvable(classes, 64, "AG(3,4) lines")


@cache
def verified_roster() -> tuple[MixedDesign, ...]:
    """Designs that pass coverage: MS(1, k, Q) over small alphabets, affine
    planes, hybrids at every i, combined base systems, OA GDDs at every r,
    and hybrids over KTS(15) and the lines of AG(3, 3)."""
    designs = []
    for n in range(1, 6):
        for sizes in combinations_with_replacement((2, 3, 4), n):
            for k in (2, 3):
                try:
                    designs.append(ms1_construct(sizes, k))
                except DesignForgeError:
                    pass
    designs += [resolvable_affine(q)[0] for q in (2, 3, 4, 5)]
    for k in (3, 4):
        plane, classes = resolvable_affine(k)
        designs += [construct_hybrid_ms(plane, classes, i) for i in range(k + 2)]
        designs.append(combine_partition(base_system(k)))
    designs += [construct_from_oa(k, r) for k in (3, 4, 5) for r in range(1, k)]
    # hybrids over resolvable inputs other than an affine plane
    designs += [construct_hybrid_ms(*build_kts15(), 2), construct_hybrid_ms(*build_ag33_lines(), 13)]
    # and one whose two blocks share two coordinates (distance 4 < 2k - 1)
    shared = (Codeword(((0, 1), (2, 1), (3, 1))), Codeword(((1, 1), (2, 2), (3, 2))))
    designs.append(MixedDesign(MixedAlphabet((2, 2, 3, 3)), 1, 3, shared))
    return tuple(designs)


def build_toy_large_set() -> LargeSet:
    """The two-copy large set on (Z_3)^3 at strength 2: the eight transversal
    triples split by symbol-sum parity, each half covering every weight-2
    word exactly once."""
    copies: list[list[Codeword]] = [[], []]
    for s in product((1, 2), repeat=3):
        word = Codeword(((0, s[0]), (1, s[1]), (2, s[2])))
        copies[sum(s) % 2].append(word)
    return LargeSet(
        MixedAlphabet((3, 3, 3)), 2, 3, (tuple(copies[0]), tuple(copies[1]))
    )


def build_sum_large_set(g: int, t: int) -> LargeSet:
    """LH(t+1, g, t+1, t): copy j holds the transversal words over
    Z_{g+1}^{t+1} whose symbol sum is j mod g."""
    copies: list[list[Codeword]] = [[] for _ in range(g)]
    for syms in product(range(1, g + 1), repeat=t + 1):
        copies[sum(syms) % g].append(Codeword(tuple(enumerate(syms))))
    return LargeSet(MixedAlphabet((g + 1,) * (t + 1)), t, t + 1, copies)


@cache
def reference_field(p: int, modulus: tuple[int, ...]):
    """The tables (add, mul, neg, inv) of GF(p^m) by schoolbook polynomial
    arithmetic modulo the monic `modulus` (coefficients little-endian, the
    leading 1 last), over labels whose little-endian base-p digits are the
    coefficients; inv[0] is None.  It shares no code with
    design_forge.fields, whose tables it is checked against."""
    m = len(modulus) - 1
    q = p**m
    polys = [[label // p**i % p for i in range(m)] for label in range(q)]

    def label(coeffs):
        return sum(c % p * p**i for i, c in enumerate(coeffs))

    def times(a, b):
        product = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                product[i + j] += x * y
        # x^top = x^(top-m) * x^m, and x^m = -(modulus without its leading 1)
        for top in range(2 * m - 2, m - 1, -1):
            c = product[top] % p
            for j in range(m):
                product[top - m + j] -= c * modulus[j]
        return label(product[:m])

    add = tuple(tuple(label(map(sum, zip(a, b))) for b in polys) for a in polys)
    mul = tuple(tuple(times(a, b) for b in polys) for a in polys)
    neg = tuple(label(-c for c in a) for a in polys)
    inv = (None,) + tuple(row.index(1) for row in mul[1:])
    return add, mul, neg, inv


@pytest.fixture
def toy_large_set() -> LargeSet:
    return build_toy_large_set()


@pytest.fixture
def fixture_a() -> OrthogonalArray:
    return load_oa("a_k4.oa")


@pytest.fixture
def fixture_d() -> OrthogonalArray:
    return load_oa("d_k4.oa")


@pytest.fixture
def fixture_b3() -> list[list[frozenset[int]]]:
    return load_block_classes("b3_k4.txt")


@pytest.fixture
def fixture_s_prime() -> MixedDesign:
    return load_mixed_rows("s_prime_k4.txt")
