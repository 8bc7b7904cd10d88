"""Core value types for designs over mixed alphabets.

A word over the alphabet Z_{q_1} x ... x Z_{q_n} is stored sparsely as its
support: a sorted tuple of (coordinate, symbol) pairs with distinct 0-based
coordinates and nonzero symbols.  The weight of a word is its support size.
Hamming distance counts coordinates whose (possibly zero) symbols differ, so
two supports that share a coordinate with different symbols differ there by
exactly one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, filterfalse, product, repeat
from operator import attrgetter
from typing import TYPE_CHECKING

from .errors import AlphabetMismatch

if TYPE_CHECKING:
    from .verify import VerificationReport


@dataclass(frozen=True, order=True, slots=True)
class Codeword:
    support: tuple[tuple[int, int], ...]

    def __post_init__(self):
        """The check of a support's entries on every direct call: 2-item
        lists or tuples of int (not bool), distinct coordinates >= 0 and
        symbols >= 1, kept sorted whatever order a caller passes them in.
        Supports known to pass it skip it through _valid_codewords (see
        there for its three callers)."""
        pairs = []
        for p in self.support:
            if not (isinstance(p, (tuple, list)) and len(p) == 2
                    and type(p[0]) is int and type(p[1]) is int):
                raise ValueError(f"block entry must be a [coordinate, symbol] pair, got {p!r}")
            pairs.append(tuple(p))
        pairs.sort()
        pairs = tuple(pairs)
        symbols = dict(pairs)
        if len(symbols) != len(pairs):
            raise ValueError(f"repeated coordinate in support {pairs}")
        if pairs and pairs[0][0] < 0:
            raise ValueError(f"negative coordinate {pairs[0][0]}")
        if pairs and min(symbols.values()) < 1:
            c, s = next(p for p in pairs if p[1] < 1)
            raise ValueError(f"symbol {s} at coordinate {c} must be nonzero")
        object.__setattr__(self, "support", pairs)

    @property
    def weight(self) -> int:
        return len(self.support)

    @property
    def coordinates(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.support)

    def symbol(self, coordinate: int) -> int:
        for c, s in self.support:
            if c == coordinate:
                return s
        return 0


def _valid_codewords(supports: list) -> tuple[Codeword, ...]:
    """Codewords of supports that already pass Codeword's check as they
    stand: tuples of sorted (c, s) int pairs with distinct coordinates
    >= 0 and symbols >= 1.  __post_init__ is not run, so a caller uses this
    only where its own checks or the blocks it derives from establish that.
    Its three callers:

    * the compact reader of block lists (formats), whose own pass has
      checked every entry;
    * gdd_to_largeset's slice, whose supports drop the hole pair of blocks
      already checked, shifting later coordinates down by one;
    * constructions._checked, the one place where a builder's design is
      made: each builder says why its supports come out sorted, and the
      design is checked in full before it is returned."""
    words = list(map(object.__new__, repeat(Codeword, len(supports))))
    list(map(object.__setattr__, words, repeat("support"), supports))
    return tuple(words)


@dataclass(frozen=True, slots=True)
class MixedAlphabet:
    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(self.sizes)
        if not sizes:
            raise ValueError("alphabet needs at least one coordinate")
        bad = [s for s in sizes if type(s) is not int]
        if bad:
            raise ValueError(f"alphabet size must be an int, got {bad[0]!r}")
        if any(s < 2 for s in sizes):
            raise ValueError(f"every alphabet size must be >= 2, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        """q_i - 1 for each coordinate: the nonzero symbols it contributes."""
        return tuple(s - 1 for s in self.sizes)

    def check_word(self, word: Codeword) -> None:
        sizes = self.sizes
        n = len(sizes)
        for c, s in word.support:
            if c >= n:
                raise AlphabetMismatch(f"coordinate {c} out of range for {n} coordinates")
            if s >= sizes[c]:
                raise AlphabetMismatch(
                    f"symbol {s} out of range at coordinate {c} (size {sizes[c]})"
                )


def _check_blocks(alphabet: MixedAlphabet, k: int, blocks) -> None:
    """The fit of a block list, shared by designs and large sets: every
    block has weight k and fits the alphabet.  One inlined pass over the
    supports; check_word runs only on a misfit, to name it."""
    sizes = alphabet.sizes
    n = len(sizes)
    for b in blocks:
        support = b.support
        if len(support) != k:
            raise ValueError(f"block {support} has weight {len(support)}, not {k}")
        for c, s in support:
            if c >= n or s >= sizes[c]:
                alphabet.check_word(b)


@dataclass(frozen=True, slots=True)
class MixedDesign:
    """t, k and a block list over a mixed alphabet.

    Blocks are kept in construction order; serialization canonicalizes.
    Duplicate blocks are representable on purpose so verifiers can report
    them instead of trusting constructors.  A constructor attaches the
    passing VerificationReport of its own output check as `report`; it
    takes no part in equality, hashing or serialization.
    """

    alphabet: MixedAlphabet
    t: int
    k: int
    blocks: tuple[Codeword, ...]
    meta: str = field(default="", compare=False)
    report: VerificationReport | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.t <= self.k:
            raise ValueError(f"need 1 <= t <= k, got t={self.t} k={self.k}")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        _check_blocks(self.alphabet, self.k, self.blocks)


@dataclass(frozen=True)
class GddType:
    """Group type as a multiset of group sizes: pairs (size, multiplicity)
    sorted by size, e.g. 1^12 4^1."""

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def from_alphabet(cls, alphabet: MixedAlphabet) -> "GddType":
        return cls(tuple(sorted(Counter(alphabet.group_sizes).items())))

    @property
    def total_points(self) -> int:
        return sum(size * mult for size, mult in self.pairs)

    def __str__(self) -> str:
        return " ".join(f"{size}^{mult}" for size, mult in self.pairs)


@dataclass(frozen=True)
class Resolution:
    """A partition of block indices into parallel classes."""

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        classes = tuple(tuple(c) for c in self.classes)
        bad = [i for c in classes for i in c if type(i) is not int]
        if bad:
            raise ValueError(f"class entry must be a block index (int), got {bad[0]!r}")
        object.__setattr__(self, "classes", classes)


@dataclass(frozen=True)
class LargeSet:
    """An ordered list of block-set copies over a shared alphabet, with
    multiplicity lam: every transversal k-word should be a block of exactly
    lam copies, and each copy should be a GDD at strength 1 <= t <= k <= n."""

    alphabet: MixedAlphabet
    t: int
    k: int
    copies: tuple[tuple[Codeword, ...], ...]
    lam: int = 1

    def __post_init__(self):
        object.__setattr__(self, "copies", tuple(tuple(c) for c in self.copies))
        if not 1 <= self.t <= self.k:
            raise ValueError(f"need 1 <= t <= k, got t={self.t} k={self.k}")
        if self.k > self.alphabet.n:
            raise ValueError(f"need k <= n, got k={self.k} n={self.alphabet.n}")
        if self.lam < 1:
            raise ValueError("lam must be >= 1")
        for copy in self.copies:
            _check_blocks(self.alphabet, self.k, copy)


@dataclass(frozen=True, slots=True)
class DistanceResult:
    value: int | float
    witness: tuple[Codeword, Codeword] | None


def hamming_distance(u: Codeword, v: Codeword, alphabet: MixedAlphabet | None = None) -> int:
    """Coordinates where u and v carry different symbols (zero counts as a
    symbol).  If an alphabet is given, both words must fit it."""
    if alphabet is not None:
        alphabet.check_word(u)
        alphabet.check_word(v)
    rest = dict(u.support)
    d = 0
    for c, s in v.support:
        if rest.pop(c, 0) != s:
            d += 1
    return d + len(rest)


def covers(block: Codeword, word: Codeword, alphabet: MixedAlphabet | None = None) -> bool:
    """True iff every (coordinate, symbol) of word appears in block.
    Equivalent to hamming_distance(word, block) == block.weight - word.weight."""
    if alphabet is not None:
        alphabet.check_word(block)
        alphabet.check_word(word)
    return set(word.support) <= set(block.support)


def min_distance(design: MixedDesign) -> DistanceResult:
    """Minimum pairwise distance with the lexicographically least witness
    pair; Infinite (math.inf) when fewer than two blocks exist.

    Two weight-k blocks share 2 bits at a coordinate where their symbols
    agree and 1 where they differ, counting one bit per (coordinate,
    symbol) pair and one per coordinate, so d(u, v) = 2k - shared(u, v).

    The shared counts are bit-sliced: bit j of a column int stands for
    sorted block j.  Each (coordinate, symbol) pair has an `agree` column
    of the blocks that hold it, and `differ` holds the blocks that use its
    coordinate with another symbol (the coordinate's column XOR agree).
    For row i the block's k (agree, differ) columns, shifted so that bit 0
    is block i + 1, are added into a binary counter of
    (2k).bit_length() slice ints, agree at weight 2 and differ at weight 1:
    the sum of the block's 2k pair and coordinate columns.  The row
    maximum is read from the top slice down (cand &= slice whenever that
    is nonzero), and the lowest set bit of cand is the least block at that
    maximum.  Every pair is still counted, a row keeps its first maximum
    and the running best changes only on a strict improvement, which
    yields the least witness pair.  A column is as wide as the blocks, so
    memory follows the design's support and not its alphabet.
    """
    blocks = sorted(design.blocks, key=attrgetter("support"))
    agree: dict = {}
    get = agree.get
    bit = 1
    for b in blocks:
        for pair in b.support:
            agree[pair] = get(pair, 0) | bit
        bit <<= 1
    used: dict = {}
    for (c, _), col in agree.items():
        used[c] = used.get(c, 0) | col
    columns = {pair: (col, used[pair[0]] ^ col) for pair, col in agree.items()}
    width = (2 * design.k).bit_length()
    shared = -1
    witness = None
    for i, b in enumerate(blocks[:-1], 1):
        counter = [0] * width
        for same, differ in map(columns.__getitem__, b.support):
            differ >>= i
            ones = counter[0]
            counter[0] = ones ^ differ
            # a block agrees or differs at a coordinate, never both, so
            # `same` and the carry out of the ones slice are disjoint
            carry = (same >> i) | (ones & differ)
            level = 1
            while carry:
                s = counter[level]
                counter[level] = s ^ carry
                carry &= s
                level += 1
        cand = (1 << (len(blocks) - i)) - 1
        top = 0
        for level in range(width - 1, -1, -1):
            hit = cand & counter[level]
            if hit:
                cand = hit
                top |= 1 << level
        if top > shared:
            shared = top
            witness = (b, blocks[i + (cand & -cand).bit_length() - 1])
    if witness is None:
        return DistanceResult(math.inf, None)
    return DistanceResult(2 * design.k - shared, witness)


def enumerate_t_words(alphabet: MixedAlphabet, t: int):
    """Yield every weight-t word in lexicographic order by (coordinate set,
    symbol vector)."""
    if not 0 <= t <= alphabet.n:
        raise ValueError(f"need 0 <= t <= {alphabet.n}, got {t}")
    yield from map(Codeword, word_supports(alphabet, t))


def word_supports(alphabet: MixedAlphabet, t: int):
    """The supports of the weight-t words in enumerate_t_words order, as
    plain tuples (no Codeword is built)."""
    sizes = alphabet.sizes
    if t == 1:
        return (((c, s),) for c, q in enumerate(sizes) for s in range(1, q))
    return (
        tuple(zip(coords, syms))
        for coords in combinations(range(alphabet.n), t)
        for syms in product(*(range(1, sizes[c]) for c in coords))
    )


def word_count(alphabet: MixedAlphabet, t: int) -> int:
    """Closed-form count of weight-t words: the elementary symmetric
    polynomial e_t of the group sizes q_i - 1."""
    if not 0 <= t <= alphabet.n:
        raise ValueError(f"need 0 <= t <= {alphabet.n}, got {t}")
    if t == 1:
        return sum(alphabet.sizes) - alphabet.n
    return _type_word_count(GddType.from_alphabet(alphabet).pairs, t)


def _type_word_count(pairs, t: int) -> int:
    """word_count of an alphabet of group type g_1^{m_1} g_2^{m_2} ... given
    as (g, m) pairs, never built: g^m has C(m, i) g^i words of weight i."""
    es = [1] + [0] * t
    for g, m in pairs:
        for j in range(t, 0, -1):
            es[j] += sum(es[j - i] * math.comb(m, i) * g**i for i in range(1, min(j, m) + 1))
    return es[t]


def first_miscount(items: list, total: int, ordered, want: int = 1):
    """The exactly-once kernel of coverage at t != 2 and of the
    multiplicity, strength and parallel-class checks (verify._pair_miscount
    counts weight-2 coverage in packed form, one bit or one byte per word):
    None when the items hold each of the `total` elements that `ordered()`
    yields exactly `want` times, otherwise (element, count) for the first
    element in that order whose count differs.  The accept test only
    counts, so every item must be one of those elements.  `ordered` is
    called only on failure, and a Counter is built only when some item
    repeats or want > 1."""
    if want == 1:
        seen = set(items)
        if len(items) == total == len(seen):
            return None
        if len(seen) == len(items):
            missing = next(filterfalse(seen.__contains__, ordered()), None)
            return None if missing is None else (missing, 0)
        del seen  # freed before the Counter of the same items is built
    counts = Counter(items)
    if len(counts) == total and all(c == want for c in counts.values()):
        return None
    for element in ordered():
        c = counts.get(element, 0)
        if c != want:
            return element, c
    return None


def gdd_type_of(design: MixedDesign) -> GddType:
    """Group type of the design's alphabet: coordinate i is a group of
    q_i - 1 points."""
    return GddType.from_alphabet(design.alphabet)
