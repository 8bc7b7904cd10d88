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
from dataclasses import dataclass, field
from itertools import combinations, product
from operator import attrgetter

from .errors import AlphabetMismatch


@dataclass(frozen=True, order=True)
class Codeword:
    support: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted(tuple(p) for p in self.support))
        coords = [c for c, _ in pairs]
        if len(set(coords)) != len(coords):
            raise ValueError(f"repeated coordinate in support {pairs}")
        for c, s in pairs:
            if c < 0:
                raise ValueError(f"negative coordinate {c}")
            if s < 1:
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


@dataclass(frozen=True)
class MixedAlphabet:
    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes:
            raise ValueError("alphabet needs at least one coordinate")
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
        for c, s in word.support:
            if c >= self.n:
                raise AlphabetMismatch(
                    f"coordinate {c} out of range for {self.n} coordinates"
                )
            if s >= self.sizes[c]:
                raise AlphabetMismatch(
                    f"symbol {s} out of range at coordinate {c} (size {self.sizes[c]})"
                )


@dataclass(frozen=True)
class MixedDesign:
    """t, k and a block list over a mixed alphabet.

    Blocks are kept in construction order; serialization canonicalizes.
    Duplicate blocks are representable on purpose so verifiers can report
    them instead of trusting constructors.
    """

    alphabet: MixedAlphabet
    t: int
    k: int
    blocks: tuple[Codeword, ...]
    meta: str = field(default="", compare=False)

    def __post_init__(self):
        if not 1 <= self.t <= self.k:
            raise ValueError(f"need 1 <= t <= k, got t={self.t} k={self.k}")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for b in self.blocks:
            if b.weight != self.k:
                raise ValueError(f"block {b.support} has weight {b.weight}, not {self.k}")
            self.alphabet.check_word(b)


@dataclass(frozen=True)
class GddType:
    """Group type as a multiset of group sizes: pairs (size, multiplicity)
    sorted by size, e.g. 1^12 4^1."""

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def from_alphabet(cls, alphabet: MixedAlphabet) -> "GddType":
        counts: dict[int, int] = {}
        for g in alphabet.group_sizes:
            counts[g] = counts.get(g, 0) + 1
        return cls(tuple(sorted(counts.items())))

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
        object.__setattr__(
            self, "classes", tuple(tuple(int(i) for i in c) for c in self.classes)
        )


@dataclass(frozen=True)
class LargeSet:
    """An ordered list of block-set copies over a shared alphabet, with
    multiplicity lam: every transversal k-word should be a block of exactly
    lam copies, and each copy should be a GDD at strength t."""

    alphabet: MixedAlphabet
    t: int
    k: int
    copies: tuple[tuple[Codeword, ...], ...]
    lam: int = 1

    def __post_init__(self):
        object.__setattr__(self, "copies", tuple(tuple(c) for c in self.copies))
        if self.lam < 1:
            raise ValueError("lam must be >= 1")
        for copy in self.copies:
            for b in copy:
                if b.weight != self.k:
                    raise ValueError(f"block {b.support} has weight {b.weight}, not {self.k}")
                self.alphabet.check_word(b)


@dataclass(frozen=True)
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

    Each sorted block is packed into one int mask holding one bit per
    (coordinate, symbol) pair and one bit per coordinate it uses.  Bits are
    numbered densely, in the order pairs and coordinates first occur in the
    sorted blocks, so a mask is as wide as the design's support and not as
    the alphabet.  Two weight-k blocks share 2 bits at a coordinate where
    their symbols agree and 1 bit where they differ, so

        d(u, v) = 2k - popcount(m_u & m_v).

    Every pair is still compared; each comparison is one AND and one
    popcount.  A row keeps its first maximum and the running best changes
    only on a strict improvement, which yields the least witness pair.
    """
    blocks = sorted(design.blocks, key=attrgetter("support"))
    bits: dict = {}
    number = bits.setdefault
    masks = []
    for b in blocks:
        m = 0
        for pair in b.support:
            m |= 1 << number(pair, len(bits)) | 1 << number(pair[0], len(bits))
        masks.append(m)
    shared = -1
    witness = None
    for i, m in enumerate(masks[:-1], 1):
        row = [(m & other).bit_count() for other in masks[i:]]
        top = max(row)
        if top > shared:
            shared = top
            witness = (blocks[i - 1], blocks[i + row.index(top)])
    if witness is None:
        return DistanceResult(math.inf, None)
    return DistanceResult(2 * design.k - shared, witness)


def enumerate_t_words(alphabet: MixedAlphabet, t: int):
    """Yield every weight-t word in lexicographic order by (coordinate set,
    symbol vector)."""
    if not 0 <= t <= alphabet.n:
        raise ValueError(f"need 0 <= t <= {alphabet.n}, got {t}")
    for coords in combinations(range(alphabet.n), t):
        for syms in product(*(range(1, alphabet.sizes[c]) for c in coords)):
            yield Codeword(tuple(zip(coords, syms)))


def word_count(alphabet: MixedAlphabet, t: int) -> int:
    """Closed-form count of weight-t words: the elementary symmetric
    polynomial e_t of the group sizes q_i - 1."""
    if not 0 <= t <= alphabet.n:
        raise ValueError(f"need 0 <= t <= {alphabet.n}, got {t}")
    es = [1] + [0] * t
    for g in alphabet.group_sizes:
        for j in range(t, 0, -1):
            es[j] += es[j - 1] * g
    return es[t]


def gdd_type_of(design: MixedDesign) -> GddType:
    """Group type of the design's alphabet: coordinate i is a group of
    q_i - 1 points."""
    return GddType.from_alphabet(design.alphabet)
