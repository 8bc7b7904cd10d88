"""Latin squares and orthogonal arrays over finite fields.

An OA(t, n, k) here is a k^t x n integer matrix over symbols 0..k-1 in which
every t columns, restricted to the rows, hit every t-tuple exactly once.
Constructions are deterministic: rows are emitted in (a, b) lexicographic
order, so the q constant rows of oa_square(q) (multiplier a = 0) come first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, product, repeat
from operator import add, mul

from .core import first_miscount
from .errors import StrengthExceedsColumns, VerificationLimitExceeded
from .fields import field_create
from .verify import Counterexample, VerificationReport, _within_ceiling, _word_ceiling


@dataclass(frozen=True)
class LatinSquare:
    order: int
    grid: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class OrthogonalArray:
    strength: int
    columns: int
    alphabet: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.alphabet < 1:
            raise ValueError(f"alphabet must be >= 1, got {self.alphabet}")
        for row in self.rows:
            if len(row) != self.columns:
                raise ValueError(f"row {row} has {len(row)} entries, not {self.columns}")


def mols_complete(q: int) -> list[LatinSquare]:
    """The complete family of q-1 mutually orthogonal Latin squares
    L_a(i, j) = a*i + j over GF(q), for a = 1..q-1."""
    f = field_create(q)
    return [
        LatinSquare(q, tuple(tuple(f.add(f.mul(a, i), j) for j in range(q)) for i in range(q)))
        for a in range(1, q)
    ]


def oa_square(q: int) -> OrthogonalArray:
    """OA(2, q, q): row (a, b) holds a*x_i + b at column i for x_i = i in GF(q).
    Its q^2 x q entries are held to the word ceiling before the field is built."""
    _within_ceiling(q * q * q, "array entries", _word_ceiling(None))
    f = field_create(q)
    rows = tuple(
        tuple(f.add(f.mul(a, x), b) for x in range(q))
        for a in range(q) for b in range(q)
    )
    return OrthogonalArray(2, q, q, rows)


def oa_extended(q: int) -> OrthogonalArray:
    """OA(2, q+1, q): oa_square(q) rows with the multiplier a appended as an
    extra last column.  Its q^2 x (q+1) entries are held to the word ceiling
    before the field is built."""
    _within_ceiling(q * q * (q + 1), "array entries", _word_ceiling(None))
    f = field_create(q)
    rows = tuple(
        tuple(f.add(f.mul(a, x), b) for x in range(q)) + (a,)
        for a in range(q) for b in range(q)
    )
    return OrthogonalArray(2, q + 1, q, rows)


def oa_sum(t: int, k: int) -> OrthogonalArray:
    """OA(t-1, t, k) over Z_k: all (t-1)-tuples in lexicographic order, each
    with -(sum of the tuple) mod k appended.  Its k^(t-1) x t entries are
    held to the word ceiling before any row is built, and named as a power,
    not formed, once k^(t-1) >= 2^((t-1)(bits of k - 1)) passes 2^4096 too."""
    if t < 2:
        raise ValueError("t must be >= 2")
    if k < 2:
        raise ValueError("k must be >= 2")
    ceiling = _word_ceiling(None)
    if (t - 1) * (k.bit_length() - 1) >= max(ceiling.bit_length(), 4096):
        raise VerificationLimitExceeded(
            f"{k}^{t - 1} * {t} array entries exceed the ceiling {ceiling}"
        )
    _within_ceiling(k ** (t - 1) * t, "array entries", ceiling)
    rows = tuple(
        tup + ((-sum(tup)) % k,) for tup in product(range(k), repeat=t - 1)
    )
    return OrthogonalArray(t - 1, t, k, rows)


def verify_oa(
    array: OrthogonalArray, t: int, max_words: int | None = None
) -> VerificationReport:
    """Exhaustively check strength t: every t columns must carry every t-tuple
    over 0..alphabet-1 exactly once.  On failure the first violation in
    (column set, symbol tuple) lexicographic order is reported.  The
    C(columns, t) x rows tuples read, and the t symbols of the tuple a
    failure names, are bounded by the verifiers' ceiling.  Only a column
    set that its base-k keys cannot accept is counted as tuples, and an
    array of other than alphabet^t rows reads one set."""
    if t < 1:
        raise ValueError("strength must be >= 1")
    if t > array.columns:
        raise StrengthExceedsColumns(
            f"strength {t} exceeds {array.columns} columns"
        )
    k, rows = array.alphabet, array.rows
    ceiling = _word_ceiling(max_words)
    # with no rows the product is 0 whatever C(columns, t) is, so it is not
    # formed; the first column set still fails on a tuple of t symbols
    tuples = math.comb(array.columns, t) * len(rows) if rows else 0
    _within_ceiling(tuples, "column-set tuples", ceiling)
    _within_ceiling(t, "symbols in a column-set tuple", ceiling)
    # k**t >= 2**t is above the row count unless k == 1 or t is below the
    # count's bit length.  Past that it is not formed: first_miscount only
    # compares it with counts of rows, for which len(rows) + 1 stands in
    if k > 1 and t >= len(rows).bit_length():
        total = len(rows) + 1
    else:
        total = k**t
    if len(rows) != total:
        # too few rows leave a tuple out, and too many repeat one or hold a
        # stray symbol, so the first column set fails and is the only one read
        cols = tuple(range(t))
        return _strength_failure(cols, [row[:t] for row in rows], k, total, t)
    table = list(zip(*rows))
    # an array holding a stray symbol has no base-k keys, so each of its
    # column sets is counted as tuples
    stray = not all(map(range(k).__contains__, set(chain.from_iterable(table))))
    if not stray:
        # the rows of a column set read as base-k ints, one per row, are
        # distinct exactly when they carry every t-tuple once.  scaled[j]
        # holds the columns that can stand at place j < t - 1 times that
        # place's weight k**(t-1-j); the last place is the column itself
        span = array.columns - t + 1
        scaled = [
            [list(map(mul, table[c], repeat(k ** (t - 1 - j)))) for c in range(j, span + j)]
            for j in range(t - 1)
        ]
    for cols in combinations(range(array.columns), t):
        if not stray:
            keys = table[cols[-1]]
            for j in range(t - 1):
                keys = map(add, keys, scaled[j][cols[j] - j])
            if len(set(keys)) == total:
                continue
        report = _strength_failure(cols, list(zip(*(table[c] for c in cols))), k, total, t)
        if report is not None:
            return report
    return VerificationReport(True, "oa", stats={"strength": t})


def _strength_failure(cols, keys, k, total, t):
    """The report on the first symbol tuple that the t-tuple keys of column
    set cols hold other than once, or None when they hold each of the
    `total` tuples over 0..k-1 once.  first_miscount trusts that every key
    is over those symbols, so only keys holding another symbol (1.5 and -1
    alike) are filtered; each distinct symbol is looked up once."""
    symbols = range(k)
    stray = not all(map(symbols.__contains__, set(chain.from_iterable(keys))))
    inside = [key for key in keys if all(s in symbols for s in key)] if stray else keys
    # the walk stops by the (len(keys) + 1)-th tuple in order, since every
    # tuple before the first miscount is held once; those tuples are the
    # first of the walk over the lower symbols too, so product lists no more
    # than len(keys) + 1 symbols however large k is
    walk = range(min(k, len(keys) + 1))
    miss = first_miscount(inside, total, lambda: product(walk, repeat=t))
    if miss is None and len(inside) < len(keys):
        bad = min(set(keys).difference(inside))
        miss = bad, keys.count(bad)
    if miss is None:
        return None
    syms, c = miss
    ce = Counterexample(
        kind="strength",
        detail=f"columns {cols} carry {syms} {c} times, want exactly 1",
        count=c,
        columns=cols,
        symbols=syms,
    )
    return VerificationReport(False, "oa", ce, {"strength": t})
