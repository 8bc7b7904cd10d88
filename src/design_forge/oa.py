"""Latin squares and orthogonal arrays over finite fields.

An OA(t, n, k) here is a k^t x n integer matrix over symbols 0..k-1 in which
every t columns, restricted to the rows, hit every t-tuple exactly once.
Constructions are deterministic: rows are emitted in (a, b) lexicographic
order, so the q constant rows of oa_square(q) (multiplier a = 0) come first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

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
    C(columns, t) x rows tuples read are bounded by the verifiers' ceiling."""
    if t < 1:
        raise ValueError("strength must be >= 1")
    if t > array.columns:
        raise StrengthExceedsColumns(
            f"strength {t} exceeds {array.columns} columns"
        )
    tuples = math.comb(array.columns, t) * len(array.rows)
    _within_ceiling(tuples, "column-set tuples", _word_ceiling(max_words))
    k = array.alphabet
    symbols = range(k)
    table = [[row[c] for row in array.rows] for c in range(array.columns)]
    # first_miscount trusts that every key is over 0..k-1, so only an array
    # holding another symbol (1.5 and -1 alike) filters its keys
    stray = not all(s in symbols for column in table for s in column)
    for cols in combinations(range(array.columns), t):
        keys = list(zip(*(table[c] for c in cols)))
        inside = [key for key in keys if all(s in symbols for s in key)] if stray else keys
        miss = first_miscount(inside, k**t, lambda: product(symbols, repeat=t))
        if miss is None and len(inside) < len(keys):
            bad = min(set(keys).difference(inside))
            miss = bad, keys.count(bad)
        if miss is not None:
            syms, c = miss
            ce = Counterexample(
                kind="strength",
                detail=f"columns {cols} carry {syms} {c} times, want exactly 1",
                count=c,
                columns=cols,
                symbols=syms,
            )
            return VerificationReport(False, "oa", ce, {"strength": t})
    return VerificationReport(True, "oa", stats={"strength": t})
