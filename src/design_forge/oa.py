"""Latin squares and orthogonal arrays over finite fields.

An OA(t, n, k) here is a k^t x n integer matrix over symbols 0..k-1 in which
every t columns, restricted to the rows, hit every t-tuple exactly once.
Constructions are deterministic: rows are emitted in (a, b) lexicographic
order, so the q constant rows of oa_square(q) (multiplier a = 0) come first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, filterfalse, product, repeat
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
        """The check of every direct call and of oa_from_text: row lengths
        and symbols in 0..alphabet-1.  oa_square, oa_extended and oa_sum
        skip it through _built_array: their rows are tuples of `columns`
        ints that field arithmetic (GF(q)) or arithmetic mod k keeps in
        range(alphabet)."""
        if self.alphabet < 1:
            raise ValueError(f"alphabet must be >= 1, got {self.alphabet}")
        for row in self.rows:
            if len(row) != self.columns:
                raise ValueError(f"row {row} has {len(row)} entries, not {self.columns}")
        # each distinct symbol is looked up in range(alphabet) once (True is
        # 1).  A non-int lookup scans the range, so the walk that names the
        # first row breaking the rule starts from the stray already found
        inside = range(self.alphabet).__contains__
        for stray in filterfalse(inside, set(chain.from_iterable(self.rows))):
            row = next(r for r in self.rows if stray in r or not all(map(inside, r)))
            raise ValueError(f"row {row} has symbols outside 0..{self.alphabet - 1}")


def _built_array(strength: int, columns: int, alphabet: int, rows) -> OrthogonalArray:
    """An OrthogonalArray of rows that already pass its check as they
    stand: tuples of `columns` ints in range(alphabet).  __post_init__ is
    not run, so only a builder whose arithmetic establishes that calls this."""
    array = object.__new__(OrthogonalArray)
    vars(array).update(strength=strength, columns=columns, alphabet=alphabet, rows=rows)
    return array


def mols_complete(q: int) -> list[LatinSquare]:
    """The complete family of q-1 mutually orthogonal Latin squares
    L_a(i, j) = a*i + j over GF(q), for a = 1..q-1: entry (i, j) of L_a is
    column i of oa_square(q)'s row (a, j), so L_a is the transpose of the q
    rows of multiplier a, and oa_square's ceiling applies."""
    rows = oa_square(q).rows
    return [LatinSquare(q, tuple(zip(*rows[a * q:a * q + q]))) for a in range(1, q)]


def oa_square(q: int) -> OrthogonalArray:
    """OA(2, q, q): row (a, b) holds a*x_i + b at column i for x_i = i in GF(q).
    Its q^2 x q entries are held to the word ceiling before the field is built.
    The row is read off the field's tables: mul_table[a] lists a*x over the
    columns, and add_table[b] maps each product to itself plus b."""
    _within_ceiling(q * q * q, "array entries", _word_ceiling(None))
    f = field_create(q)
    add = f.add_table
    rows = tuple(
        tuple(map(add[b].__getitem__, products))
        for products in f.mul_table for b in range(q)
    )
    return _built_array(2, q, q, rows)


def oa_extended(q: int) -> OrthogonalArray:
    """OA(2, q+1, q): oa_square(q) rows with the multiplier a appended as an
    extra last column.  Its q^2 x (q+1) entries are held to the word ceiling
    before the field is built."""
    _within_ceiling(q * q * (q + 1), "array entries", _word_ceiling(None))
    rows = tuple(row + (i // q,) for i, row in enumerate(oa_square(q).rows))
    return _built_array(2, q + 1, q, rows)


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
    return _built_array(t - 1, t, k, rows)


def verify_oa(
    array: OrthogonalArray, t: int, max_words: int | None = None
) -> VerificationReport:
    """Exhaustively check strength t: every t columns must carry every t-tuple
    over 0..alphabet-1 exactly once.  On failure the first violation in
    (column set, symbol tuple) lexicographic order is reported.  The
    C(columns, t) x rows tuples read, and the t symbols of the tuple a
    failure names, are bounded by the verifiers' ceiling.  A column set is
    accepted when its rows, read as base-k keys, are distinct; only a set
    they cannot accept is counted as tuples, and an array of other than
    alphabet^t rows reads one set.  At t = 2 with no more symbols than
    columns (OA(2, q, q) and OA(2, q+1, q)), each column is first tested
    against all others at once by row signatures (_signature_misses), and
    only the pairs (a, b), b > a, of a column a that fails are read by
    keys.  Narrower arrays and t >= 3 read every column set by keys."""
    if t < 1:
        raise ValueError("strength must be >= 1")
    if t > array.columns:
        raise StrengthExceedsColumns(
            f"strength {t} exceeds {array.columns} columns"
        )
    k, rows = array.alphabet, array.rows
    ceiling = _word_ceiling(max_words)
    _column_set_tuples(array.columns, t, len(rows), ceiling)
    _within_ceiling(t, "symbols in a column-set tuple", ceiling)
    # k**t >= 2**t is above the row count unless k == 1 or t is below the
    # count's bit length.  Past that it is not formed: first_miscount only
    # compares it with counts of rows, for which len(rows) + 1 stands in
    if k > 1 and t >= len(rows).bit_length():
        total = len(rows) + 1
    else:
        total = k**t
    if len(rows) != total:
        # too few rows leave a tuple out and too many repeat one, so the
        # first column set fails and is the only one read
        cols = tuple(range(t))
        return _strength_failure(cols, [row[:t] for row in rows], k, total, t)
    table = list(zip(*rows))
    if t == 2 and k <= array.columns:
        # a column the signatures pass carries every pair with every other
        # column, so a pair (b, a) with b < a passed at b; only the pairs
        # (a, b), b > a, of a column they miss are read
        sets = (
            (a, b) for a in _signature_misses(table, k) for b in range(a + 1, array.columns)
        )
    else:
        sets = combinations(range(array.columns), t)

    # the rows of a column set read as base-k ints, one per row, are
    # distinct exactly when they carry every t-tuple once.  scaled(j, c) is
    # column c standing at place j < t - 1, times that place's weight
    # k**(t-1-j); the last place is the column itself
    @cache
    def scaled(j, c):
        return list(map(mul, table[c], repeat(k ** (t - 1 - j))))

    for cols in sets:
        keys = table[cols[-1]]
        for j in range(t - 1):
            keys = map(add, keys, scaled(j, cols[j]))
        if len(set(keys)) != total:
            return _strength_failure(cols, list(zip(*(table[c] for c in cols))), k, total, t)
    return VerificationReport(True, "oa", stats={"strength": t})


def _signature_misses(table, k):
    """Yield each column a < n - 1 of an array of k*k rows over 0..k-1 (as
    the columns `table`) that does not carry every symbol pair once with
    every other column.  Each row is one int, its signature: field c, w =
    k + bits(k) + 1 bits wide, holds bit y when the row has symbol y at
    column c.  The rows are grouped by their symbol x at a, and the column
    passes when every group holds k rows and sums to k * 2**x at field a
    and 2**k - 1 at every other field.  k rows put at most k * 2**(k-1) <
    2**w in a field, so no sum spills into the next field, and k powers of
    two below 2**k sum to 2**k - 1 only when they are distinct: in group
    x every other column holds every symbol once."""
    w = k + k.bit_length() + 1
    fields = range(0, len(table) * w, w)
    signatures = list(map(sum, zip(*(
        map([1 << f + y for y in range(k)].__getitem__, column)
        for f, column in zip(fields, table)
    ))))
    every = (1 << k) - 1
    full = every * sum(1 << f for f in fields)
    sizes = [k] * k
    for a, f in enumerate(fields[:-1]):
        groups = [[] for _ in range(k)]
        any(map(list.append, map(groups.__getitem__, table[a]), signatures))
        rest = full - (every << f)
        if list(map(len, groups)) != sizes or list(map(sum, groups)) != [
            rest + (k << f + x) for x in range(k)
        ]:
            yield a


def _column_set_tuples(columns: int, t: int, rows: int, ceiling: int) -> int:
    """C(columns, t) x rows held to the ceiling, built one factor at a time
    (no rows make it 0 at once).  C(columns, i) grows with i up to columns / 2,
    so a partial count past the ceiling is named, not completed."""
    count = rows
    for i in range(min(t, columns - t) if rows else 0):
        if count > ceiling:
            raise VerificationLimitExceeded(
                f"C({columns}, {t}) * {rows} column-set tuples exceed the ceiling {ceiling}"
            )
        count = count * (columns - i) // (i + 1)
    return _within_ceiling(count, "column-set tuples", ceiling)


def _strength_failure(cols, keys, k, total, t):
    """The report on the first symbol tuple that the t-tuple keys of column
    set cols hold other than once, of the `total` tuples over 0..k-1."""
    # the walk stops by the (len(keys) + 1)-th tuple in order, since every
    # tuple before the first miscount is held once; those tuples are the
    # first of the walk over the lower symbols too, so product lists no more
    # than len(keys) + 1 symbols however large k is
    walk = range(min(k, len(keys) + 1))
    syms, c = first_miscount(keys, total, lambda: product(walk, repeat=t))
    ce = Counterexample(
        kind="strength",
        detail=f"columns {cols} carry {syms} {c} times, want exactly 1",
        count=c,
        columns=cols,
        symbols=syms,
    )
    return VerificationReport(False, "oa", ce, {"strength": t})
