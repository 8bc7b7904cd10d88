"""Orthogonal arrays: constructions, strength checks, and reference data."""

from __future__ import annotations

import hashlib
import math
import random
import time
from itertools import combinations, product

import pytest

import design_forge.oa as oa_module
from design_forge import (
    NotPrimePower,
    OrthogonalArray,
    StrengthExceedsColumns,
    VerificationLimitExceeded,
    field_create,
    mols_complete,
    oa_extended,
    oa_square,
    oa_sum,
    oa_to_text,
    report_to_json,
    verify_oa,
)
from design_forge.core import first_miscount
from design_forge.verify import Counterexample, VerificationReport, _within_ceiling, _word_ceiling
from tests.conftest import load_oa, reference_field

ORDERS = [2, 3, 4, 5, 7, 8, 9]
PINNED_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def _affine(q):
    """f(a, x, b) = a*x + b in GF(q), by the schoolbook reference field over
    the package's modulus."""
    field = field_create(q)
    add, mul, _, _ = reference_field(field.p, field.modulus)
    return lambda a, x, b: add[mul[a][x]][b]


@pytest.mark.parametrize("q", ORDERS)
def test_oa_square_shape_and_strength(q):
    array = oa_square(q)
    assert (array.strength, array.columns, array.alphabet) == (2, q, q)
    assert len(array.rows) == q * q
    assert verify_oa(array, 2).ok


@pytest.mark.parametrize("q", ORDERS)
def test_oa_square_constant_rows_first(q):
    array = oa_square(q)
    for b in range(q):
        assert array.rows[b] == (b,) * q


def test_oa_square_3_frozen():
    # Row (a, b) evaluates a*x + b on x = 0, 1, 2 mod 3; enumerated by hand.
    assert oa_square(3).rows == (
        (0, 0, 0), (1, 1, 1), (2, 2, 2),
        (0, 1, 2), (1, 2, 0), (2, 0, 1),
        (0, 2, 1), (1, 0, 2), (2, 1, 0),
    )


@pytest.mark.parametrize("q", ORDERS)
def test_oa_extended_shape_and_strength(q):
    array = oa_extended(q)
    assert (array.strength, array.columns, array.alphabet) == (2, q + 1, q)
    assert len(array.rows) == q * q
    assert verify_oa(array, 2).ok


def test_oa_extended_2_frozen():
    # Rows (a, b) give (b, a+b) plus the multiplier a appended last.
    assert oa_extended(2).rows == ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))


@pytest.mark.parametrize("q", PINNED_ORDERS)
def test_oa_square_rows_are_a_x_plus_b(q):
    f = _affine(q)
    assert oa_square(q).rows == tuple(
        tuple(f(a, x, b) for x in range(q)) for a, b in product(range(q), repeat=2)
    )


@pytest.mark.parametrize("q", PINNED_ORDERS)
def test_oa_extended_rows_are_a_x_plus_b_then_a(q):
    f = _affine(q)
    assert oa_extended(q).rows == tuple(
        tuple(f(a, x, b) for x in range(q)) + (a,) for a, b in product(range(q), repeat=2)
    )


@pytest.mark.parametrize("q", PINNED_ORDERS)
def test_mols_complete_squares_are_a_i_plus_j(q):
    f = _affine(q)
    squares = mols_complete(q)
    assert [s.order for s in squares] == [q] * (q - 1)
    assert [s.grid for s in squares] == [
        tuple(tuple(f(a, i, j) for j in range(q)) for i in range(q)) for a in range(1, q)
    ]


@pytest.mark.parametrize("q", [6, 10, 12])
def test_oa_constructions_need_prime_powers(q):
    with pytest.raises(NotPrimePower):
        oa_square(q)
    with pytest.raises(NotPrimePower):
        oa_extended(q)


@pytest.mark.parametrize("t", [2, 3, 4])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_oa_sum_strength(t, k):
    array = oa_sum(t, k)
    assert (array.strength, array.columns, array.alphabet) == (t - 1, t, k)
    assert len(array.rows) == k ** (t - 1)
    assert verify_oa(array, t - 1).ok
    for row in array.rows:
        assert sum(row) % k == 0


def test_oa_sum_rejects_bad_parameters():
    with pytest.raises(ValueError):
        oa_sum(1, 3)
    with pytest.raises(ValueError):
        oa_sum(3, 1)


@pytest.mark.parametrize(
    "build, args, entries",
    [(oa_square, (3,), 27), (oa_extended, (3,), 36), (oa_sum, (3, 4), 48)],
)
def test_oa_entries_are_held_to_the_ceiling(monkeypatch, build, args, entries):
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", str(entries - 1))
    with pytest.raises(
        VerificationLimitExceeded,
        match=f"^{entries} array entries exceed the ceiling {entries - 1}$",
    ):
        build(*args)
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", str(entries))
    array = build(*args)
    assert len(array.rows) * array.columns == entries


def _built(*args):
    raise AssertionError("a field table or row was built before the ceiling check")


@pytest.mark.parametrize(
    "build, args, entries",
    [
        (oa_square, (2048,), 2048**3),
        (oa_extended, (1024,), 1024**2 * 1025),
        (oa_sum, (12, 10), 10**11 * 12),
        # the squares are read from oa_square(503), whose q^3 entries are
        # refused before GF(503)'s tables are built
        (mols_complete, (503,), 503**3),
    ],
)
def test_oa_refuses_before_building_anything(monkeypatch, build, args, entries):
    monkeypatch.delenv("DESIGN_FORGE_MAX_WORDS", raising=False)
    monkeypatch.setattr(oa_module, "field_create", _built)
    monkeypatch.setattr(oa_module, "product", _built)
    with pytest.raises(
        VerificationLimitExceeded,
        match=f"^{entries} array entries exceed the ceiling 100000000$",
    ):
        build(*args)


@pytest.mark.parametrize(
    "args, ceiling, message",
    [
        ((10**7, 10), None, "10^9999999 * 10000000 array entries exceed the ceiling 100000000"),
        ((10**5, 10), None, "10^99999 * 100000 array entries exceed the ceiling 100000000"),
        # 2^4096 is where the count is named as a power ...
        ((4097, 2), None, "2^4096 * 4097 array entries exceed the ceiling 100000000"),
        # ... and only once it is past the ceiling too
        ((5100, 2), 2**5000, f"2^5099 * 5100 array entries exceed the ceiling {2**5000}"),
        # below, the count is written out
        ((4096, 2), None, f"{2**4095 * 4096} array entries exceed the ceiling 100000000"),
    ],
)
def test_oa_sum_names_a_huge_count_as_a_power(monkeypatch, args, ceiling, message):
    if ceiling is None:
        monkeypatch.delenv("DESIGN_FORGE_MAX_WORDS", raising=False)
    else:
        monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", str(ceiling))
    monkeypatch.setattr(oa_module, "product", _built)
    with pytest.raises(VerificationLimitExceeded) as err:
        oa_sum(*args)
    assert str(err.value) == message


# sha256 of oa_to_text(oa_square(q)), oa_to_text(oa_extended(q)) and
# repr(mols_complete(q)): all three read the rows of oa_square
AFFINE_ARRAY_DIGESTS = {
    2: (
        "48ac6523f8b3066463d707418505990d3d131c96fbdb31ce16e546c7f13ef1ad",
        "abe68ead05fa07b72d58c1ef7b874f069f832702491a71e2d75e8964cab588c6",
        "b094278d4b6938daf3bfddd84a6c0282849939e6d1ae470e92867f6e784899f2",
    ),
    3: (
        "55ce737d9b35b098295660d35086e3f79c5dcfbb566c0dea39fbea3ebca01f0e",
        "9ff5ba01ddfb73e40109742f06ffd2049aa2014056d6962801dbbdd0f2d93b73",
        "50c261bd5066f6d40fe5c499471b1dd68dc92528c91bfba0ebe525805dcdb439",
    ),
    4: (
        "f9034ceb385112c5508c7d0262021996ea0a60ff1bd0f85ef7daf90f07e74875",
        "8fbddcdf440428dda4416bb8513c990c90d706393a0e27a28ebcab664c7c64e4",
        "84e0e0b9a099ecf9871f3aa09ae6850c9d894867aa81b8b2a34005dcdbf0985e",
    ),
    5: (
        "2ae344d9531ea03b7f2d7c00781accba7d05eda83b1568a72857349eab2b3029",
        "d9659d44b5be9a25cdf66e9b67dd18ffcfb26883a5b9887c1924a00dbb654765",
        "c07ff1ccd25b3938ba33f0973809163ed0a9745fea2a884295ccf65956afb04d",
    ),
    7: (
        "14da0dbf755b7d889cda6d22d6e3ad588d5cd269c3dd62caac14059caac22e9e",
        "834190e6635fe8347edf4d3635510d29c78e263fc7708b624e84cbb932c3d193",
        "1550806c2411cd7511b8ae83d6f47a27fea7be16d5673a6a7dce497acb7ddab9",
    ),
    8: (
        "bc91cf82174de3545a95f4a6746d3db82d92cabdea6d5567b11d1ddf0d5c991f",
        "7c3df089eca7910c76683e4f4cdc8f75270011236bee50cc7790a5bc213cc349",
        "aeff6dba512c34345a6f394707d8b41b24f9019027a3f68000d6e500acdb3d64",
    ),
    9: (
        "ecc864e0089caf4c90356d3e38f8642f044f18d4dcddf60caf40258b8962adec",
        "122ab9e095a107eafe44c80edd78660668cb6c0da748409cfaec0700ca71e1df",
        "32a31d6b185254c9765a15f76cbd94fc86a6d55aebddf7465a786df4c1f57429",
    ),
    16: (
        "4c85ce09acbd9ba3c18770627a5b68ff2a68f098dd6afdc429155a9079a2d70b",
        "893eb5faf0623019ee518c0c20782d30193fdf013b9c917e2a9a03ecd3305951",
        "8a760853aa386a0a7853e6c7e7e26f8163f2dcb2f8e57954891e8df5c1c7d1e7",
    ),
}


@pytest.mark.parametrize("q", sorted(AFFINE_ARRAY_DIGESTS))
def test_affine_arrays_and_squares_are_pinned(q):
    outputs = (oa_to_text(oa_square(q)), oa_to_text(oa_extended(q)), repr(mols_complete(q)))
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in outputs)
    assert digests == AFFINE_ARRAY_DIGESTS[q]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_mols_complete_family(q):
    squares = mols_complete(q)
    assert len(squares) == q - 1
    cells = [(i, j) for i in range(q) for j in range(q)]
    for sq in squares:
        assert sq.order == q
        for i in range(q):
            assert sorted(sq.grid[i]) == list(range(q))  # Latin rows
            assert sorted(sq.grid[j][i] for j in range(q)) == list(range(q))
    for a in range(len(squares)):
        for b in range(a + 1, len(squares)):
            pairs = {(squares[a].grid[i][j], squares[b].grid[i][j]) for i, j in cells}
            assert len(pairs) == q * q  # orthogonal


def test_verify_oa_reports_first_violation():
    array = oa_square(3)
    rows = [list(r) for r in array.rows]
    rows[4][1] = (rows[4][1] + 1) % 3  # perturb one cell
    bad = OrthogonalArray(2, 3, 3, tuple(tuple(r) for r in rows))
    report = verify_oa(bad, 2)
    assert not report.ok
    assert report.claim == "oa"
    ce = report.counterexample
    assert ce.kind == "strength"
    # re-check the counterexample independently: count the reported tuple
    count = sum(
        1
        for row in bad.rows
        if tuple(row[c] for c in ce.columns) == ce.symbols
    )
    assert count == ce.count
    assert count != 1


def test_verify_oa_strength_too_high_for_rows():
    # 9 rows cannot have strength 3 over 3 symbols (27 tuples needed)
    report = verify_oa(oa_square(3), 3)
    assert not report.ok
    assert report.claim == "oa"
    assert report.stats == {"strength": 3}


def test_verify_oa_rejects_bad_strength_requests():
    with pytest.raises(ValueError):
        verify_oa(oa_square(3), 0)
    with pytest.raises(StrengthExceedsColumns):
        verify_oa(oa_square(3), 4)


@pytest.mark.parametrize(
    "columns, rows, named",
    [
        (2, ((0, 0), (1, 5)), (1, 5)),
        (1, ((0,), (1,), (2,)), (2,)),
        # a symbol between 0 and k-1 that is not one of them is out of range too
        (1, ((0,), (1.5,)), (1.5,)),
        (1, ((0,), (1,), (1.5,)), (1.5,)),
        (2, ((0, 0), (1, -1)), (1, -1)),
        # the first row holding any stray symbol is named, not the first row
        # holding the least one
        (2, ((0, 0), (1, 7), (0, 5)), (1, 7)),
    ],
)
def test_orthogonal_array_refuses_symbols_outside_its_alphabet(columns, rows, named):
    with pytest.raises(ValueError) as info:
        OrthogonalArray(1, columns, 2, rows)
    assert str(info.value) == f"row {named} has symbols outside 0..1"


def test_orthogonal_array_refuses_a_float_symbol_in_one_pass_over_the_range():
    # 1.5 in range(10**7) is a linear scan; the row is found from the
    # stray symbol already known, so the range is scanned once
    rows = ((0, 0),) + tuple((1.5, s) for s in range(1, 5))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^row \(1\.5, 1\) has symbols outside 0\.\.9999999$"):
        OrthogonalArray(1, 2, 10**7, rows)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("values, scans", [((1.5,) * 4, 1), ((0.5, 1.5, 2.5, 3.5), 2)])
def test_orthogonal_array_names_a_row_from_the_stray_already_found(values, scans):
    # a float is looked up in range(alphabet) by comparing it with each of
    # the 1000 symbols in turn.  Equal strays cost that scan once; distinct
    # ones cost one more only when the stray found first is not in the
    # first row that holds one.  A few other comparisons come from the set
    # of distinct symbols and the row walk
    compared = []

    class Symbol(float):
        __hash__ = float.__hash__

        def __eq__(self, other):
            compared.append(other)
            return float.__eq__(self, other)

    rows = ((0,),) + tuple((Symbol(v),) for v in values)
    with pytest.raises(ValueError) as info:
        OrthogonalArray(1, 1, 1000, rows)
    assert str(info.value) == f"row ({values[0]},) has symbols outside 0..999"
    assert len(compared) <= scans * 1000 + 2 * len(rows)


def test_orthogonal_array_rejects_rows_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"row \(1,\) has 1 entries, not 2"):
        OrthogonalArray(1, 2, 2, ((0, 0), (1,)))
    with pytest.raises(ValueError, match=r"row \(1, 1, 0\)"):
        OrthogonalArray(1, 2, 2, ((0, 0), (1, 1, 0)))


def test_verify_oa_word_ceiling(monkeypatch):
    # oa_extended(4) at strength 2: C(5, 2) column sets x 16 rows = 160 tuples
    array = oa_extended(4)
    with pytest.raises(VerificationLimitExceeded, match="160 column-set tuples"):
        verify_oa(array, 2, max_words=159)
    assert verify_oa(array, 2, max_words=160).ok
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", "100")
    with pytest.raises(VerificationLimitExceeded):
        verify_oa(array, 2)


def test_verify_oa_names_an_unfinished_tuple_count():
    # C(6, 3) x 16 = 320 is built as 16 * 6 = 96, then 96 * 5 / 2 = 240,
    # then 240 * 4 / 3: past a ceiling of 200 before the last step the count
    # is named, while one it completes keeps its digits
    array = OrthogonalArray(1, 6, 2, ((0,) * 6,) * 16)
    with pytest.raises(VerificationLimitExceeded) as info:
        verify_oa(array, 3, max_words=200)
    assert str(info.value) == "C(6, 3) * 16 column-set tuples exceed the ceiling 200"
    with pytest.raises(VerificationLimitExceeded) as info:
        verify_oa(array, 3, max_words=319)
    assert str(info.value) == "320 column-set tuples exceed the ceiling 319"
    assert not verify_oa(array, 3, max_words=320).ok
    # C(6, 5) = C(6, 1): one step
    with pytest.raises(VerificationLimitExceeded, match="^96 column-set tuples"):
        verify_oa(array, 5, max_words=95)


def test_reference_array_16x4(fixture_a):
    # The transcribed 16x4 strength-2 array over Z_4 equals our generated
    # one as a row set (it lists the same affine evaluations, ordered
    # differently).
    assert (fixture_a.columns, fixture_a.alphabet) == (4, 4)
    assert len(fixture_a.rows) == 16
    assert verify_oa(fixture_a, 2).ok
    assert sorted(fixture_a.rows) == sorted(oa_square(4).rows)
    assert fixture_a.rows[:4] == tuple((b,) * 4 for b in range(4))


def test_reference_array_9x4(fixture_d):
    # The transcribed 9x4 strength-2 array over Z_3 is our extended array
    # with the extra column moved from last to first: rotating each row left
    # must reproduce oa_extended(3) row for row.
    assert (fixture_d.columns, fixture_d.alphabet) == (4, 3)
    assert len(fixture_d.rows) == 9
    assert verify_oa(fixture_d, 2).ok
    rotated = tuple(row[1:] + row[:1] for row in fixture_d.rows)
    assert rotated == oa_extended(3).rows


def test_fixture_loader_roundtrip():
    array = load_oa("a_k4.oa")
    assert array.strength == 2 and len(array.rows) == 16


def test_orthogonal_array_refuses_an_empty_alphabet():
    with pytest.raises(ValueError, match="^alphabet must be >= 1, got 0$"):
        OrthogonalArray(2, 30000, 0, ())
    assert OrthogonalArray(1, 2, 1, ((0, 0),)).alphabet == 1


def _reference_verify_oa(array, t, max_words=None):
    """verify_oa as it was before its accept test read base-k keys: every
    column set's rows become tuple keys counted by first_miscount."""
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


def _edited_rows(array, edit, seed):
    """The rows of the array with one seeded edit: a row deleted or
    duplicated, a cell changed to another symbol or set to a given value,
    two cells of one column swapped (which keeps every column's symbol
    counts), or every row gone."""
    rng = random.Random(f"{seed}:{edit}")
    rows = [list(row) for row in array.rows]
    i, c = rng.randrange(len(rows)), rng.randrange(array.columns)
    k = array.alphabet
    if edit == "delete":
        del rows[i]
    elif edit == "duplicate":
        rows.insert(rng.randrange(len(rows) + 1), list(rows[i]))
    elif edit == "change":
        rows[i][c] = (rows[i][c] + rng.randrange(1, k)) % k
    elif edit == "swap":
        j = rng.randrange(len(rows))
        rows[i][c], rows[j][c] = rows[j][c], rows[i][c]
    elif edit == "empty":
        rows = []
    elif edit != "none":
        rows[i][c] = {"-1": -1, "k": k, "1.5": 1.5, "True": True}[edit]
    return tuple(map(tuple, rows))


def _edited(array, edit, seed):
    rows = _edited_rows(array, edit, seed)
    return OrthogonalArray(array.strength, array.columns, array.alphabet, rows)


def _outcome(verify, array, t):
    try:
        return report_to_json(verify(array, t))
    except (ValueError, StrengthExceedsColumns) as exc:
        return type(exc).__name__, str(exc)


REFERENCE_ARRAYS = (
    [(f"square-{q}", oa_square, (q,)) for q in ORDERS]
    + [(f"extended-{q}", oa_extended, (q,)) for q in ORDERS]
    + [(f"sum-{t}-{k}", oa_sum, (t, k)) for t, k in [(2, 2), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]]
)
EDITS = ["none", "delete", "duplicate", "change", "swap", "True", "empty"]


@pytest.mark.parametrize("edit", EDITS)
@pytest.mark.parametrize("build, args", [a[1:] for a in REFERENCE_ARRAYS], ids=[a[0] for a in REFERENCE_ARRAYS])
def test_verify_oa_matches_the_tuple_count_reference(build, args, edit):
    base = build(*args)
    for seed in range(2):
        array = _edited(base, edit, seed)
        for t in (1, 2, 3):
            assert _outcome(verify_oa, array, t) == _outcome(_reference_verify_oa, array, t)


def _equal_sum_group():
    # the four rows with symbol 1 at column 0 of OA(2, 5, 4) get 2, 1, 0, 0
    # there instead: 2**2 + 2**1 + 2**0 + 2**0 equals the 4 * 2**1 of a pure
    # group, but groups 0 and 2 of column 0 now hold 6 and 5 rows
    rows = [list(row) for row in oa_extended(4).rows]
    for row, symbol in zip([row for row in rows if row[0] == 1], (2, 1, 0, 0)):
        row[0] = symbol
    return OrthogonalArray(2, 5, 4, tuple(map(tuple, rows)))


def _last_column_repeated():
    # OA(2, 4, 4) with its last column appended again: only the last pair
    # of columns, read from the signatures of the next-to-last, fails
    return OrthogonalArray(2, 5, 4, tuple(row + row[-1:] for row in oa_square(4).rows))


@pytest.mark.parametrize("build", [_equal_sum_group, _last_column_repeated])
def test_verify_oa_matches_the_reference_on_hand_made_failures(build):
    array = build()
    for t in (1, 2, 3):
        assert _outcome(verify_oa, array, t) == _outcome(_reference_verify_oa, array, t)
    assert not verify_oa(array, 2).ok


@pytest.mark.parametrize("edit", ["-1", "k", "1.5"])
@pytest.mark.parametrize("build, args", [a[1:] for a in REFERENCE_ARRAYS], ids=[a[0] for a in REFERENCE_ARRAYS])
def test_orthogonal_array_refuses_an_edit_outside_its_alphabet(build, args, edit):
    base = build(*args)
    k = base.alphabet
    for seed in range(2):
        rows = _edited_rows(base, edit, seed)
        inside = [all(type(s) is int and 0 <= s < k for s in row) for row in rows]
        named = rows[inside.index(False)]
        with pytest.raises(ValueError) as info:
            OrthogonalArray(base.strength, base.columns, k, rows)
        assert str(info.value) == f"row {named} has symbols outside 0..{k - 1}"


@pytest.mark.parametrize("build, args", [a[1:] for a in REFERENCE_ARRAYS], ids=[a[0] for a in REFERENCE_ARRAYS])
def test_built_arrays_skip_the_check_they_would_pass(monkeypatch, build, args):
    # oa_square, oa_extended and oa_sum make their arrays without
    # OrthogonalArray's check of every row; each array is one the check
    # accepts as it stands: a tuple of int tuples of `columns` entries
    array = build(*args)
    assert type(array.rows) is tuple
    assert all(
        type(row) is tuple and len(row) == array.columns and all(type(s) is int for s in row)
        for row in array.rows
    )
    assert OrthogonalArray(array.strength, array.columns, array.alphabet, array.rows) == array

    def checked(self):
        raise AssertionError("a built array was checked row by row")

    monkeypatch.setattr(OrthogonalArray, "__post_init__", checked)
    assert build(*args) == array
    with pytest.raises(AssertionError, match="row by row"):
        OrthogonalArray(array.strength, array.columns, array.alphabet, array.rows)


@pytest.mark.parametrize("build, args", [a[1:] for a in REFERENCE_ARRAYS], ids=[a[0] for a in REFERENCE_ARRAYS])
def test_verify_oa_accepts_without_counting_tuples(monkeypatch, build, args):
    # an array of alphabet^t rows over 0..alphabet-1 is accepted by its base-k
    # keys alone; the tuple count runs only for a column set they reject
    def counted(*args):
        raise AssertionError("a column set of a valid array was counted as tuples")

    array = build(*args)
    monkeypatch.setattr(oa_module, "first_miscount", counted)
    assert verify_oa(array, array.strength).ok


@pytest.mark.parametrize("build, args", [a[1:] for a in REFERENCE_ARRAYS], ids=[a[0] for a in REFERENCE_ARRAYS])
def test_verify_oa_reads_signatures_when_no_more_symbols_than_columns(monkeypatch, build, args):
    # at t = 2 an array with alphabet <= columns is read by row signatures,
    # which pass every column of a valid array; any other array and t are
    # read by keys alone
    array = build(*args)
    table = list(zip(*array.rows))
    signature_misses = oa_module._signature_misses
    read = []

    def spied(table, k):
        read.append(k)
        return signature_misses(table, k)

    monkeypatch.setattr(oa_module, "_signature_misses", spied)
    for t in range(1, min(3, array.columns) + 1):
        verify_oa(array, t)
    wide = array.strength == 2 and array.alphabet <= array.columns
    assert read == ([array.alphabet] if wide else [])
    if wide:
        assert list(signature_misses(table, array.alphabet)) == []


def test_verify_oa_reads_one_column_set_when_the_row_count_is_wrong():
    # C(10^8, 2) column sets of no rows: the first already misses (0, 0)
    array = OrthogonalArray(2, 10**8, 2, ())
    report = verify_oa(array, 2)
    assert report_to_json(report) == (
        '{"columns":[0,1],"count":0,"ok":false,"strength":2,"symbols":[0,0]}\n'
    )
    # one extra row: the repeat is found in columns (0, 1, 2) at strength 3
    rows = oa_sum(4, 2).rows
    report = verify_oa(OrthogonalArray(3, 4, 2, rows + rows[-1:]), 3)
    assert report.counterexample.columns == (0, 1, 2)
    assert report.counterexample.count == 2
