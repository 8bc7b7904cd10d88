"""Large sets, the hole-coordinate fold/slice transforms, and the catalog."""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb

import pytest

from design_forge import (
    Codeword,
    CopyCountMismatch,
    LargeSet,
    LargeSetInvalid,
    MixedAlphabet,
    MixedDesign,
    TypeMismatch,
    VerificationLimitExceeded,
    covers,
    design_to_json,
    gdd_catalog,
    gdd_to_largeset,
    gdd_type_of,
    largeset_to_gdd,
    largeset_to_json,
    ms_bound_check,
    verify_gdd,
    verify_large_set,
)
from design_forge import constructions
from tests.conftest import build_sum_large_set, build_toy_large_set


def test_fold_toy_large_set(toy_large_set):
    design = largeset_to_gdd(toy_large_set)
    assert design.alphabet.sizes == (3, 3, 3, 3)
    assert (design.t, design.k) == (3, 4)
    assert len(design.blocks) == 8
    assert str(gdd_type_of(design)) == "2^4"  # groups 2^3 and hole 2^1 merge
    assert verify_gdd(design).ok
    # every block carries its copy index at the appended hole coordinate
    for b in design.blocks:
        assert b.symbol(3) in (1, 2)


def test_roundtrip_fold_then_slice(toy_large_set):
    design = largeset_to_gdd(toy_large_set)
    back = gdd_to_largeset(design)
    assert back.alphabet.sizes == toy_large_set.alphabet.sizes
    assert (back.t, back.k, back.lam) == (2, 3, 1)
    assert len(back.copies) == len(toy_large_set.copies)
    for mine, theirs in zip(back.copies, toy_large_set.copies):
        assert sorted(mine) == sorted(theirs)


def test_slice_respects_explicit_hole_coordinate(toy_large_set):
    design = largeset_to_gdd(toy_large_set)
    # move the hole from last coordinate to position 0 by relabeling
    moved = MixedDesign(
        design.alphabet,
        design.t,
        design.k,
        tuple(
            Codeword(tuple(((c + 1) % 4, s) for c, s in b.support))
            for b in design.blocks
        ),
    )
    back = gdd_to_largeset(moved, hole_coordinate=0)
    assert len(back.copies) == 2
    assert verify_large_set(back).ok


def test_fold_rejects_wrong_block_size(toy_large_set):
    bad = LargeSet(
        toy_large_set.alphabet, 1, 3, toy_large_set.copies
    )  # k != t + 1
    with pytest.raises(TypeMismatch):
        largeset_to_gdd(bad)


def test_fold_rejects_multiplicity(toy_large_set):
    doubled = LargeSet(
        toy_large_set.alphabet,
        toy_large_set.t,
        toy_large_set.k,
        toy_large_set.copies + toy_large_set.copies,
        lam=2,
    )
    with pytest.raises(TypeMismatch):
        largeset_to_gdd(doubled)


def test_fold_rejects_nonuniform_groups():
    ls = LargeSet(MixedAlphabet((3, 3, 4)), 2, 3, ((), ()))
    with pytest.raises(TypeMismatch):
        largeset_to_gdd(ls)


def test_fold_rejects_wrong_copy_count(toy_large_set):
    truncated = LargeSet(
        toy_large_set.alphabet,
        toy_large_set.t,
        toy_large_set.k,
        toy_large_set.copies[:1],
    )
    with pytest.raises(CopyCountMismatch):
        largeset_to_gdd(truncated)


def test_fold_rejects_invalid_large_set(toy_large_set):
    c0 = toy_large_set.copies[0]
    broken = LargeSet(
        toy_large_set.alphabet, 2, 3, (c0, c0)
    )  # same copy twice: multiplicity breaks
    with pytest.raises(LargeSetInvalid) as err:
        largeset_to_gdd(broken)
    assert err.value.report is not None


def test_slice_rejects_wrong_shape(toy_large_set):
    design = largeset_to_gdd(toy_large_set)
    retagged = MixedDesign(design.alphabet, 2, 4, design.blocks)  # k != t + 1
    with pytest.raises(TypeMismatch):
        gdd_to_largeset(retagged)
    with pytest.raises(TypeMismatch):
        gdd_to_largeset(design, hole_coordinate=9)


def test_slice_rejects_nonuniform_groups(toy_large_set):
    design = largeset_to_gdd(toy_large_set)
    widened = MixedAlphabet((3, 3, 4, 3))
    redesign = MixedDesign(widened, design.t, design.k, design.blocks)
    with pytest.raises(TypeMismatch):
        gdd_to_largeset(redesign)


def test_slice_rejects_wrong_hole_size(toy_large_set):
    design = largeset_to_gdd(toy_large_set)
    # hole must have g(n - t) = 2 points; claim a bigger hole alphabet
    widened = MixedAlphabet((3, 3, 3, 4))
    redesign = MixedDesign(widened, design.t, design.k, design.blocks)
    with pytest.raises(TypeMismatch) as err:
        gdd_to_largeset(redesign)
    assert str(err.value) == "hole has 3 points, want g(n-t) = 2"


def test_slice_at_group_coordinate_of_symmetric_design(toy_large_set):
    # The folded toy design is fully symmetric in its four coordinates, so
    # slicing at a group coordinate also yields a valid large set.
    design = largeset_to_gdd(toy_large_set)
    sliced = gdd_to_largeset(design, hole_coordinate=2)
    assert len(sliced.copies) == 2
    assert verify_large_set(sliced).ok


@pytest.mark.parametrize("hole", [0, 2, 4, None])
def test_slice_rejects_block_missing_the_hole(hole):
    # Five coordinates, blocks of weight 4: a block can genuinely miss the
    # hole coordinate, and the transform must reject it before verifying.
    # n = 4 groups of g = 2 at t = 2 need a hole of g(n - t) = 4 points.
    at = 4 if hole is None else hole
    sizes = [3] * 5
    sizes[at] = 5
    block = Codeword(tuple((c, 1) for c in range(5) if c != at))
    design = MixedDesign(MixedAlphabet(tuple(sizes)), 3, 4, (block,))
    with pytest.raises(TypeMismatch) as err:
        gdd_to_largeset(design, hole_coordinate=hole)
    assert str(err.value) == f"block {block.support} does not meet the hole coordinate {at}"


def test_slice_rejects_corrupt_copies(toy_large_set):
    design = largeset_to_gdd(toy_large_set)
    blocks = list(design.blocks)
    # retag one block's hole symbol: copies now have 3 and 5 blocks
    b = blocks[0]
    other = 2 if b.symbol(3) == 1 else 1
    blocks[0] = Codeword(
        tuple((c, s) if c != 3 else (c, other) for c, s in b.support)
    )
    broken = MixedDesign(design.alphabet, design.t, design.k, tuple(blocks))
    with pytest.raises(LargeSetInvalid) as err:
        gdd_to_largeset(broken)
    # the counterexample is a word of the input, re-checked without the verifier
    ce = err.value.report.counterexample
    assert ce.kind == "coverage"
    count = sum(covers(b, ce.word, broken.alphabet) for b in broken.blocks)
    assert count == ce.count != 1
    assert broken.report is None


def _assert_checked_blocks(blocks):
    # blocks the transforms derive without Codeword's check still pass it
    for b in blocks:
        assert b == Codeword(b.support)
        assert type(b.support) is tuple and all(type(p) is tuple for p in b.support)
        assert list(b.support) == sorted(b.support)


def _move_hole(design: MixedDesign, hole: int) -> MixedDesign:
    """The fold with its last (hole) coordinate moved to `hole` and the
    group coordinates kept in order around it."""
    n = design.alphabet.n - 1
    where = [c if c < hole else c + 1 for c in range(n)] + [hole]
    sizes = [0] * (n + 1)
    for c, q in enumerate(design.alphabet.sizes):
        sizes[where[c]] = q
    blocks = tuple(
        Codeword(tuple((where[c], s) for c, s in b.support)) for b in design.blocks
    )
    return MixedDesign(MixedAlphabet(tuple(sizes)), design.t, design.k, blocks)


@pytest.mark.parametrize("ls", [build_toy_large_set(), build_sum_large_set(3, 2), build_sum_large_set(2, 3)])
def test_fold_and_slice_blocks_are_checked_codewords(ls):
    design = largeset_to_gdd(ls)
    _assert_checked_blocks(design.blocks)
    n = ls.alphabet.n
    for hole in (0, n // 2, n, None):
        moved = design if hole in (n, None) else _move_hole(design, hole)
        back = gdd_to_largeset(moved, hole)
        for copy in back.copies:
            _assert_checked_blocks(copy)
        # ls -> gdd -> ls and gdd -> ls -> gdd are byte-identical
        assert largeset_to_json(back) == largeset_to_json(ls)
        assert design_to_json(largeset_to_gdd(back)) == design_to_json(design)


# ----------------------------------------------------------------- catalog


def test_catalog_default_size_and_families():
    records = gdd_catalog()
    # twelve group sizes (2..13) over five per-g families, one sporadic
    # record, and four scale factors over (2 + 3) scaled families
    assert len(records) == 12 * 5 + 1 + 4 * (2 + 3) == 81
    # ten-group sources: twelve per-g plus four from the scaled doubling
    # family at its smallest exponent
    assert sum(1 for r in records if r.source.startswith("LH(10,")) == 16
    assert sum(1 for r in records if r.group_size == 720) == 1


def test_catalog_existence_flags():
    records = gdd_catalog()
    # iff families: even group size for the 7-group family, divisible by
    # three for the 6-group family
    for g in range(2, 14):
        seven = next(
            r for r in records if r.group_count == 7 and r.group_size == g
        )
        assert seven.existence == ("exists" if g % 2 == 0 else "not-exists")
        six = next(
            r
            for r in records
            if r.group_count == 6 and r.group_size == g and r.t == 4
        )
        assert six.existence == ("exists" if g % 3 == 0 else "not-exists")
    # open cases at odd small sizes for the 11- and 12-group families
    for g in (3, 5, 7, 9, 11, 13):
        eleven = next(
            r for r in records if r.group_count == 11 and r.group_size == g
        )
        assert eleven.existence == "possible-exception"
    for g in (2, 4, 6, 8, 10, 12):
        eleven = next(
            r for r in records if r.group_count == 11 and r.group_size == g
        )
        assert eleven.existence == "exists"


def test_catalog_hole_sizes_follow_the_fold():
    # records carry the folded GDD's strength t; the source large set runs
    # at t - 1, so the hole is g * (n - (t - 1))
    for rec in gdd_catalog():
        assert rec.hole_size == rec.group_size * (rec.group_count - rec.t + 1)
        assert rec.k == rec.t + 1
        assert rec.points == rec.group_size * rec.group_count + rec.hole_size


@pytest.mark.parametrize(
    "ranges",
    [
        (range(2, 14), range(1, 5), range(1, 4)),
        (range(2, 3), range(1, 2), range(1, 2)),
        (range(2, 40), range(1, 9), range(1, 6)),
        (range(2, 2), range(1, 5), range(1, 4)),
        (range(2, 14), range(1, 1), range(1, 4)),
        (range(2, 14), range(1, 5), range(1, 1)),
        (range(2, 2), range(1, 1), range(1, 1)),
    ],
)
def test_catalog_counts_the_records_it_makes(ranges):
    assert constructions._catalog_count(*ranges) == len(gdd_catalog(*ranges))


def test_catalog_count_holds_the_largest_number_to_the_digit_limit(monkeypatch):
    # the last record at h = 4, ell = 14275 prints 36(10*2^14275 - 3), of
    # 4300 digits; at ell = 14276 it would print 4301
    assert 10**4299 <= 36 * (10 * 2**14275 - 3) < 10**4300 <= 36 * (10 * 2**14276 - 3)
    g_values, h_values = range(2, 14), range(1, 5)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    assert constructions._catalog_count(g_values, h_values, range(1, 14276)) == 57169
    with pytest.raises(ValueError, match=r"ell = 14276 exceeds the limit \(4300 digits\)"):
        constructions._catalog_count(g_values, h_values, range(1, 14277))
    # no h, so no record at any ell; and 0 is no limit
    assert constructions._catalog_count(g_values, range(1, 1), range(1, 14277)) == 61
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert constructions._catalog_count(g_values, h_values, range(1, 14278)) == 57177


def test_gdd_catalog_is_refused_before_any_record_is_made(monkeypatch):
    # the default ranges make 81 records: one over a ceiling of 80 refuses
    # them as `catalog` does, and so does the digit limit, with no record made
    made = []

    def records(*ranges):
        made.append(ranges)
        return iter(())

    monkeypatch.setattr(constructions, "_catalog_records", records)
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", "80")
    with pytest.raises(VerificationLimitExceeded, match="^81 catalog records exceed the ceiling 80$"):
        gdd_catalog()
    monkeypatch.delenv("DESIGN_FORGE_MAX_WORDS")
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    with pytest.raises(ValueError, match=r"ell = 14276 exceeds the limit \(4300 digits\)"):
        gdd_catalog(ell_values=range(1, 14277))
    assert made == []
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", "81")
    assert gdd_catalog() == []
    assert made == [(range(2, 14), range(1, 5), range(1, 4))]


def _source_lambdas(n: int, g: int, t: int) -> list[Fraction]:
    """λ_s of an H(n, g, t+1, t) for 0 <= s < t: the blocks through an
    s-word, C(n-s, t-s) g^(t-s) / C(t+1-s, t-s), integers when one exists."""
    return [Fraction(comb(n - s, t - s) * g ** (t - s), comb(t + 1 - s, t - s)) for s in range(t)]


@pytest.mark.parametrize("ranges", [(), (range(2, 200), range(1, 30), range(1, 7))], ids=["default", "wide"])
def test_catalog_records_rederive_from_their_source(ranges):
    # each record's fields and its not-exists flag follow from the
    # LH(n, g, t+1, t) its source names, by the divisibility of the λ_s
    records = gdd_catalog(*ranges)
    assert len(records) == (81 if not ranges else 198 * 5 + 1 + 29 * (2 + 6))
    for rec in records:
        n, g, k, t = map(int, re.match(r"LH\((\d+),(\d+),(\d+),(\d+)\)", rec.source).groups())
        assert k == t + 1, rec
        assert (rec.t, rec.k, rec.group_size, rec.group_count, rec.hole_size) == (
            t + 1, t + 2, g, n, g * (n - t)
        ), rec
        integral = all(lam.denominator == 1 for lam in _source_lambdas(n, g, t))
        assert (rec.existence == "not-exists") == (not integral), rec


def test_catalog_ms_counterparts_all_blocked():
    # the necessary bound n >= max(hole + t - 1, group + t - 1) fails for
    # every record: the hole is always g(n - t) with n - t >= 2, forcing
    # hole + t - 1 = g(n - t) + t - 1 > n for every g >= 2
    for rec in gdd_catalog():
        check = ms_bound_check(rec.t, rec.group_size, rec.hole_size, rec.group_count)
        assert not check.feasible, rec


def test_catalog_describe():
    rec = gdd_catalog(range(2, 3), range(1, 2), range(1, 2))[0]
    assert rec.describe() == "GDD(4,5,34) type 2^10 14^1 [exists] from LH(10,2,4,3)"
    assert str(rec.gdd_type) == "2^10 14^1"


def test_catalog_rejects_bad_ranges():
    with pytest.raises(ValueError):
        gdd_catalog(g_values=[1])
    with pytest.raises(ValueError):
        gdd_catalog(h_values=[0])
    with pytest.raises(ValueError):
        gdd_catalog(ell_values=[0])


def test_scaled_families_shapes():
    records = gdd_catalog(range(2, 3), range(1, 3), range(1, 3))
    five = [r for r in records if r.group_count == 5]
    assert {(r.group_size, r.hole_size) for r in five} == {(4, 8), (8, 16)}
    twenty = [r for r in records if r.group_count == 20]
    assert {(r.group_size, r.hole_size) for r in twenty} == {(9, 153), (18, 306)}
    doubling = [r for r in records if r.group_count in (10, 20) and r.group_size in (9, 18)]
    # ell = 1 gives 10 groups, ell = 2 gives 20; hole = (n - 3) * group size
    for r in doubling:
        if r.source.startswith("LH(10,9") or r.source.startswith("LH(10,18"):
            assert r.hole_size == 7 * r.group_size
