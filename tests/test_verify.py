"""Verifier behavior: pass/fail reports, counterexamples, limits, bounds."""

from __future__ import annotations

import pytest

from design_forge import (
    Codeword,
    LargeSet,
    MixedAlphabet,
    MixedDesign,
    NonBinaryAlphabet,
    NotAPartition,
    Resolution,
    VerificationLimitExceeded,
    construct_hybrid_ms,
    covers,
    hamming_distance,
    ms_bound_check,
    resolvable_affine,
    verify_gdd,
    verify_large_set,
    verify_mixed_steiner,
    verify_resolution,
    verify_steiner,
)
from tests.conftest import build_toy_large_set


def _pair_design():
    """MS(1, 3, Z_2^5 x Z_3): two disjoint-ish blocks covering each nonzero
    symbol once."""
    alphabet = MixedAlphabet((2, 2, 2, 2, 3))
    blocks = (
        Codeword(((0, 1), (1, 1), (4, 2))),
        Codeword(((2, 1), (3, 1), (4, 1))),
    )
    return MixedDesign(alphabet, 1, 3, blocks)


def test_verify_gdd_pass():
    report = verify_gdd(_pair_design())
    assert report.ok and report.counterexample is None
    assert report.stats["words"] == 6
    assert report.stats["gdd_type"] == "1^4 2^1"


def test_verify_gdd_missing_word():
    d = _pair_design()
    broken = MixedDesign(d.alphabet, 1, 3, d.blocks[:1])
    report = verify_gdd(broken)
    assert not report.ok
    ce = report.counterexample
    assert ce.kind == "coverage" and ce.count == 0
    # independent re-check: the word really is in no block
    assert sum(covers(b, ce.word) for b in broken.blocks) == 0


def test_verify_gdd_double_cover():
    d = _pair_design()
    broken = MixedDesign(d.alphabet, 1, 3, d.blocks + d.blocks[:1])
    report = verify_gdd(broken)
    assert not report.ok
    ce = report.counterexample
    assert ce.kind == "coverage" and ce.count == 2
    assert sum(covers(b, ce.word) for b in broken.blocks) == 2


def test_verify_mixed_steiner_pass_and_stats():
    # blocks share coordinate 4 with differing symbols: distance 2*3 - 1 = 5
    report = verify_mixed_steiner(_pair_design())
    assert report.ok
    assert report.stats["required_distance"] == 5
    assert report.stats["min_distance"] == 5


def test_verify_mixed_steiner_distance_fail():
    # Coverage holds but two blocks share two coordinates: distance 4 < 5.
    alphabet = MixedAlphabet((2, 2, 3, 3))
    blocks = (
        Codeword(((0, 1), (2, 1), (3, 1))),
        Codeword(((1, 1), (2, 2), (3, 2))),
    )
    design = MixedDesign(alphabet, 1, 3, blocks)
    assert verify_gdd(design).ok
    report = verify_mixed_steiner(design)
    assert not report.ok
    ce = report.counterexample
    assert ce.kind == "distance" and ce.distance == 4
    u, v = ce.pair
    assert hamming_distance(u, v) == 4  # independent re-check


def test_verify_steiner_requires_binary():
    with pytest.raises(NonBinaryAlphabet):
        verify_steiner(_pair_design(), 1, 3, 5)


def test_verify_steiner_shape_mismatch_is_a_fail_report():
    alphabet = MixedAlphabet((2,) * 7)
    blocks = tuple(
        Codeword(tuple((c, 1) for c in line))
        for line in [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
                     (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    )
    fano = MixedDesign(alphabet, 2, 3, blocks)
    good = verify_steiner(fano, 2, 3, 7)
    assert good.ok
    assert good.stats["expected_blocks"] == 7
    assert good.stats["block_count_matches"]
    shape = verify_steiner(fano, 2, 3, 9)
    assert not shape.ok and shape.counterexample.kind == "shape"


def test_verify_steiner_coverage_fail():
    alphabet = MixedAlphabet((2,) * 7)
    blocks = tuple(
        Codeword(tuple((c, 1) for c in line))
        for line in [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
                     (1, 4, 6), (2, 3, 6), (2, 4, 6)]  # last block corrupted
    )
    report = verify_steiner(MixedDesign(alphabet, 2, 3, blocks), 2, 3, 7)
    assert not report.ok
    assert report.counterexample.kind == "coverage"


def test_verify_resolution_pass_and_parallel_fail():
    alphabet = MixedAlphabet((2, 2, 2, 2))
    blocks = (
        Codeword(((0, 1), (1, 1))),
        Codeword(((2, 1), (3, 1))),
        Codeword(((0, 1), (2, 1))),
        Codeword(((1, 1), (3, 1))),
    )
    design = MixedDesign(alphabet, 2, 2, blocks)
    good = verify_resolution(design, Resolution(((0, 1), (2, 3))))
    assert good.ok
    bad = verify_resolution(design, Resolution(((0, 2), (1, 3))))
    assert not bad.ok
    ce = bad.counterexample
    assert ce.kind == "parallel"
    assert ce.class_index in (0, 1) and ce.count != 1
    # re-check: count that coordinate in the reported class
    cls = (0, 2) if ce.class_index == 0 else (1, 3)
    hits = sum(
        1 for i in cls for c, _ in design.blocks[i].support if c == ce.coordinate
    )
    assert hits == ce.count


def test_verify_resolution_rejects_non_partitions():
    design = MixedDesign(
        MixedAlphabet((2, 2)), 1, 2, (Codeword(((0, 1), (1, 1))),)
    )
    with pytest.raises(NotAPartition):
        verify_resolution(design, Resolution(((0, 0),)))
    with pytest.raises(NotAPartition):
        verify_resolution(design, Resolution(((),)))


def test_verify_large_set_pass(toy_large_set):
    report = verify_large_set(toy_large_set)
    assert report.ok
    assert report.stats["copies"] == 2
    assert report.stats["words"] == 8


def test_verify_large_set_multiplicity_fail():
    ls = build_toy_large_set()
    broken = LargeSet(ls.alphabet, ls.t, ls.k, (ls.copies[0], ls.copies[0]))
    report = verify_large_set(broken)
    assert not report.ok
    ce = report.counterexample
    assert ce.kind == "multiplicity"
    member_of = sum(
        1 for copy in broken.copies if ce.word in set(copy)
    )
    assert member_of == ce.count and ce.count != 1


def test_verify_large_set_bad_copy():
    ls = build_toy_large_set()
    # swap one block across copies: multiplicities stay 1, copies break
    c0, c1 = list(ls.copies[0]), list(ls.copies[1])
    c0[0], c1[0] = c1[0], c0[0]
    report = verify_large_set(LargeSet(ls.alphabet, ls.t, ls.k, (tuple(c0), tuple(c1))))
    assert not report.ok
    assert report.counterexample.kind == "copy"


def test_verify_large_set_lambda_2():
    ls = build_toy_large_set()
    doubled = LargeSet(
        ls.alphabet, ls.t, ls.k, ls.copies + ls.copies, lam=2
    )
    assert verify_large_set(doubled).ok


def test_word_ceiling_argument_and_env(monkeypatch):
    design = _pair_design()
    with pytest.raises(VerificationLimitExceeded):
        verify_gdd(design, max_words=5)
    assert verify_gdd(design, max_words=6).ok
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", "5")
    with pytest.raises(VerificationLimitExceeded):
        verify_gdd(design)
    with pytest.raises(VerificationLimitExceeded):
        verify_large_set(build_toy_large_set())
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", "1000")
    assert verify_gdd(design).ok


def test_pair_ceiling_bounds_the_distance_pass():
    plane, classes = resolvable_affine(3)
    design = construct_hybrid_ms(plane, classes, 4)  # 171 words, 1596 pairs
    with pytest.raises(VerificationLimitExceeded, match="1596 block pairs"):
        verify_mixed_steiner(design, max_words=1595)
    assert verify_mixed_steiner(design, max_words=1596).ok
    assert verify_gdd(design, max_words=1595).ok


@pytest.mark.parametrize("value", ["abc", "-1", "2.5", " "])
def test_word_ceiling_env_must_be_a_nonnegative_int(monkeypatch, value):
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", value)
    with pytest.raises(ValueError, match="DESIGN_FORGE_MAX_WORDS"):
        verify_gdd(_pair_design())


def test_ms_bound_check_values():
    # type 2^10 14^1 at t=4: hole bound 14+3 = 17 > 10 -> infeasible
    check = ms_bound_check(4, 2, 14, 10)
    assert not check.feasible
    assert check.hole_bound == 17 and check.group_bound == 5
    assert check.required == 17
    assert ms_bound_check(4, 2, 14, 17).feasible
    assert ms_bound_check(2, 3, 3, 4).feasible
    assert not ms_bound_check(2, 5, 2, 4).feasible  # group bound 6 > 4
    with pytest.raises(ValueError):
        ms_bound_check(1, 2, 2, 5)
    with pytest.raises(ValueError):
        ms_bound_check(3, 0, 2, 5)
