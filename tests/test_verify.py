"""Verifier behavior: pass/fail reports, counterexamples, limits, bounds."""

from __future__ import annotations

import tracemalloc
from itertools import combinations, combinations_with_replacement, product
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from design_forge import (
    AlphabetMismatch,
    Codeword,
    DesignForgeError,
    LargeSet,
    MixedAlphabet,
    MixedDesign,
    NonBinaryAlphabet,
    NotAPartition,
    Resolution,
    VerificationLimitExceeded,
    construct_from_oa,
    construct_hybrid_ms,
    covers,
    hamming_distance,
    min_distance,
    ms1_construct,
    ms_bound_check,
    resolvable_affine,
    verify_gdd,
    verify_large_set,
    verify_mixed_steiner,
    verify_resolution,
    verify_steiner,
)
from design_forge import verify
from design_forge.core import first_miscount, word_count, word_supports
from design_forge.verify import _coverage_distance
from tests.conftest import brute_force_min_distance, build_toy_large_set, verified_roster


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


def test_single_symbol_distance_matches_the_pairwise_pass():
    # At t = 1 the pairwise pass is skipped unless two blocks share two
    # coordinates; the reported value must still be the true one, for
    # single blocks (infinite), disjoint blocks (2k) and shared ones (2k-1).
    seen = set()
    for n in range(1, 7):
        for sizes in combinations_with_replacement((2, 3, 4), n):
            for k in (2, 3):
                try:
                    design = ms1_construct(sizes, k)
                except DesignForgeError:
                    continue
                value = verify_mixed_steiner(design).stats["min_distance"]
                assert value == brute_force_min_distance(design)[0], (sizes, k)
                seen.add(value - 2 * k if value != float("inf") else value)
    assert seen == {float("inf"), 0, -1}


@st.composite
def _relabelled(draw, where=lambda design: True):
    """A roster design (one that `where` accepts) with its coordinates
    permuted and the symbols of each coordinate relabelled."""
    design = draw(st.sampled_from([d for d in verified_roster() if where(d)]))
    sizes = design.alphabet.sizes
    perm = draw(st.permutations(range(len(sizes))))
    relabel = [draw(st.permutations(range(1, q))) for q in sizes]
    moved = [0] * len(sizes)
    for c, q in enumerate(sizes):
        moved[perm[c]] = q
    blocks = tuple(
        Codeword(tuple((perm[c], relabel[c][s - 1]) for c, s in b.support))
        for b in design.blocks
    )
    return MixedDesign(MixedAlphabet(tuple(moved)), design.t, design.k, blocks)


@settings(max_examples=150, deadline=None)
@given(_relabelled())
def test_coverage_distance_matches_the_pairwise_pass(design):
    assert verify_gdd(design).ok
    oracle = brute_force_min_distance(design)[0]
    value = _coverage_distance(design)
    assert value is None or value == oracle
    if design.t == 2:
        # coverage makes B*C(k, 2) the weight-2 word count, which reaches
        # C(n, 2) only when every coordinate is binary (_coverage_distance
        # lists no coordinate pair at t = 2 on that account)
        n, pairs = design.alphabet.n, len(design.blocks) * (design.k * (design.k - 1) // 2)
        assert pairs == word_count(design.alphabet, 2)
        assert pairs >= n * (n - 1) // 2
        assert (pairs == n * (n - 1) // 2) == (set(design.alphabet.sizes) == {2})
    settled = design.t == 2 and sum(q > 2 for q in design.alphabet.sizes) <= 1
    if settled:
        assert value is not None  # at most one nonbinary coordinate at t = 2
    with mock.patch.object(verify, "min_distance", wraps=min_distance) as pass_:
        assert verify_mixed_steiner(design).stats["min_distance"] == oracle
    assert not (settled and pass_.called)


def test_coverage_distance_lists_no_pair_on_an_all_binary_t_2_design():
    # the AG(2,5) hybrid at i = 6 is an S(2,5,101) with 505 blocks: listing
    # its 5050 coordinate pairs in a set peaks near 850 kB on CPython 3.11
    plane, classes = resolvable_affine(5)
    design = construct_hybrid_ms(plane, classes, 6)
    assert set(design.alphabet.sizes) == {2}
    tracemalloc.start()
    try:
        value = _coverage_distance(design)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == brute_force_min_distance(design)[0] == 8
    assert peak < 2**16


def test_counting_leaves_two_nonbinary_coordinates_and_t_3_to_the_pass(monkeypatch):
    # two nonbinary coordinates (type 1^8 4^2): distance 4, not 2k - 3 = 5
    gdd = construct_from_oa(4, 2)
    calls = []

    def counted(design):
        calls.append(len(design.blocks))
        return min_distance(design)

    monkeypatch.setattr(verify, "min_distance", counted)
    assert _coverage_distance(gdd) is None
    report = verify_mixed_steiner(gdd)
    assert report.stats["min_distance"] == brute_force_min_distance(gdd)[0] == 4
    assert calls == [18]
    # t = k = 3 with one nonbinary coordinate: every weight-3 word over
    # Z_2^3 x Z_3 is a block, and two blocks differing at Z_3 are at distance 1
    sizes = (2, 2, 2, 3)
    blocks = tuple(
        Codeword(tuple(zip(cols, syms)))
        for cols in combinations(range(4), 3)
        for syms in product(*(range(1, sizes[c]) for c in cols))
    )
    design = MixedDesign(MixedAlphabet(sizes), 3, 3, blocks)
    assert _coverage_distance(design) is None
    report = verify_mixed_steiner(design)
    assert report.ok and report.stats["min_distance"] == brute_force_min_distance(design)[0] == 1
    assert calls == [18, 7]


@st.composite
def _one_block_changed(draw):
    """A roster design with one block deleted, duplicated, given another
    symbol at one coordinate, or with one entry moved to a coordinate the
    block misses; every changed block still fits the alphabet."""
    design = draw(st.sampled_from(verified_roster()))
    sizes = design.alphabet.sizes
    blocks = list(design.blocks)
    i = draw(st.integers(0, len(blocks) - 1))
    change = draw(st.sampled_from(("delete", "duplicate", "symbol", "move")))
    support = dict(blocks[i].support)
    if change == "delete":
        del blocks[i]
    elif change == "duplicate":
        blocks.insert(draw(st.integers(0, len(blocks))), blocks[i])
    elif change == "symbol":
        c = draw(st.sampled_from(sorted(support)))
        others = [s for s in range(1, sizes[c]) if s != support[c]]
        assume(others)
        support[c] = draw(st.sampled_from(others))
    else:
        free = [c for c in range(len(sizes)) if c not in support]
        assume(free)
        del support[draw(st.sampled_from(sorted(support)))]
        c = draw(st.sampled_from(free))
        support[c] = draw(st.integers(1, sizes[c] - 1))
    if change in ("symbol", "move"):
        blocks[i] = Codeword(tuple(support.items()))
    return MixedDesign(design.alphabet, design.t, design.k, tuple(blocks))


@settings(max_examples=200, deadline=None)
@given(_one_block_changed())
def test_any_single_block_change_is_rejected_with_a_rechecked_word(design):
    report = verify_gdd(design)
    assert not report.ok
    ce = report.counterexample
    assert ce.kind == "coverage" and ce.word.weight == design.t
    # re-check by hand: the word's true cover count on the changed design
    count = sum(covers(b, ce.word, design.alphabet) for b in design.blocks)
    assert count == ce.count != 1


@st.composite
def _band_edits(draw):
    """A relabelled t = 2 roster design with a nonbinary coordinate, after
    one to four edits of blocks through a nonbinary coordinate: deleted,
    duplicated, another symbol there, or an entry moved.  Their bad words
    lie in a nonbinary coordinate's band, where the packed count's slot
    order (c1, s1, c2, s2) and the contract's (c1, c2, s1, s2) differ."""
    design = draw(_relabelled(lambda d: d.t == 2 and max(d.alphabet.sizes) > 2))
    sizes = design.alphabet.sizes
    big = {c for c, q in enumerate(sizes) if q > 2}
    blocks = list(design.blocks)
    for _ in range(draw(st.integers(1, 4))):
        through = [i for i, b in enumerate(blocks) if big.intersection(b.coordinates)]
        assume(through)
        i = draw(st.sampled_from(through))
        support = dict(blocks[i].support)
        change = draw(st.sampled_from(("delete", "duplicate", "symbol", "move")))
        if change == "delete":
            del blocks[i]
        elif change == "duplicate":
            blocks.insert(draw(st.integers(0, len(blocks))), blocks[i])
        elif change == "symbol":
            c = draw(st.sampled_from(sorted(big.intersection(support))))
            support[c] = draw(st.integers(1, sizes[c] - 1))
        else:
            free = [c for c in range(len(sizes)) if c not in support]
            assume(free)
            del support[draw(st.sampled_from(sorted(support)))]
            c = draw(st.sampled_from(free))
            support[c] = draw(st.integers(1, sizes[c] - 1))
        if change in ("symbol", "move"):
            blocks[i] = Codeword(tuple(support.items()))
    return MixedDesign(design.alphabet, 2, design.k, tuple(blocks))


@settings(max_examples=200, deadline=None)
@given(_band_edits())
def test_packed_pair_count_names_what_first_miscount_names(design):
    alphabet, total = design.alphabet, word_count(design.alphabet, 2)
    subwords = [w for b in design.blocks for w in combinations(b.support, 2)]
    want = first_miscount(subwords, total, lambda: word_supports(alphabet, 2))
    assert verify._pair_miscount(alphabet, design.blocks, total) == want


@pytest.mark.parametrize("copies", [254, 255, 256, 300])
def test_packed_pair_count_reports_a_saturated_count_exactly(copies):
    # a byte stops at 255; the violator's count is then recounted
    gdd = construct_from_oa(4, 2)
    block = gdd.blocks[-1]
    design = MixedDesign(gdd.alphabet, 2, 4, gdd.blocks + (block,) * (copies - 1))
    ce = verify_gdd(design).counterexample
    assert ce.word == Codeword(block.support[:2]) and ce.count == copies
    assert ce.detail.endswith(f"covered {copies} times, want exactly 1")


def test_a_t_2_reject_walks_no_words(monkeypatch):
    walks = []
    real = verify.word_supports

    def spy(alphabet, t):
        walks.append(t)
        return real(alphabet, t)

    monkeypatch.setattr(verify, "word_supports", spy)
    plane, classes = resolvable_affine(4)
    hybrid = construct_hybrid_ms(plane, classes, 2)
    for design in (plane, hybrid):
        for blocks in (design.blocks[:-1], design.blocks[1:] + design.blocks[:1] * 2):
            changed = MixedDesign(design.alphabet, 2, design.k, blocks)
            assert not verify_gdd(changed).ok
    assert walks == []
    # a t = 1 reject still walks its words in order
    shape = _pair_design()
    assert not verify_gdd(MixedDesign(shape.alphabet, 1, 3, shape.blocks[:1])).ok
    assert walks == [1]


def test_ms_reject_names_the_least_witness_pair():
    # the oa-gdd k = 9 partials (r < 8) are GDDs at distance k + r - 2,
    # below the MS bound 2k - 3, so the MS check rejects them by the
    # pairwise pass; r = 8 is the MS design itself
    for r in range(1, 9):
        design = construct_from_oa(9, r)
        value, witness = brute_force_min_distance(design)
        report = verify_mixed_steiner(design)
        assert report.stats["min_distance"] == value == 9 + r - 2, r
        assert report.ok == (r == 8), r
        if r < 8:
            ce = report.counterexample
            assert (ce.kind, ce.distance, ce.pair) == ("distance", value, witness), r


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


def test_verify_large_set_counts_a_block_repeated_in_a_copy_once():
    # a copy's distinct blocks count toward the multiplicities, which so
    # still hold; the copy itself then covers that block's words twice
    ls = build_toy_large_set()
    copy = ls.copies[0] + ls.copies[0][:1]
    report = verify_large_set(LargeSet(ls.alphabet, ls.t, ls.k, (copy, ls.copies[1])))
    assert not report.ok
    ce = report.counterexample
    assert (ce.kind, ce.class_index, ce.count) == ("copy", 0, 2)


def test_large_set_refuses_unfit_blocks_and_verify_rejects_a_changed_one():
    ls = build_toy_large_set()
    first = ls.copies[0][0]
    with pytest.raises(ValueError, match="weight 2, not 3"):
        LargeSet(ls.alphabet, ls.t, ls.k, ((Codeword(first.support[:2]),), ls.copies[1]))
    with pytest.raises(AlphabetMismatch, match="symbol 3 out of range"):
        LargeSet(ls.alphabet, ls.t, ls.k, ((Codeword(((0, 3),) + first.support[1:]),), ls.copies[1]))
    # a block that fits but is wrong: the word it replaced is in no copy
    changed = Codeword(((0, 3 - first.symbol(0)),) + first.support[1:])
    copy = (changed,) + ls.copies[0][1:]
    report = verify_large_set(LargeSet(ls.alphabet, ls.t, ls.k, (copy, ls.copies[1])))
    assert not report.ok
    ce = report.counterexample
    assert ce.kind == "multiplicity"
    assert ce.count == sum(ce.word in set(c) for c in (copy, ls.copies[1])) != 1


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
    design = construct_from_oa(5, 2)  # two nonbinary coordinates: 270 words, 351 pairs
    with pytest.raises(VerificationLimitExceeded, match="351 block pairs"):
        verify_mixed_steiner(design, max_words=350)
    report = verify_mixed_steiner(design, max_words=351)
    assert not report.ok and report.counterexample.distance == 5
    assert verify_gdd(design, max_words=300).ok
    # S(2,3,19) (1596 pairs) and the k = 3, i = 2 hybrid (3240 pairs, one
    # nonbinary coordinate) are settled by counting and compare no pairs
    plane, classes = resolvable_affine(3)
    for i, distance in ((4, 4), (2, 3)):
        report = verify_mixed_steiner(construct_hybrid_ms(plane, classes, i), max_words=1000)
        assert report.ok and report.stats["min_distance"] == distance


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
