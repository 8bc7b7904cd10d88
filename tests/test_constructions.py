"""Constructions: weight-1 systems, OA-derived designs, base systems."""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re
from collections import Counter
from functools import cache
from itertools import combinations_with_replacement

import pytest

from design_forge import (
    Codeword,
    ConstructionFailed,
    CoverInvariantViolated,
    Infeasible,
    MixedAlphabet,
    NoSuchSystem,
    NotPrimePower,
    PartitionedCover,
    ROutOfRange,
    base_system,
    combine_partition,
    construct_from_oa,
    construct_hybrid_ms,
    constructions,
    design_to_json,
    gdd_type_of,
    min_distance,
    ms1_construct,
    ms1_feasible,
    resolvable_affine,
    validate_cover,
    verify,
    verify_gdd,
    verify_mixed_steiner,
)
from tests.conftest import build_ag33_lines, build_kts15

# ---------------------------------------------------------------- weight-1


def test_ms1_feasible_table():
    # difference = sum of the n-1 smallest group sizes minus (k-1) times the
    # largest; feasible iff nonnegative and divisible by k (checked by hand).
    assert ms1_feasible((2, 2, 3), 3).difference == -2
    assert not ms1_feasible((2, 2, 3), 3).feasible
    assert ms1_feasible((2, 2, 2, 2, 3), 3) == ms1_feasible((3, 2, 2, 2, 2), 3)
    assert ms1_feasible((2, 2, 2, 2, 3), 3).feasible
    assert ms1_feasible((2, 2, 2, 2, 3), 3).difference == 0
    assert ms1_feasible((2,) * 6, 3).feasible
    assert ms1_feasible((2,) * 6, 3).difference == 3
    assert not ms1_feasible((2, 2, 2, 3, 3), 3).feasible  # difference 1, 3 does not divide
    assert ms1_feasible((2, 2, 2, 3, 3), 3).residue == 1
    assert ms1_feasible((4, 4, 4), 3).feasible
    assert ms1_feasible((2, 2, 3), 2).feasible


def test_ms1_feasible_rejects_bad_parameters():
    # k is checked before the sizes are read, and a bad size is named with
    # the sizes in input order; ms1_construct refuses the same way
    for check in (ms1_feasible, ms1_construct):
        with pytest.raises(ValueError, match=r"^k must be >= 2$"):
            check((2, 2), 1)
        with pytest.raises(ValueError, match=r"^k must be >= 2$"):
            check([None], 1)
        with pytest.raises(ValueError) as err:
            check((2, 1, 3), 2)
        assert str(err.value) == "alphabet sizes must all be >= 2, got (2, 1, 3)"
        with pytest.raises(ValueError) as err:
            check((), 2)
        assert str(err.value) == "alphabet sizes must all be >= 2, got ()"


def _reference_ms1_feasible(sizes, k):
    """The arithmetic as first written: generator sums over a sorted copy."""
    q = sorted(sizes)
    difference = sum(s - 1 for s in q[:-1]) - (q[-1] - 1) * (k - 1)
    return (difference >= 0 and difference % k == 0, difference, difference % k)


def test_ms1_feasible_matches_the_reference_on_the_wider_grid():
    # n <= 12, sizes 2..7, k 2..6, each alphabet in a shuffled order
    rng = random.Random(18)
    cases = 0
    for n in range(1, 13):
        for sizes in combinations_with_replacement(range(2, 8), n):
            shuffled = list(sizes)
            rng.shuffle(shuffled)
            for k in range(2, 7):
                feas = ms1_feasible(shuffled, k)
                assert (feas.feasible, feas.difference, feas.residue) == (
                    _reference_ms1_feasible(sizes, k)
                ), (shuffled, k)
                cases += 1
    assert cases == 92815


def test_ms1_construct_frozen_example():
    design = ms1_construct((2, 2, 2, 2, 3), 3)
    assert [b.support for b in design.blocks] == [
        ((2, 1), (3, 1), (4, 1)),
        ((0, 1), (1, 1), (4, 2)),
    ]
    assert verify_mixed_steiner(design).ok


def test_ms1_construct_infeasible():
    with pytest.raises(Infeasible) as err:
        ms1_construct((2, 2, 3), 3)
    assert "difference -2" in str(err.value)
    # the alphabet is named sorted; a nonnegative difference adds its residue
    with pytest.raises(Infeasible) as err:
        ms1_construct((3, 2, 2, 3, 2), 3)
    assert str(err.value) == "infeasible: difference 1, residue 1 (alphabet (2, 2, 2, 3, 3), k=3)"


def test_ms1_construct_binary_alphabets():
    # all-binary feasible alphabets yield pairwise-disjoint blocks
    for n, k in [(4, 2), (6, 2), (6, 3), (8, 4), (9, 3), (10, 5)]:
        design = ms1_construct((2,) * n, k)
        assert len(design.blocks) == n // k
        assert verify_mixed_steiner(design).ok
        assert min_distance(design).value >= 2 * k


def test_ms1_construct_greedy_can_fail_honestly():
    # (4,4,4) at k=3 passes the arithmetic but no system exists: all three
    # blocks would share all three coordinates.  The block-pairs bound
    # refuses it before the greedy runs (3 * C(3, 2) = 9 > C(3, 2) = 3), so
    # nothing unverified is ever returned.
    with pytest.raises(ConstructionFailed) as err:
        ms1_construct((4, 4, 4), 3)
    assert err.value.report is not None
    assert not err.value.report.ok


def test_ms1_construct_never_returns_unverified():
    # Sweep every alphabet with n <= 6, sizes in 2..4, k in {2, 3}.  With at
    # most one non-binary coordinate a feasible alphabet always yields a
    # verified system; with more, either a verified system comes back or
    # ConstructionFailed is raised -- an unverified return is the one
    # outcome that must never happen.
    for n in range(1, 7):
        for sizes in combinations_with_replacement((2, 3, 4), n):
            for k in (2, 3):
                feas = ms1_feasible(sizes, k)
                if not feas.feasible:
                    with pytest.raises(Infeasible):
                        ms1_construct(sizes, k)
                    continue
                non_binary = sum(1 for q in sizes if q > 2)
                try:
                    design = ms1_construct(sizes, k)
                except ConstructionFailed:
                    assert non_binary >= 2, (sizes, k)
                    continue
                report = verify_mixed_steiner(design)
                assert report.ok, (sizes, k, report.counterexample)
                total = sum(q - 1 for q in sizes)
                assert len(design.blocks) == total // k


def test_ms1_construct_builds_a_path_the_greedy_misses():
    # The greedy joins the two 3s first and then needs that pair again; the
    # system is the path 0 - 2 - 3 - 1.
    design = ms1_construct((2, 2, 3, 3), 2)
    assert [b.support for b in design.blocks] == [
        ((0, 1), (2, 1)),
        ((1, 1), (3, 1)),
        ((2, 2), (3, 2)),
    ]
    assert "greedy" not in design.meta
    assert verify_mixed_steiner(design).stats["min_distance"] == 3


@pytest.mark.parametrize(
    "sizes, k",
    [
        ((2, 2, 2, 2, 2, 2, 3, 3, 3), 4),
        ((2, 3, 4, 4, 5, 5, 5, 5, 5, 5), 3),  # the longest search on the grid
    ],
)
def test_ms1_construct_search_finds_what_the_greedy_misses(sizes, k):
    design = ms1_construct(sizes, k)
    assert design.meta == f"ms1 k={k} search over sorted sizes"
    report = verify_mixed_steiner(design)
    assert report.ok, report.counterexample
    assert report.stats["min_distance"] >= 2 * k - 1
    assert len(design.blocks) == sum(q - 1 for q in sizes) // k


@pytest.mark.parametrize(
    "sizes, k, bound, witness",
    [
        # B = 2 blocks, yet each 3 puts two blocks together: 2 > C(2, 2)
        ((3, 3), 2, "block-pairs", None),
        # the only bound that fails here: 4 * C(2, 2) = 4 > C(3, 2) = 3
        ((2, 2, 2, 2, 3, 3, 3, 3), 4, "block-pairs", None),
        # a coordinate in 4 edges among 4 coordinates: the star bound, r = 1
        ((3, 3, 3, 5), 2, "pair-degrees", 1),
        # degrees (5,5,3,3,3,1): 5 + 5 > 2 + 2 + 2 + 2 + 1 at r = 2
        ((2, 4, 4, 4, 6, 6), 2, "pair-degrees", 2),
        # the two 4s lie in 3 + 3 blocks sharing at most one: 5 > B = 4
        ((2, 2, 2, 2, 2, 2, 4, 4), 3, "top-set", 2),
    ],
)
def test_ms1_construct_refuses_with_a_bound(sizes, k, bound, witness):
    with pytest.raises(NoSuchSystem) as err:
        ms1_construct(sizes, k)
    assert (err.value.bound, err.value.witness) == (bound, witness)
    assert bound in str(err.value)
    report = err.value.report
    assert not report.ok and report.counterexample.kind == bound


def test_ms1_construct_refuses_after_an_exhaustive_search():
    # Every closed-form bound holds, but none exists: the coordinate with 5
    # symbols meets each other coordinate once, leaving 3 blocks on five
    # coordinates of which four need two blocks each; three blocks of size 3
    # pairwise sharing one coordinate have only 3 such coordinates.
    with pytest.raises(NoSuchSystem) as err:
        ms1_construct((2, 2, 2, 2, 2, 3, 4, 4, 4, 4, 6), 3)
    assert err.value.bound == "exhaustive-search"
    assert 0 < err.value.witness <= constructions.MS1_SEARCH_NODES


def test_ms1_construct_search_budget_leaves_the_question_open(monkeypatch):
    monkeypatch.setattr(constructions, "MS1_SEARCH_NODES", 1)
    with pytest.raises(ConstructionFailed, match="budget") as err:
        ms1_construct((2, 2, 2, 3, 3, 3), 3)
    assert not isinstance(err.value, NoSuchSystem)


# The alphabets of the wider grid (n <= 12, sizes 2..7, k <= 6) that the
# search does not build.  Each exhaustive refusal names the nodes it took.
_EXHAUSTIVE = [
    ((2, 2, 2, 2, 2, 3, 4, 4, 4, 4, 6), 3, 41),
    ((2, 2, 2, 2, 3, 4, 4, 4, 4, 5, 6), 3, 55),
    ((2, 2, 2, 3, 4, 4, 4, 4, 4, 6, 6), 3, 19),
    ((2, 2, 3, 3, 3, 4, 4, 4, 4, 6, 6), 3, 33),
    ((2, 2, 3, 4, 4, 4, 4, 4, 5, 6, 6), 3, 33),
    ((2, 2, 4, 4, 4, 4, 4, 4, 4, 6, 6), 3, 9),
    ((2, 2, 4, 4, 4, 4, 5, 5, 5, 6, 6), 3, 26),
    ((2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 6), 3, 25),
    ((2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 5, 6), 3, 42),
    ((2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 6, 6), 3, 28),
    ((2, 2, 2, 2, 3, 3, 4, 4, 4, 4, 6, 6), 3, 120),
    ((2, 2, 2, 2, 4, 4, 4, 4, 4, 5, 6, 6), 3, 59),
]

# ... and those still undecided when MS1_SEARCH_NODES runs out.
_UNDECIDED = [
    ((3, 3, 3, 4, 5, 5, 5, 5, 5, 6, 6), 3),
    ((3, 4, 5, 5, 5, 5, 5, 6, 6, 6, 6), 3),
    ((4, 4, 4, 4, 4, 5, 5, 5, 6, 6, 6), 3),
    ((2, 2, 2, 3, 3, 3, 4, 5, 5, 5, 5, 6), 3),
    ((2, 2, 3, 3, 3, 4, 4, 5, 5, 5, 6, 6), 3),
    ((2, 2, 3, 3, 4, 4, 5, 5, 5, 6, 6, 6), 3),
    ((2, 2, 3, 3, 4, 5, 5, 5, 5, 5, 6, 6), 3),
    ((2, 2, 3, 4, 4, 4, 5, 5, 5, 5, 6, 6), 3),
    ((2, 2, 3, 4, 5, 5, 5, 5, 5, 6, 6, 6), 3),
    ((2, 3, 3, 3, 3, 3, 4, 5, 5, 5, 6, 6), 3),
    ((2, 3, 3, 3, 3, 3, 5, 5, 5, 5, 5, 6), 3),
    ((2, 3, 3, 3, 3, 4, 5, 5, 5, 6, 6, 6), 3),
    ((2, 3, 3, 3, 3, 5, 5, 5, 5, 5, 6, 6), 3),
    ((2, 3, 3, 3, 4, 4, 4, 5, 5, 6, 6, 6), 3),
    ((2, 3, 3, 3, 4, 4, 5, 5, 5, 5, 6, 6), 3),
    ((2, 3, 3, 3, 5, 5, 5, 5, 5, 6, 6, 6), 3),
    ((2, 3, 3, 4, 4, 5, 5, 5, 5, 6, 6, 6), 3),
    ((2, 3, 3, 5, 5, 5, 5, 5, 6, 6, 6, 6), 3),
    ((2, 3, 4, 4, 4, 4, 5, 5, 5, 6, 6, 6), 3),
    ((2, 3, 4, 4, 4, 5, 5, 6, 6, 6, 6, 6), 3),
    ((2, 3, 4, 5, 5, 5, 6, 6, 6, 6, 6, 6), 3),
    ((2, 4, 4, 4, 4, 4, 4, 4, 6, 6, 6, 6), 3),
    ((2, 4, 4, 4, 5, 5, 6, 6, 6, 6, 6, 6), 3),
    ((2, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 6), 3),
    ((2, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6), 3),
    ((3, 3, 3, 3, 3, 3, 5, 5, 5, 6, 6, 6), 3),
    ((3, 3, 3, 3, 3, 4, 5, 5, 5, 5, 6, 6), 3),
    ((3, 3, 3, 3, 4, 5, 5, 5, 5, 6, 6, 6), 3),
    ((3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6), 3),
    ((3, 3, 3, 4, 4, 5, 5, 6, 6, 6, 6, 6), 3),
    ((3, 3, 3, 5, 5, 5, 6, 6, 6, 6, 6, 6), 3),
    ((3, 3, 4, 4, 4, 4, 4, 4, 6, 6, 6, 6), 3),
    ((3, 3, 4, 4, 5, 5, 6, 6, 6, 6, 6, 6), 3),
    ((3, 3, 4, 5, 5, 5, 5, 6, 6, 6, 6, 6), 3),
    ((3, 4, 4, 4, 4, 5, 6, 6, 6, 6, 6, 6), 3),
    ((3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 6, 6), 3),
    ((3, 4, 4, 5, 5, 5, 5, 5, 6, 6, 6, 6), 3),
    ((3, 4, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6), 3),
    ((4,) * 12, 4),
    ((4, 4, 4, 4, 4, 4, 4, 5, 6, 6, 6, 6), 3),
    ((4, 4, 4, 4, 4, 5, 5, 6, 6, 6, 6, 6), 3),
    ((4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6), 3),
    ((4, 4, 4, 6, 6, 6, 6, 6, 6, 6, 6, 6), 3),
    ((5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6), 3),
]


def test_ms1_search_refusals_on_the_wider_grid():
    assert len(_EXHAUSTIVE) + len(_UNDECIDED) == 56
    refused = []
    for sizes, k, _ in _EXHAUSTIVE:
        with pytest.raises(NoSuchSystem) as err:
            ms1_construct(sizes, k)
        refused.append((sizes, k, err.value.bound, err.value.witness))
    assert refused == [(s, k, "exhaustive-search", nodes) for s, k, nodes in _EXHAUSTIVE]
    for sizes, k in _UNDECIDED:
        with pytest.raises(ConstructionFailed) as err:
            ms1_construct(sizes, k)
        assert not isinstance(err.value, NoSuchSystem)
        assert str(err.value) == (
            f"search budget of 1000 nodes ran out (alphabet {sizes}, k={k}): "
            f"existence is undecided"
        )


def test_ms1_search_outputs_on_the_criterion_5_grid_are_pinned():
    # every alphabet of the criterion-5 grid that passes the arithmetic and
    # the closed-form bounds and defeats the greedy, at k >= 3
    digest = hashlib.sha256()
    built = 0
    for n in range(1, 11):
        for sizes in combinations_with_replacement(range(2, 7), n):
            for k in range(3, 6):
                d = [q - 1 for q in sizes]
                if (
                    not ms1_feasible(sizes, k).feasible
                    or constructions._ms1_bound(d, k) is not None
                    or constructions._ms1_greedy(d, k) is not None
                ):
                    continue
                design = ms1_construct(sizes, k)
                assert design.meta == f"ms1 k={k} search over sorted sizes"
                digest.update(design_to_json(design).encode())
                built += 1
    assert built == 128
    assert digest.hexdigest() == (
        "274c9890961c271c6a4b98b5fe2ebe6f1b9e9b49b43689d8b9ebc0a962d940e2"
    )


@cache
def _criterion_5_builds():
    """(route, the route's blocks, the design) for each alphabet of the
    criterion-5 grid that ms1_construct builds, in grid order, with the
    route chosen as ms1_construct chooses it."""
    builds = []
    for n in range(1, 11):
        for sizes in combinations_with_replacement(range(2, 7), n):
            for k in range(2, 6):
                d = [q - 1 for q in sizes]
                if not ms1_feasible(sizes, k).feasible or constructions._ms1_bound(d, k):
                    continue
                blocks, route = constructions._ms1_greedy(d, k), "greedy"
                if blocks is None and k == 2:
                    blocks, route = constructions._ms1_graph(d), "havel-hakimi"
                elif blocks is None:
                    blocks, route = constructions._ms1_search(d, k), "search"
                builds.append((route, blocks, ms1_construct(sizes, k)))
    return builds


@pytest.mark.parametrize(
    "route, built, expected",
    [
        ("greedy", 55, "baa0067a9aeac76a18c638f8fccbb05cfef5d883de3171ac35e3c86da023ab24"),
        ("havel-hakimi", 1296, "bda288152cb5a983e2d6563d2c65a251908cdfce8f01451ee8e6c10a16814ea6"),
    ],
)
def test_ms1_greedy_and_havel_hakimi_outputs_on_the_criterion_5_grid_are_pinned(
    route, built, expected
):
    digest = hashlib.sha256()
    designs = [design for how, _, design in _criterion_5_builds() if how == route]
    for design in designs:
        assert design.meta == f"ms1 k={design.k} {route} over sorted sizes"
        digest.update(design_to_json(design).encode())
    assert len(designs) == built
    assert digest.hexdigest() == expected


def _supports_as_codeword_makes_them(design) -> bool:
    return [b.support for b in design.blocks] == [Codeword(b.support).support for b in design.blocks]


def test_ms1_routes_return_blocks_that_codeword_would_accept_as_they_stand():
    # ms1_construct skips Codeword's check of each block: every route's
    # block is sorted with distinct coordinates, and every support it makes
    # is the one Codeword's check would have made
    routes = Counter()
    for route, blocks, design in _criterion_5_builds():
        routes[route] += 1
        assert design.meta.split()[2] == route
        assert all(list(block) == sorted(set(block)) for block in blocks)
        assert _supports_as_codeword_makes_them(design)
    assert routes == {"greedy": 55, "havel-hakimi": 1296, "search": 128}


# construct_from_oa, resolvable_affine and the hybrid wrap their blocks
# without Codeword's check of each block too: every support they make is
# the one that check would have made (sorted, distinct int coordinates >= 0,
# int symbols >= 1)
@pytest.mark.parametrize("k", [3, 4, 5, 7, 8, 9])
def test_construct_from_oa_makes_the_supports_codeword_would(k):
    for r in range(1, k):
        assert _supports_as_codeword_makes_them(construct_from_oa(k, r))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_resolvable_affine_makes_the_supports_codeword_would(q):
    assert _supports_as_codeword_makes_them(resolvable_affine(q)[0])


@pytest.mark.parametrize(
    "build",
    [
        lambda: resolvable_affine(3),
        lambda: resolvable_affine(4),
        lambda: resolvable_affine(5),
        build_kts15,
        build_ag33_lines,
    ],
    ids=["AG(2,3)", "AG(2,4)", "AG(2,5)", "KTS(15)", "AG(3,3)"],
)
def test_construct_hybrid_ms_makes_the_supports_codeword_would(build):
    design, resolution = build()
    for i in range(len(resolution.classes) + 1):
        assert _supports_as_codeword_makes_them(construct_hybrid_ms(design, resolution, i))


@pytest.mark.parametrize(
    "build",
    [
        lambda: construct_from_oa(4, 3),
        lambda: resolvable_affine(4)[0],
        lambda: construct_hybrid_ms(*resolvable_affine(3), 1),
        lambda: combine_partition(base_system(4)),
    ],
    ids=["oa-gdd", "affine", "hybrid", "combine"],
)
def test_builders_do_not_check_their_blocks_one_by_one(monkeypatch, build):
    def checked(self):
        raise AssertionError("a built block was checked by Codeword")

    monkeypatch.setattr(Codeword, "__post_init__", checked)
    assert build().report.ok


@pytest.mark.parametrize(
    "route, sizes, k, blocks",
    [
        ("_ms1_greedy", (2, 2, 3, 3), 2, [[2, 3], [2, 3], [0, 1]]),
        ("_ms1_graph", (2, 2, 3, 3), 2, [(2, 3), (2, 3), (0, 1)]),
        ("_ms1_search", (2, 2, 2, 3, 3, 3), 3, [(0, 3, 4), (1, 2, 5), (3, 4, 5)]),
    ],
)
def test_ms1_construct_refuses_a_route_whose_blocks_share_two_coordinates(
    monkeypatch, route, sizes, k, blocks
):
    # each coordinate still lies in q_i - 1 blocks, so coverage passes and
    # only the distance check of the output stands between it and a design:
    # two blocks sharing exactly two coordinates are at distance 2k - 2
    monkeypatch.setattr(constructions, route, lambda *args: blocks)
    with pytest.raises(ConstructionFailed) as err:
        ms1_construct(sizes, k)
    assert not isinstance(err.value, NoSuchSystem)
    assert err.value.report.counterexample.kind == "distance"
    assert err.value.report.counterexample.distance == 2 * k - 2


# ------------------------------------------------------------- OA designs


@pytest.mark.parametrize("k", [3, 4, 5])
def test_construct_from_oa_full_rank_is_mixed_steiner(k):
    design = construct_from_oa(k, k - 1)
    assert design.alphabet.sizes == (2,) * ((k - 1) * k) + (k + 1,)
    assert len(design.blocks) == (k - 1) + k * k
    report = verify_mixed_steiner(design)
    assert report.ok
    assert report.stats["min_distance"] == 2 * k - 3  # exact, not just >=


@pytest.mark.parametrize("k", [3, 4, 5])
def test_construct_from_oa_partial_rank_is_gdd(k):
    for r in range(1, k - 1):
        design = construct_from_oa(k, r)
        assert verify_gdd(design).ok
        typ = gdd_type_of(design)
        assert str(typ) == f"1^{r * k} {k}^{k - r}"
        dist = min_distance(design)
        assert dist.value == k + r - 2
        # the builder's own check ran at exactly that distance
        assert design.report.claim == "gdd"
        assert design.report.stats["required_distance"] == k + r - 2
        assert design.report.stats["min_distance"] == k + r - 2
        # the witness is a genuine attaining pair
        u, v = dist.witness
        assert u in design.blocks and v in design.blocks


def test_construct_from_oa_rejects_bad_r():
    for r in (0, 4, -1):
        with pytest.raises(ROutOfRange):
            construct_from_oa(4, r)


def test_construct_from_oa_needs_prime_power():
    with pytest.raises(NotPrimePower):
        construct_from_oa(6, 5)


# ------------------------------------------------------------ base system


@pytest.mark.parametrize("k", [3, 4, 5])
def test_base_system_invariants(k):
    cover = base_system(k)
    validate_cover(cover)
    assert cover.n == k * (k - 1)
    assert (cover.t, cover.k) == (2, k)
    assert len(cover.r_blocks) == k - 1
    assert len(cover.classes) == k
    assert len(cover.classes[0]) == k  # the column class
    for cls in cover.classes[1:]:
        assert len(cls) == k
        assert all(len(b) == k - 1 for b in cls)


def test_base_system_rejects_bad_k():
    with pytest.raises(ValueError):
        base_system(2)
    with pytest.raises(NotPrimePower):
        base_system(6)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_combine_base_system(k):
    design = combine_partition(base_system(k))
    assert design.alphabet.sizes == (2,) * (k * (k - 1)) + (k + 1,)
    assert len(design.blocks) == (k - 1) + k * k
    report = verify_mixed_steiner(design)
    assert report.ok
    assert report.stats["min_distance"] == 2 * k - 3


def test_combine_base_4_frozen():
    design = combine_partition(base_system(4))
    assert len(design.blocks) == 19
    assert str(gdd_type_of(design)) == "1^12 4^1"


# -------------------------------------------------- cover validation paths


def _small_cover() -> PartitionedCover:
    return base_system(3)


def test_validate_cover_rejects_bad_root_block():
    good = _small_cover()
    bad = PartitionedCover(
        good.n, good.t, good.k, good.r_blocks[:-1] + ((0, 1, 99),), good.classes
    )
    with pytest.raises(CoverInvariantViolated):
        validate_cover(bad)


def test_validate_cover_rejects_duplicate_class_block():
    good = _small_cover()
    cls0 = good.classes[0]
    bad = PartitionedCover(
        good.n, good.t, good.k, good.r_blocks, (cls0, cls0) + good.classes[2:]
    )
    with pytest.raises(CoverInvariantViolated) as err:
        validate_cover(bad)
    assert "two classes" in str(err.value)


@pytest.mark.parametrize(
    "into, message",
    [(1, "block (0, 3) appears twice in class 1"), (2, "block (0, 3) appears in two classes")],
    ids=["one-class", "two-classes"],
)
def test_combine_partition_names_where_a_class_block_repeats(into, message):
    good = _small_cover()
    classes = list(good.classes)
    classes[into] += (good.classes[1][0],)
    bad = PartitionedCover(good.n, good.t, good.k, good.r_blocks, tuple(classes))
    with pytest.raises(CoverInvariantViolated, match=re.escape(message)):
        combine_partition(bad)


def _edited_cover(cover: PartitionedCover, where: str, edit) -> PartitionedCover:
    """The cover with `edit` applied to each block holding point 1 among its
    root blocks (where="root") or in its class 0 (where="class")."""

    def apply(blocks):
        return tuple(edit(b) if 1 in b else b for b in blocks)

    if where == "root":
        return dataclasses.replace(cover, r_blocks=apply(cover.r_blocks))
    return dataclasses.replace(cover, classes=(apply(cover.classes[0]),) + cover.classes[1:])


@pytest.mark.parametrize("where", ["root", "class"])
def test_combine_partition_sorts_a_block_listed_out_of_order(where):
    good = base_system(4)
    unsorted = _edited_cover(good, where, lambda b: tuple(reversed(b)))
    assert unsorted != good
    design, expected = combine_partition(unsorted), combine_partition(good)
    assert [b.support for b in design.blocks] == [b.support for b in expected.blocks]
    assert design_to_json(design) == design_to_json(expected)


@pytest.mark.parametrize("where", ["root", "class"])
@pytest.mark.parametrize("stray, entry", [(1.0, "(1.0, 1)"), (True, "(True, 1)")], ids=["float", "bool"])
def test_combine_partition_refuses_a_point_that_is_not_an_int(where, stray, entry):
    # the point equals 1 and so passes the shape checks; it is refused as
    # Codeword's check refuses the entry (point, 1)
    bad = _edited_cover(base_system(4), where, lambda b: tuple(stray if p == 1 else p for p in b))
    with pytest.raises(ValueError) as info:
        combine_partition(bad)
    assert type(info.value) is ValueError
    assert str(info.value) == f"block entry must be a [coordinate, symbol] pair, got {entry}"


def test_validate_cover_rejects_broken_class():
    good = _small_cover()
    # replace one block of class 1 by a copy of another block from class 0:
    # class 1 then misses a point
    patched = (good.classes[1][:-1] + (good.classes[0][0],),)
    bad = PartitionedCover(
        good.n, good.t, good.k, good.r_blocks, (good.classes[0],) + patched + good.classes[2:]
    )
    with pytest.raises(CoverInvariantViolated):
        validate_cover(bad)


def test_validate_cover_rejects_double_coverage():
    good = _small_cover()
    bad = PartitionedCover(
        good.n, good.t, good.k, good.r_blocks + good.r_blocks[:1], good.classes
    )
    with pytest.raises(CoverInvariantViolated) as err:
        validate_cover(bad)
    assert "covered 2 times" in str(err.value)


@pytest.mark.parametrize(
    "cover, message",
    [
        # t = k: both classes list every singleton, so each class block
        # combines to a distinct word and coverage counts each once
        (
            PartitionedCover(3, 2, 2, ((0, 1), (0, 2), (1, 2)), (((0,), (1,), (2,)),) * 2),
            "block (0,) appears in two classes",
        ),
        # point n = 3 is the new coordinate: root block (2, 3) combines to
        # the class-1 block {2} that the class leaves out
        (
            PartitionedCover(3, 2, 2, ((0, 1), (0, 2), (1, 2), (2, 3)), (((0,), (1,)),)),
            "root block (2, 3) is not a 2-subset",
        ),
    ],
)
def test_shape_checks_refuse_what_the_combined_design_hides(cover, message):
    assert constructions._combine(cover, "unchecked").report.ok
    for check in (combine_partition, validate_cover):
        with pytest.raises(CoverInvariantViolated, match=re.escape(message)):
            check(cover)


@pytest.mark.parametrize("k", [4, 9])
def test_a_cover_is_counted_once(monkeypatch, k):
    calls = []

    def spy(real):
        def counted(*args):
            calls.append(args)
            return real(*args)

        return counted

    # every kernel, in every module that could count the cover's subsets:
    # the packed count at t = 2, first_miscount at any other t
    for name in ("first_miscount", "_pair_miscount"):
        counted = spy(getattr(verify, name))
        for module in (constructions, verify):
            monkeypatch.setattr(module, name, counted, raising=False)
    cover = base_system(k)
    combine_partition(cover)
    assert len(calls) == 1
    validate_cover(cover)
    assert len(calls) == 2


# ------------------------------------------- reference data cross-checks


def test_reference_classes_match_base_system(fixture_b3):
    # The transcribed three classes over 12 points equal ours as a set of
    # classes (each class a set of blocks) -- same partition, class order
    # differs.
    cover = base_system(4)
    ours = {
        frozenset(frozenset(b) for b in cls) for cls in cover.classes[1:]
    }
    theirs = {
        frozenset(frozenset(b) for b in cls) for cls in fixture_b3
    }
    assert ours == theirs


def test_reference_system_invariants(fixture_s_prime):
    report = verify_mixed_steiner(fixture_s_prime)
    assert report.ok
    assert len(fixture_s_prime.blocks) == 19
    assert report.stats["min_distance"] == 5
    assert str(gdd_type_of(fixture_s_prime)) == "1^12 4^1"


def test_reference_system_equals_combined_reference_cover(
    fixture_b3, fixture_s_prime
):
    # Rebuild the cover exactly as transcribed (cross-section root blocks,
    # then the column class, then the three transcribed classes) and combine
    # it: the result must equal the transcribed 19-block system block for
    # block.
    r_blocks = tuple(
        tuple(range(j, 12, 3)) for j in range(3)
    )
    columns = tuple(tuple(range(i * 3, i * 3 + 3)) for i in range(4))
    cover = PartitionedCover(
        12, 2, 4, r_blocks, (columns,) + tuple(tuple(c) for c in fixture_b3)
    )
    validate_cover(cover)
    combined = combine_partition(cover)
    assert set(combined.blocks) == set(fixture_s_prime.blocks)
