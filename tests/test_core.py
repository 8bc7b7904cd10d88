"""Core types: words, distances, coverage, and word counting."""

from __future__ import annotations

import math
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from design_forge import (
    AlphabetMismatch,
    Codeword,
    GddType,
    MixedAlphabet,
    MixedDesign,
    covers,
    enumerate_t_words,
    gdd_type_of,
    hamming_distance,
    min_distance,
    word_count,
)


def test_codeword_sorts_support():
    w = Codeword(((3, 1), (0, 2)))
    assert w.support == ((0, 2), (3, 1))
    assert w.coordinates == (0, 3)
    assert w.weight == 2
    assert w.symbol(0) == 2
    assert w.symbol(1) == 0


def test_codeword_rejects_bad_support():
    with pytest.raises(ValueError):
        Codeword(((0, 1), (0, 2)))  # repeated coordinate
    with pytest.raises(ValueError):
        Codeword(((0, 0),))  # zero symbol
    with pytest.raises(ValueError):
        Codeword(((-1, 1),))  # negative coordinate


def test_alphabet_validation():
    with pytest.raises(ValueError):
        MixedAlphabet(())
    with pytest.raises(ValueError):
        MixedAlphabet((2, 1))
    a = MixedAlphabet((2, 3, 4))
    assert a.n == 3
    assert a.group_sizes == (1, 2, 3)
    a.check_word(Codeword(((2, 3),)))
    with pytest.raises(AlphabetMismatch):
        a.check_word(Codeword(((3, 1),)))  # coordinate out of range
    with pytest.raises(AlphabetMismatch):
        a.check_word(Codeword(((1, 4),)))  # symbol out of range


def test_design_validation():
    a = MixedAlphabet((2, 2, 2))
    b = Codeword(((0, 1), (1, 1)))
    with pytest.raises(ValueError):
        MixedDesign(a, 3, 2, (b,))  # t > k
    with pytest.raises(ValueError):
        MixedDesign(a, 0, 2, (b,))  # t < 1
    with pytest.raises(ValueError):
        MixedDesign(a, 1, 3, (b,))  # wrong block weight
    with pytest.raises(AlphabetMismatch):
        MixedDesign(a, 1, 2, (Codeword(((0, 1), (5, 1))),))
    d = MixedDesign(a, 1, 2, (b, b))  # duplicates representable on purpose
    assert len(d.blocks) == 2


def test_hamming_distance_cases():
    u = Codeword(((0, 1), (1, 1)))
    assert hamming_distance(u, u) == 0
    assert hamming_distance(u, Codeword(((2, 1), (3, 1)))) == 4  # disjoint
    assert hamming_distance(u, Codeword(((0, 1), (2, 1)))) == 2  # share =
    assert hamming_distance(u, Codeword(((0, 2), (1, 1)))) == 1  # share !=
    assert hamming_distance(Codeword(((0, 1),)), Codeword(((0, 1), (1, 1)))) == 1
    with pytest.raises(AlphabetMismatch):
        hamming_distance(u, u, alphabet=MixedAlphabet((2,)))


def test_hamming_distance_shared_coordinate_algebra():
    # For weight-k words: distance = 2k - 2*(shared equal) - (shared unequal).
    words = [
        Codeword(tuple(zip(coords, syms)))
        for coords in combinations(range(4), 2)
        for syms in product((1, 2), repeat=2)
    ]
    for u in words:
        for v in words:
            s = sum(
                1 for c, sym in u.support if v.symbol(c) == sym
            )
            m = sum(
                1 for c, sym in u.support if v.symbol(c) not in (0, sym)
            )
            assert hamming_distance(u, v) == 2 * 2 - 2 * s - m, (u, v)


def test_hamming_distance_is_symmetric_and_triangular():
    words = [
        Codeword(tuple(zip(coords, syms)))
        for coords in combinations(range(3), 2)
        for syms in product((1, 2), repeat=2)
    ]
    for u in words:
        for v in words:
            assert hamming_distance(u, v) == hamming_distance(v, u)
            for w in words:
                assert (
                    hamming_distance(u, w)
                    <= hamming_distance(u, v) + hamming_distance(v, w)
                )


def test_covers():
    block = Codeword(((0, 1), (2, 2), (5, 1)))
    assert covers(block, Codeword(((0, 1), (5, 1))))
    assert covers(block, Codeword(((2, 2),)))
    assert not covers(block, Codeword(((0, 2),)))
    assert not covers(block, Codeword(((1, 1),)))


def test_min_distance_witness_is_lexicographically_least():
    a = MixedAlphabet((2,) * 6)
    blocks = (
        Codeword(((0, 1), (1, 1))),
        Codeword(((2, 1), (3, 1))),
        Codeword(((0, 1), (2, 1))),  # distance 2 to both of the above
        Codeword(((4, 1), (5, 1))),
    )
    result = min_distance(MixedDesign(a, 1, 2, blocks))
    assert result.value == 2
    assert result.witness == (blocks[0], blocks[2])  # least minimal pair


def test_min_distance_infinite_for_small_designs():
    a = MixedAlphabet((2, 2))
    assert min_distance(MixedDesign(a, 1, 2, ())).value == math.inf
    one = MixedDesign(a, 1, 2, (Codeword(((0, 1), (1, 1))),))
    assert min_distance(one).value == math.inf
    assert min_distance(one).witness is None


def _brute_force_min_distance(design):
    """Reference: every pair of sorted blocks in order, per-pair Hamming
    distance, first minimum kept."""
    best, witness = math.inf, None
    for u, v in combinations(sorted(design.blocks), 2):
        d = hamming_distance(u, v)
        if d < best:
            best, witness = d, (u, v)
    return best, witness


@st.composite
def _designs(draw):
    sizes = draw(
        st.lists(st.one_of(st.integers(2, 4), st.integers(2, 10**9)), min_size=1, max_size=6)
    )
    k = draw(st.integers(1, len(sizes)))
    def supports(coords):
        return st.tuples(*(st.tuples(st.just(c), st.integers(1, sizes[c] - 1)) for c in coords))

    block = st.lists(
        st.integers(0, len(sizes) - 1), min_size=k, max_size=k, unique=True
    ).flatmap(supports)
    blocks = draw(st.lists(block.map(Codeword), max_size=12))
    if blocks:
        blocks += draw(st.lists(st.sampled_from(blocks), max_size=3))  # duplicates
    blocks = draw(st.permutations(blocks))
    return MixedDesign(MixedAlphabet(tuple(sizes)), 1, k, tuple(blocks))


@settings(max_examples=200, deadline=None)
@given(_designs())
def test_min_distance_matches_brute_force(design):
    result = min_distance(design)
    assert (result.value, result.witness) == _brute_force_min_distance(design)


def test_min_distance_memory_tracks_support_not_alphabet():
    # 200 blocks over a coordinate of size 10**6; numbering bits by alphabet
    # offset would make each mask ~125 kB wide, ~25 MB in all
    alphabet = MixedAlphabet((10**6, 2))
    blocks = tuple(Codeword(((0, 1 + 4999 * j), (1, 1))) for j in range(200))
    design = MixedDesign(alphabet, 1, 2, blocks)
    tracemalloc.start()
    try:
        result = min_distance(design)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.value == 1
    assert result.witness == (blocks[0], blocks[1])
    assert peak < 5 * 2**20


def test_enumerate_t_words_matches_count():
    for sizes in [(2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 2, 5)]:
        alphabet = MixedAlphabet(sizes)
        for t in range(len(sizes) + 1):
            words = list(enumerate_t_words(alphabet, t))
            assert len(words) == word_count(alphabet, t)
            assert len(set(words)) == len(words)
            assert all(w.weight == t for w in words)
            # documented order: coordinate set first, then symbol vector
            key = lambda w: (w.coordinates, tuple(s for _, s in w.support))
            assert words == sorted(words, key=key)


def test_word_count_closed_form():
    alphabet = MixedAlphabet((2, 3, 4))
    # e_2 of group sizes (1, 2, 3) = 1*2 + 1*3 + 2*3 = 11
    assert word_count(alphabet, 2) == 11
    assert word_count(alphabet, 0) == 1
    assert word_count(alphabet, 3) == 6
    with pytest.raises(ValueError):
        word_count(alphabet, 4)
    with pytest.raises(ValueError):
        list(enumerate_t_words(alphabet, 4))


def test_gdd_type():
    a = MixedAlphabet((2,) * 12 + (5,))
    d = MixedDesign(a, 1, 1, (Codeword(((0, 1),)),))
    typ = gdd_type_of(d)
    assert str(typ) == "1^12 4^1"
    assert typ.total_points == 16
    assert GddType.from_alphabet(MixedAlphabet((3, 3, 3))).pairs == ((2, 3),)
