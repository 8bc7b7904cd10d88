"""Core types: words, distances, coverage, and word counting."""

from __future__ import annotations

import math
import random
import re
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
    Resolution,
    construct_hybrid_ms,
    covers,
    enumerate_t_words,
    gdd_type_of,
    hamming_distance,
    min_distance,
    resolvable_affine,
    word_count,
)
from design_forge.core import first_miscount
from tests.conftest import brute_force_min_distance


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


@pytest.mark.parametrize(
    "entry",
    [(0, 1.5), (0.0, 1), (True, 1), (0, False), ("0", 1), (0, "1"), "01", (0,), (0, 1, 1), [0, [1]], None],
)
def test_codeword_accepts_only_int_pairs(entry):
    # bool is an int subclass; a float or string entry would let a design
    # build that design_to_json then writes as a file the reader refuses
    with pytest.raises(ValueError, match=r"block entry must be a \[coordinate, symbol\] pair"):
        Codeword(((2, 1), entry))


def test_codeword_takes_lists_and_stores_sorted_tuples():
    # the JSON reader hands Codeword the lists it parsed
    assert Codeword([[3, 1], [0, 2]]).support == ((0, 2), (3, 1))


@pytest.mark.parametrize("size", [3.7, "2", True, None])
def test_alphabet_accepts_only_int_sizes(size):
    with pytest.raises(ValueError, match=re.escape(f"alphabet size must be an int, got {size!r}")):
        MixedAlphabet((2, size))


@pytest.mark.parametrize("index", [1.9, "1", True, None])
def test_resolution_accepts_only_int_indices(index):
    message = f"class entry must be a block index (int), got {index!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Resolution(((0, index),))


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


@st.composite
def _wide_designs(draw):
    """The regimes `_designs` never draws: 65 to 100 blocks, so a column
    of block bits spans several machine words, and k up to 20, so the
    counter has up to (2k).bit_length() = 6 slices.  Few spare coordinates
    with few symbols, and near-copies of earlier blocks (a duplicate when
    no entry moves), give large shared counts that carry into the top slice
    and ties at the row maximum.  Half the draws keep only distinct blocks,
    so that the minimum is not a duplicate's 0; a small word space then
    leaves fewer blocks."""
    k = draw(st.integers(1, 20))
    sizes = draw(st.lists(st.integers(2, 4), min_size=k + 1, max_size=k + 6))
    fewest_moves = draw(st.integers(0, 2))
    distinct = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    target = draw(st.integers(65, 100))
    blocks = []
    for _ in range(3 * target):
        if blocks and rng.random() < 0.5:
            support = dict(rng.choice(blocks).support)
            for _ in range(rng.randint(fewest_moves, 3)):
                c = rng.choice(list(support))
                others = [s for s in range(1, sizes[c]) if s != support[c]]
                if others and rng.random() < 0.5:
                    support[c] = rng.choice(others)  # change a symbol
                else:  # or move an entry to a coordinate the block misses
                    del support[c]
                    c = rng.choice([x for x in range(len(sizes)) if x not in support and x != c])
                    support[c] = rng.randint(1, sizes[c] - 1)
        else:
            support = {c: rng.randint(1, sizes[c] - 1) for c in rng.sample(range(len(sizes)), k)}
        block = Codeword(tuple(support.items()))
        if not (distinct and block in blocks):
            blocks.append(block)
        if len(blocks) == target:
            break
    return MixedDesign(MixedAlphabet(tuple(sizes)), 1, k, tuple(blocks))


@settings(max_examples=260, deadline=None)
@given(st.one_of(_designs(), _wide_designs()))
def test_min_distance_matches_brute_force(design):
    result = min_distance(design)
    assert (result.value, result.witness) == brute_force_min_distance(design)


def test_min_distance_tie_beyond_the_first_machine_word():
    # 99 blocks of weight 20: sorted blocks 0..96 are the constant words
    # 1..97, and blocks 97 and 98 differ from block 0 only at coordinate 0.
    # Row 0's maximum, 39 shared bits (binary 100111, so in the top slice of
    # six), is tied at blocks 97 and 98, past the first 64 block bits.
    rest = tuple((c, 1) for c in range(1, 20))
    blocks = [Codeword(tuple((c, j) for c in range(20))) for j in range(1, 98)]
    blocks += [Codeword(((0, s),) + rest) for s in (98, 99)]
    design = MixedDesign(MixedAlphabet((100,) * 20), 1, 20, tuple(reversed(blocks)))
    result = min_distance(design)
    assert (result.value, result.witness) == (1, (blocks[0], blocks[97]))
    assert (result.value, result.witness) == brute_force_min_distance(design)


def test_min_distance_memory_on_the_hybrid_k5_i0():
    # 745 blocks; the column ints take about 54 kB at peak on CPython 3.11
    plane, classes = resolvable_affine(5)
    design = construct_hybrid_ms(plane, classes, 0)
    tracemalloc.start()
    try:
        result = min_distance(design)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.value == 7
    assert peak < 2**17


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


@st.composite
def _multisets(draw):
    """An ordered universe of 0..6 elements, a want in 1..3 and a multiset
    over the universe: either arbitrary (repeats, missing elements, the empty
    list) or every element `want` times with a few removed and added."""
    ordered = draw(st.permutations(range(draw(st.integers(0, 6)))))
    want = draw(st.integers(1, 3))
    if not ordered:
        return ordered, want, []
    element = st.sampled_from(ordered)
    items = draw(st.one_of(
        st.lists(element, max_size=12),
        st.lists(element, max_size=2).flatmap(
            lambda extra: st.lists(st.sampled_from(ordered), max_size=2).map(
                lambda drop: [e for e in ordered for _ in range(want - drop.count(e))] + extra
            )
        ),
    ))
    return ordered, want, draw(st.permutations(items))


@settings(max_examples=300, deadline=None)
@given(_multisets())
def test_first_miscount_matches_brute_force(case):
    ordered, want, items = case
    brute = next(((e, items.count(e)) for e in ordered if items.count(e) != want), None)
    assert first_miscount(items, len(ordered), lambda: iter(ordered), want) == brute


def test_enumerate_t_words_matches_count():
    # equal sizes are counted together, as one g^m of the group type
    for sizes in [(2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 2, 5), (2, 2, 2, 2, 3, 3, 5)]:
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
