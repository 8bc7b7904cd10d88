"""Coverage at t != 2 and large-set multiplicity against a brute-force oracle.

The oracle counts every support's weight-t subwords in a Counter and walks
the words in the contract's order, coordinate sets in combinations order
and then symbol vectors in product order, to the first whose count is not
the wanted one.  It uses no counting code of the package, so both counts
of verify._coverage_counterexample at t != 2 (one coordinate set at a time
through verify._set_miscount where every block lies on all n coordinates,
else all subwords at once) are held to an independent answer.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import combinations, product

import pytest

from design_forge import Codeword, LargeSet, MixedAlphabet, verify, verify_large_set
from tests.conftest import build_boolean_sqs, build_sum_large_set


def oracle(sizes, t, supports, want=1):
    """(word, count) of the first weight-t word not covered `want` times,
    or None."""
    counts = Counter(w for support in supports for w in combinations(support, t))
    for coords in combinations(range(len(sizes)), t):
        for syms in product(*(range(1, sizes[c]) for c in coords)):
            word = tuple(zip(coords, syms))
            if counts[word] != want:
                return word, counts[word]
    return None


def word_total(sizes, t):
    return sum(math.prod(sizes[c] - 1 for c in coords) for coords in combinations(range(len(sizes)), t))


def counted(sizes, t, supports):
    """(word, count) of the coverage counterexample, or None."""
    blocks = [Codeword(s) for s in supports]
    ce, total = verify._coverage_counterexample(MixedAlphabet(sizes), t, blocks, 10**9)
    assert total == word_total(sizes, t)
    return None if ce is None else (ce.word.support, ce.count)


def fold(ls):
    """The blocks of a large set's fold, copy j (1-based) at a hole
    coordinate appended after its n group coordinates, and the fold's
    alphabet sizes (the hole has one symbol per copy)."""
    n = ls.alphabet.n
    blocks = [b.support + ((n, j),) for j, copy in enumerate(ls.copies, start=1) for b in copy]
    return ls.alphabet.sizes + (len(ls.copies) + 1,), blocks


def mixed():
    """A large run and singleton runs of coordinate sets: copy 0 of the sum
    large set LH(4, 4, 4, 3), 64 blocks on coordinates 0-3 of Z_5, and one
    block on each set {a, b, c, 4} with a binary coordinate 4.  It fails:
    the singletons cover words of the large run's sets a second time."""
    run = [b.support for b in build_sum_large_set(4, 3).copies[0]]
    singles = [
        tuple((c, 1 + (c + i) % 4) for c in triple) + ((4, 1),)
        for i, triple in enumerate(combinations(range(4), 3))
    ]
    return (5, 5, 5, 5, 2), run + singles


def _designs():
    """name -> (sizes, supports, t, the answer before any edit)"""
    designs = {}
    for g, t in ((2, 3), (3, 3), (4, 3), (2, 4)):
        designs[f"fold of LH({t + 1},{g},{t + 1},{t})"] = (*fold(build_sum_large_set(g, t)), t + 1, None)
    for m in (4, 5):
        sqs = build_boolean_sqs(m)
        designs[f"Boolean SQS({2**m})"] = (sqs.alphabet.sizes, [b.support for b in sqs.blocks], 3, None)
    # the singleton on {0, 1, 2, 4} holds (1, 2, 3) on {0, 1, 2}, which the
    # large run covers too (1 + 2 + 3 + 2 is 0 mod 4), and the earlier words
    # there are covered once, by the large run alone
    designs["large run and singletons"] = (*mixed(), 3, (((0, 1), (1, 2), (2, 3)), 2))
    return designs


DESIGNS = _designs()
EDITS = ["delete", "duplicate", "symbol", "move"]


def edited(sizes, blocks, rng, edits):
    """The supports after seeded edits: one deleted, duplicated, given
    another symbol at one coordinate, or with one entry moved to a free
    coordinate (else given another symbol there)."""
    blocks = list(blocks)
    for edit in edits:
        i = rng.randrange(len(blocks))
        support = dict(blocks[i])
        if edit == "delete":
            del blocks[i]
        elif edit == "duplicate":
            blocks.insert(rng.randrange(len(blocks) + 1), blocks[i])
        else:
            c = rng.choice(sorted(support))
            free = [x for x in range(len(sizes)) if x not in support]
            if edit == "move" and free:
                del support[c]
                c = rng.choice(free)
            support[c] = rng.randrange(1, sizes[c])
            blocks[i] = tuple(sorted(support.items()))
    return blocks


@pytest.mark.parametrize("name", sorted(DESIGNS))
@pytest.mark.parametrize("edit", EDITS)
def test_the_count_names_what_the_oracle_names(name, edit):
    sizes, blocks, t, want = DESIGNS[name]
    assert oracle(sizes, t, blocks) == want
    assert counted(sizes, t, blocks) == want
    for seed in range(6):
        rng = random.Random(f"{name} {edit} {seed}")
        changed = edited(sizes, blocks, rng, [edit] * rng.randint(1, 3))
        assert counted(sizes, t, changed) == oracle(sizes, t, changed)


def test_an_empty_block_list_misses_the_first_word():
    sizes = (3, 3, 3, 3)
    want = (((0, 1), (1, 1), (2, 1)), 0)
    assert oracle(sizes, 3, []) == want
    assert counted(sizes, 3, []) == want


def test_a_lambda_2_large_set_is_checked_against_the_oracle():
    ls = build_sum_large_set(3, 2)
    double = LargeSet(ls.alphabet, ls.t, ls.k, ls.copies * 2, lam=2)
    assert verify_large_set(double).ok
    sizes = ls.alphabet.sizes
    rng = random.Random("lambda 2")
    for _ in range(10):
        copies = [list(copy) for copy in double.copies]
        j = rng.randrange(len(copies))
        copies[j] = [Codeword(s) for s in edited(sizes, [b.support for b in copies[j]], rng, [rng.choice(EDITS)])]
        members = [s for copy in copies for s in {b.support for b in copy}]
        want = oracle(sizes, ls.k, members, 2)
        report = verify_large_set(LargeSet(ls.alphabet, ls.t, ls.k, copies, lam=2))
        if want is None:
            assert report.counterexample is None or report.counterexample.kind == "copy"
        else:
            ce = report.counterexample
            assert (ce.kind, ce.word.support, ce.count) == ("multiplicity", *want)


@pytest.fixture
def counts_run(monkeypatch):
    """The item lists that verify hands to first_miscount."""
    ran = []
    real = verify.first_miscount

    def spy(items, *args):
        ran.append(items)
        return real(items, *args)

    monkeypatch.setattr(verify, "first_miscount", spy)
    return ran


@pytest.mark.parametrize(
    "sizes, t, by_set",
    [
        # blocks on all four coordinates, counted set by set at any t != 2,
        # including t = 1 and blocks that are their own one weight-t word
        ((3, 2, 2, 2), 3, True),
        ((3, 2, 2, 2), 1, True),
        ((3, 2, 2, 2), 4, True),
        # blocks on coordinates 0-3 of five, counted flat
        ((3, 2, 2, 2, 2), 3, False),
        ((3, 2, 2, 2, 2), 1, False),
    ],
)
def test_the_rule_picks_the_path(counts_run, sizes, t, by_set):
    every = [tuple(zip(range(4), syms)) for syms in product(*(range(1, q) for q in sizes[:4]))]
    for blocks in (every, every[1:], every + every[:1]):
        counts_run.clear()
        want = oracle(sizes, t, blocks)
        assert counted(sizes, t, blocks) == want
        if by_set:
            # one count per coordinate set, of symbol tuples, up to the
            # oracle's bad one, or every set where the oracle finds none
            sets = list(combinations(range(4), t))
            read = len(sets) if want is None else sets.index(tuple(c for c, _ in want[0])) + 1
            assert len(counts_run) == read
            assert all(len(s) == t and all(type(x) is int for x in s) for items in counts_run for s in items)
        else:
            assert counts_run == [[w for b in blocks for w in combinations(b, t)]]


def test_a_reject_stops_at_the_first_bad_set(counts_run):
    # the fold of LH(4,3,4,3) with its last block deleted: the first set
    # (0, 1, 2, 3) of the five misses one word, and no later set is counted
    sizes, blocks = fold(build_sum_large_set(3, 3))
    bad = counted(sizes, 4, blocks[:-1])
    assert bad == oracle(sizes, 4, blocks[:-1]) == (blocks[-1][:4], 0)
    assert len(counts_run) == 1 and len(counts_run[0]) == len(blocks) - 1
