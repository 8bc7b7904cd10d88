"""The weight-2 coverage kernel against a brute-force oracle.

The oracle counts every block's weight-2 subwords in a Counter and finds
the first violator by sorting the words on (c1, c2, s1, s2), the contract's
order.  It uses no counting code of the package, so the mask and byte paths
of verify._pair_miscount are each held to an independent answer.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from design_forge import (
    Codeword,
    MixedAlphabet,
    MixedDesign,
    construct_from_oa,
    construct_hybrid_ms,
    resolvable_affine,
)
from design_forge import verify


def oracle(sizes, supports):
    """(word, count) of the first weight-2 word not covered exactly once, or
    None.  A word is ((c1, s1), (c2, s2)) with c1 < c2."""
    counts = Counter(w for support in supports for w in combinations(support, 2))
    words = [
        ((c1, s1), (c2, s2))
        for c1, c2 in combinations(range(len(sizes)), 2)
        for s1 in range(1, sizes[c1])
        for s2 in range(1, sizes[c2])
    ]
    bad = [w for w in words if counts[w] != 1]
    if not bad:
        return None
    first = min(bad, key=lambda w: (w[0][0], w[1][0], w[0][1], w[1][1]))
    return first, counts[first]


def kernel_paths(design, blocks, monkeypatch):
    """The answers of _pair_miscount as the bound picks its packing, with
    masks forced and with bytes forced."""
    alphabet = design.alphabet
    total = sum((p - 1) * (q - 1) for p, q in combinations(alphabet.sizes, 2))
    answers = []
    for per_k in (verify._MASK_ENTRIES_PER_K, 10**9, 0):
        monkeypatch.setattr(verify, "_MASK_ENTRIES_PER_K", per_k)
        answers.append(verify._pair_miscount(alphabet, tuple(blocks), total))
    return tuple(answers)


def edited(design, rng, edits):
    """The design's blocks after seeded edits: a block deleted, duplicated,
    repeated twice more (a word covered three times), given another symbol
    at one coordinate, or with one entry moved to a free coordinate."""
    sizes = design.alphabet.sizes
    blocks = list(design.blocks)
    for edit in edits:
        i = rng.randrange(len(blocks))
        support = dict(blocks[i].support)
        if edit == "delete":
            del blocks[i]
        elif edit == "duplicate":
            blocks.insert(rng.randrange(len(blocks) + 1), blocks[i])
        elif edit == "triple":
            blocks += [blocks[i]] * 2
        elif edit == "symbol":
            wide = [c for c in support if sizes[c] > 2]
            c = rng.choice(wide or sorted(support))
            support[c] = rng.randrange(1, sizes[c])
        else:
            free = [c for c in range(len(sizes)) if c not in support]
            c = rng.choice(sorted(support))
            if free:  # else the entry stays and takes another symbol
                del support[c]
                c = rng.choice(free)
            support[c] = rng.randrange(1, sizes[c])
        if edit in ("symbol", "move"):
            blocks[i] = Codeword(tuple(support.items()))
    return blocks


def lopsided(g):
    """The k = 2 GDD of type 1^1 g^1: every block through entry (0, 1)."""
    blocks = [Codeword(((0, 1), (1, s))) for s in range(1, g + 1)]
    return MixedDesign(MixedAlphabet((2, g + 1)), 2, 2, tuple(blocks))


def complete(sizes):
    """The k = 2 GDD whose blocks are all its weight-2 words."""
    blocks = [
        Codeword(((c1, s1), (c2, s2)))
        for c1, c2 in combinations(range(len(sizes)), 2)
        for s1 in range(1, sizes[c1])
        for s2 in range(1, sizes[c2])
    ]
    return MixedDesign(MixedAlphabet(sizes), 2, 2, tuple(blocks))


def _narrow():
    plane, classes = resolvable_affine(4)
    return {
        # the first coordinate's entries tie on c2 often, where the
        # contract's (c1, c2, s1, s2) order picks the least s1
        "type 3^1 1^3 complete": complete((4, 2, 2, 2)),
        "oa-gdd k=4 r=2": construct_from_oa(4, 2),
        "oa-gdd k=5 r=3": construct_from_oa(5, 3),
        "AG(2,4)": plane,
        "hybrid k=4 i=0": construct_hybrid_ms(plane, classes, 0),
        "hybrid k=4 i=2": construct_hybrid_ms(plane, classes, 2),
        "type 1^1 40^1": lopsided(40),
    }


NARROW = _narrow()
EDITS = ["delete", "duplicate", "triple", "symbol", "move"]


@pytest.mark.parametrize("name", sorted(NARROW))
@pytest.mark.parametrize("edit", EDITS)
def test_each_path_names_what_the_oracle_names(name, edit, monkeypatch):
    design = NARROW[name]
    assert kernel_paths(design, design.blocks, monkeypatch) == (None,) * 3
    for seed in range(8):
        rng = random.Random(f"{name} {edit} {seed}")
        blocks = edited(design, rng, [edit] * rng.randint(1, 3))
        want = oracle(design.alphabet.sizes, [b.support for b in blocks])
        assert kernel_paths(design, blocks, monkeypatch) == (want,) * 3


@pytest.mark.parametrize("name", sorted(NARROW))
def test_each_path_names_what_the_oracle_names_after_mixed_edits(name, monkeypatch):
    design = NARROW[name]
    for seed in range(20):
        rng = random.Random(f"{name} mixed {seed}")
        blocks = edited(design, rng, rng.choices(EDITS, k=rng.randint(2, 5)))
        want = oracle(design.alphabet.sizes, [b.support for b in blocks])
        assert kernel_paths(design, blocks, monkeypatch) == (want,) * 3


@pytest.fixture
def paths_run(monkeypatch):
    """The names of the kernel paths that _pair_miscount runs."""
    ran = []
    for name in ("_pair_masks", "_pair_bytes"):
        real = getattr(verify, name)

        def spy(*args, real=real, name=name):
            ran.append(name)
            return real(*args)

        monkeypatch.setattr(verify, name, spy)
    return ran


@pytest.mark.parametrize(
    "g, path",
    [
        # p = sum(q_i - 1) = g + 1 entries against the bound 4096 (k - 1)
        (4095, "_pair_masks"),
        (4096, "_pair_bytes"),
    ],
)
def test_the_bound_picks_the_path(paths_run, g, path):
    design = lopsided(g)
    sizes = design.alphabet.sizes
    assert sum(sizes) - len(sizes) == g + 1
    cases = [
        design.blocks,
        design.blocks[1:],
        design.blocks[:-1] + design.blocks[-2:-1],
        design.blocks + design.blocks[:1] * 300,
    ]
    for blocks in cases:
        want = oracle(sizes, [b.support for b in blocks])
        assert verify._pair_miscount(design.alphabet, blocks, g) == want
    assert paths_run == [path] * len(cases)


def test_a_lopsided_alphabet_past_the_bound_is_counted_in_bytes(paths_run):
    g = 20000
    design = lopsided(g)
    assert verify._pair_miscount(design.alphabet, design.blocks, g) is None
    rng = random.Random(20000)
    for edit in EDITS:
        blocks = edited(design, rng, [edit])
        want = oracle(design.alphabet.sizes, [b.support for b in blocks])
        assert verify._pair_miscount(design.alphabet, tuple(blocks), g) == want
    assert paths_run == ["_pair_bytes"] * (1 + len(EDITS))


def test_a_two_entry_first_coordinate_past_the_bound_is_counted_in_bytes(paths_run):
    # type 2^1 1^1 4096^1 at k = 2: P = 4099 entries, past 4096 (k - 1), and
    # the violator's first coordinate holds two entries, so its s1 is chosen
    # between two rows: by the lower c2, and on a tie by the lower s1
    design = complete((3, 2, 4097))
    sizes, total = design.alphabet.sizes, len(design.blocks)

    def without(*words):
        return [b for b in design.blocks if b.support not in words]

    cases = [
        design.blocks,
        without(((0, 1), (2, 5)), ((0, 2), (1, 1))),  # s1 = 2 has the lower c2
        without(((0, 1), (2, 5)), ((0, 2), (2, 3))),  # a tie on c2 keeps s1 = 1
    ]
    for edit in EDITS:
        for seed in range(4):
            rng = random.Random(f"type 2^1 1^1 4096^1 {edit} {seed}")
            cases.append(edited(design, rng, [edit] * rng.randint(1, 3)))
    for blocks in cases:
        want = oracle(sizes, [b.support for b in blocks])
        assert verify._pair_miscount(design.alphabet, tuple(blocks), total) == want
    assert oracle(sizes, [b.support for b in cases[1]]) == (((0, 2), (1, 1)), 0)
    assert oracle(sizes, [b.support for b in cases[2]]) == (((0, 1), (2, 5)), 0)
    assert paths_run == ["_pair_bytes"] * len(cases)


def test_a_wide_k_3_alphabet_at_the_bound_takes_masks(paths_run):
    # type 1^2 8190^1: p = 8192 = 4096 (k - 1); the binary pair is covered
    # 8190 times, past a byte's 255, and the masks recount it
    g = 8190
    blocks = tuple(Codeword(((0, 1), (1, 1), (2, s))) for s in range(1, g + 1))
    alphabet = MixedAlphabet((2, 2, g + 1))
    total = 1 + 2 * g
    want = oracle(alphabet.sizes, [b.support for b in blocks])
    assert want == (((0, 1), (1, 1)), g)
    assert verify._pair_miscount(alphabet, blocks, total) == want
    assert paths_run == ["_pair_masks"]
