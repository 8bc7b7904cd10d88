"""Resolvable designs and the blow-up/replacement construction."""

from __future__ import annotations

import hashlib

import pytest

from design_forge import (
    Codeword,
    MixedAlphabet,
    MixedDesign,
    NotPrimePower,
    NotResolvable,
    Resolution,
    base_system,
    construct_hybrid_ms,
    design_from_json,
    design_to_json,
    expand_design,
    gdd_type_of,
    resolvable_affine,
    validate_cover,
    verify_mixed_steiner,
    verify_resolution,
    verify_steiner,
)
from tests.conftest import build_ag33_lines, build_ag34_lines, build_kts15


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_resolvable_affine_is_a_resolvable_steiner_system(q):
    design, resolution = resolvable_affine(q)
    assert verify_steiner(design, 2, q, q * q).ok
    report = verify_resolution(design, resolution)
    assert report.ok
    assert len(resolution.classes) == q + 1
    assert report.stats["class_count_matches"]


def test_resolvable_affine_2_frozen():
    # Order 2: lines of slope 0, slope 1, then the vertical class.
    design, resolution = resolvable_affine(2)
    point_classes = [
        [tuple(c for c, _ in design.blocks[i].support) for i in cls]
        for cls in resolution.classes
    ]
    assert point_classes == [
        [(0, 2), (1, 3)],
        [(0, 3), (1, 2)],
        [(0, 1), (2, 3)],
    ]


@pytest.mark.parametrize("build", [expand_design, construct_hybrid_ms])
@pytest.mark.parametrize("i", [5, -1])
def test_the_replaced_count_is_checked_first(monkeypatch, build, i):
    design, resolution = resolvable_affine(3)
    # a ceiling of 0 words refuses any hybrid, but the range is checked first
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", "0")
    with pytest.raises(ValueError, match=f"^need 0 <= i <= 4, got {i}$"):
        build(design, resolution, i)


@pytest.mark.parametrize(
    "k, i, message",
    [
        (6, 0, "k = 6 is not a prime power, which the hybrid's base system needs"),
        (6, 1, "k = 6 is not a prime power"),
        (7, 1, "k - 1 = 6 is not a prime power: replacing i >= 1 classes needs k and k - 1 both"),
        (2, 1, "k - 1 = 1 is not a prime power"),
    ],
)
def test_expand_design_names_the_order_that_is_not_a_prime_power(k, i, message):
    # the one-block S(2, k, k), whose one block is its one parallel class
    design = MixedDesign(
        MixedAlphabet((2,) * k), 2, k, (Codeword(tuple((c, 1) for c in range(k))),)
    )
    resolution = Resolution(((0,),))
    with pytest.raises(NotPrimePower, match=f"^{message}"):
        expand_design(design, resolution, i)
    with pytest.raises(NotPrimePower, match=f"^{message}"):
        construct_hybrid_ms(design, resolution, i)


def test_a_prime_power_k_with_i_0_needs_nothing_of_k_minus_1():
    design = MixedDesign(MixedAlphabet((2,) * 7), 2, 7, (Codeword(tuple((c, 1) for c in range(7))),))
    hybrid = construct_hybrid_ms(design, Resolution(((0,),)), 0)
    assert verify_mixed_steiner(hybrid).ok


def test_expand_design_counts_k3():
    design, resolution = resolvable_affine(3)
    # no replacement: every T-block contributes 2 root blocks and 2 derived
    # class fragments; 4 classes x 3 blocks -> 24 root blocks, 1 + 4*2 classes
    cover0 = expand_design(design, resolution, 0)
    validate_cover(cover0)
    assert (len(cover0.r_blocks), len(cover0.classes)) == (24, 9)
    # full replacement: every T-block contributes the 4 transversal blocks
    # of the extended array -> 12 * 4 root blocks and only the column class
    cover4 = expand_design(design, resolution, 4)
    validate_cover(cover4)
    assert (len(cover4.r_blocks), len(cover4.classes)) == (48, 1)


def test_expand_design_rejects_broken_steiner_input():
    design, resolution = resolvable_affine(3)
    blocks = list(design.blocks)
    blocks[0] = Codeword(((0, 1), (1, 1), (2, 1)))  # duplicates block of the
    # vertical class, so pair coverage breaks
    broken = MixedDesign(design.alphabet, 2, 3, tuple(blocks))
    with pytest.raises(NotResolvable):
        expand_design(broken, resolution, 0)


def test_expand_design_rejects_broken_resolution():
    design, resolution = resolvable_affine(3)
    c0, c1 = list(resolution.classes[0]), list(resolution.classes[1])
    c0[0], c1[0] = c1[0], c0[0]
    broken = Resolution((tuple(c0), tuple(c1)) + resolution.classes[2:])
    with pytest.raises(NotResolvable):
        expand_design(design, broken, 0)


def test_expand_design_rejects_wrong_class_count():
    design, resolution = resolvable_affine(3)
    merged = Resolution(
        (resolution.classes[0] + resolution.classes[1],) + resolution.classes[2:]
    )
    # the resolution check refuses a merged class before any class count:
    # once T and its resolution pass, the class count follows
    with pytest.raises(
        NotResolvable, match=r"^input resolution fails: coordinate 0 appears 2 times in class 0$"
    ):
        expand_design(design, merged, 0)


@pytest.mark.parametrize("k", [3, 4, 5, 7, 8, 9])
def test_expand_design_over_one_block_is_the_base_system(k):
    # the one-block S(2, k, k) maps the base points through the identity
    block = Codeword(tuple((c, 1) for c in range(k)))
    design = MixedDesign(MixedAlphabet((2,) * k), 2, k, (block,))
    assert expand_design(design, Resolution(((0,),)), 0) == base_system(k)


def test_hybrid_k3_family():
    design, resolution = resolvable_affine(3)
    expected_blocks = [105, 93, 81, 69, 57]
    expected_distance = [3, 3, 3, 3, 4]
    for i in range(5):
        hybrid = construct_hybrid_ms(design, resolution, i)
        assert hybrid.alphabet.sizes == (2,) * 18 + (10 - 2 * i,)
        assert len(hybrid.blocks) == expected_blocks[i]
        report = verify_mixed_steiner(hybrid)
        assert report.ok, (i, report.counterexample)
        assert report.stats["min_distance"] == expected_distance[i]


@pytest.mark.parametrize(
    "build, n, k",
    [(build_kts15, 15, 3), (build_ag33_lines, 27, 3), (build_ag34_lines, 64, 4)],
    ids=["KTS(15)", "AG(3,3)", "AG(3,4)"],
)
def test_hybrid_on_a_resolvable_input_other_than_a_plane(build, n, k):
    # every i builds, and each output verifies again from its written JSON.
    # Over N = n(k - 1) binary coordinates and one of r + 1 symbols, with
    # r = n - (k - 1)i classes left, every block holds C(k, 2) of the
    # C(N, 2) + N*r weight-2 words: 295..155 blocks for KTS(15), 963..495
    # for AG(3,3) and 5104..3088 for AG(3,4).  The distance is 2k - 3 until
    # the last class, where the output is the Steiner system S(2, k, N + 1)
    design, resolution = build()
    assert verify_steiner(design, 2, k, n).ok
    assert verify_resolution(design, resolution).ok
    classes = (n - 1) // (k - 1)
    assert len(resolution.classes) == classes
    binary = n * (k - 1)
    for i in range(classes + 1):
        hybrid = construct_hybrid_ms(design, resolution, i)
        r = n - (k - 1) * i
        assert hybrid.alphabet.sizes == (2,) * binary + (r + 1,)
        assert len(hybrid.blocks) == (binary * (binary - 1) // 2 + binary * r) // (k * (k - 1) // 2)
        read, _ = design_from_json(design_to_json(hybrid))
        report = verify_mixed_steiner(read)
        assert report.ok, (i, report.counterexample)
        assert report.stats["min_distance"] == (2 * k - 2 if i == classes else 2 * k - 3)
    assert verify_steiner(read, 2, k, binary + 1).ok


def test_hybrid_k3_full_replacement_is_steiner():
    design, resolution = resolvable_affine(3)
    hybrid = construct_hybrid_ms(design, resolution, 4)
    # the last coordinate is binary now, so the whole thing is S(2,3,19)
    report = verify_steiner(hybrid, 2, 3, 19)
    assert report.ok
    assert report.stats["block_count_matches"]
    assert len(hybrid.blocks) == 57


def test_hybrid_k4_full_replacement_is_steiner():
    design, resolution = resolvable_affine(4)
    hybrid = construct_hybrid_ms(design, resolution, 5)
    report = verify_steiner(hybrid, 2, 4, 49)
    assert report.ok
    assert report.stats["block_count_matches"]
    assert len(hybrid.blocks) == 196


def test_hybrid_accepts_explicit_plan():
    # classes 1 and 3 are replaced by ordering them first
    design, resolution = resolvable_affine(3)
    ordered = Resolution(tuple(resolution.classes[j] for j in (1, 3, 0, 2)))
    hybrid = construct_hybrid_ms(design, ordered, 2)
    assert verify_mixed_steiner(hybrid).ok
    assert hybrid.alphabet.sizes[-1] == 6  # 9 - 2*2 + 1


def test_hybrid_type_structure():
    design, resolution = resolvable_affine(3)
    hybrid = construct_hybrid_ms(design, resolution, 1)
    assert str(gdd_type_of(hybrid)) == "1^18 7^1"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of design_to_json(*resolvable_affine(q)), classes included
AFFINE_DIGESTS = {
    2: "7e8679a0547d5beadb273df9605ead27deaf0331e43d18c3ab5129228e9ba704",
    3: "b27c1194d3a9bbac8eea1cb037609dac6c03a05ca04e4e06fd29bdc1bb023ff2",
    4: "30bc25ecf017123974ae28a23f6b22dd0cb1f508016cd9dbc9445aee726357bb",
    5: "a8bea8d57a76944a62daefad5d45b157a958d8ca30a8c70d665940db6c2fbfc2",
    7: "da2509e8a41a31d1a7fa50e01d77bc5c2333ce12321dbf778df2ecda3949e04b",
    8: "0bcae1bb5c8cccff2fed87b584c6a34da6396e4fda185ac7f5c2b42e6b37920d",
    9: "26c8e52342b96a77cd002c1754c2ef80d8db141fd509b1c568e6ff1e7ee1d7a5",
}


@pytest.mark.parametrize("q", sorted(AFFINE_DIGESTS))
def test_resolvable_affine_output_is_pinned(q):
    assert _sha256(design_to_json(*resolvable_affine(q))) == AFFINE_DIGESTS[q]


# sha256 of the hybrid over AG(2, 4) with its first i classes replaced
HYBRID_AG24_DIGESTS = [
    "190f3778e9469661e81d10a0d137f3fbdcfc0011553e7c5bde3863b81bcd62d4",
    "4b336b9813bdc9f2e698bcb1fa5a309b5ffc3a37c68fc29941a024c104513eac",
    "9379461672738666d0ea292f5bbc01743b3fb2400bc800e27daa4cc15cfaf671",
    "bf62b68e70c16b948890e6c115d791aa269e610a5a56aa260cb95510ff854893",
    "4658ac62338ea0071c0196d828cfbbe196bbaf26803a3ec2841d495f29e1201f",
    "30ef56b937b8fbb887363244828f8ff1d4176443de8442a8631ab362a48ab214",
]


@pytest.mark.parametrize("i", range(6))
def test_hybrid_ag24_output_is_pinned(i):
    design, resolution = resolvable_affine(4)
    hybrid = construct_hybrid_ms(design, resolution, i)
    assert _sha256(design_to_json(hybrid)) == HYBRID_AG24_DIGESTS[i]


@pytest.mark.parametrize(
    "flags, digest",
    [
        # the digests of replacing exactly the flagged classes, in their
        # original order, of AG(2, 4)
        (
            (False, True, False, True, False),
            "06d6e98485cc2012947f6f026d5190f07fdbd56c062f9cb2788b849bc97a3ae1",
        ),
        (
            (True, False, False, False, True),
            "d583ee5bd09034dabee3a1ee94342aa414f62bf46165113c2d22b065e6546402",
        ),
    ],
)
def test_hybrid_replaces_the_classes_ordered_first(flags, digest):
    design, resolution = resolvable_affine(4)
    pairs = list(zip(flags, resolution.classes))
    ordered = [c for f, c in pairs if f] + [c for f, c in pairs if not f]
    hybrid = construct_hybrid_ms(design, Resolution(tuple(ordered)), sum(flags))
    assert _sha256(design_to_json(hybrid)) == digest
