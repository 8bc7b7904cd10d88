"""Interchange formats: canonical writers, lenient readers, error paths."""

from __future__ import annotations

import json
import math

import pytest

from design_forge import (
    Codeword,
    FormatError,
    MixedAlphabet,
    MixedDesign,
    VerificationReport,
    base_system,
    combine_partition,
    cover_from_json,
    cover_to_json,
    design_from_json,
    design_to_json,
    largeset_from_json,
    largeset_to_json,
    min_distance,
    oa_from_text,
    oa_square,
    oa_to_text,
    report_to_json,
    resolvable_affine,
    verify_mixed_steiner,
    verify_resolution,
)
from tests.conftest import build_toy_large_set


def test_design_roundtrip_is_canonical():
    design = combine_partition(base_system(3))
    text = design_to_json(design)
    assert text.endswith("\n")
    parsed, resolution = design_from_json(text)
    assert resolution is None
    assert parsed.alphabet == design.alphabet
    assert (parsed.t, parsed.k) == (design.t, design.k)
    assert set(parsed.blocks) == set(design.blocks)
    # canonical: re-serializing the parsed design is byte-identical
    assert design_to_json(parsed) == text
    # and blocks arrive sorted
    assert list(parsed.blocks) == sorted(parsed.blocks)


def test_design_json_carries_meta():
    design = MixedDesign(
        MixedAlphabet((2, 2)), 1, 2, (Codeword(((0, 1), (1, 1))),), meta="note"
    )
    parsed, _ = design_from_json(design_to_json(design))
    assert parsed.meta == "note"


def test_design_with_resolution_roundtrip():
    design, resolution = resolvable_affine(3)
    text = design_to_json(design, resolution)
    parsed, parsed_resolution = design_from_json(text)
    assert parsed_resolution is not None
    assert verify_resolution(parsed, parsed_resolution).ok
    # class contents survive the block reordering
    original = {
        frozenset(design.blocks[i] for i in cls) for cls in resolution.classes
    }
    recovered = {
        frozenset(parsed.blocks[i] for i in cls)
        for cls in parsed_resolution.classes
    }
    assert original == recovered
    assert design_to_json(parsed, parsed_resolution) == text


def test_design_json_reader_is_lenient_about_order_and_space():
    design = MixedDesign(
        MixedAlphabet((2, 3)), 1, 2, (Codeword(((0, 1), (1, 2))),)
    )
    sloppy = """
    {
      "k": 2, "t": 1,
      "blocks": [[[1, 2], [0, 1]]],
      "alphabet": [2, 3]
    }
    """
    parsed, _ = design_from_json(sloppy)
    assert parsed == design


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1,2]",
        '{"alphabet":[2,2],"t":1,"k":2}',  # missing blocks
        '{"alphabet":[2,2],"t":"1","k":2,"blocks":[]}',  # t not an int
        '{"alphabet":[2,0],"t":1,"k":2,"blocks":[]}',  # bad alphabet size
        '{"alphabet":[2,2],"t":1,"k":2,"blocks":[[[0,1],[0,2]]]}',  # dup coord
        '{"alphabet":[2,2],"t":1,"k":2,"blocks":[[[0,1],"x"]]}',  # bad pair
        '{"alphabet":[2,2],"t":1,"k":2,"blocks":[[[0,1],[1,1]]],"classes":[[7]]}',
        '{"alphabet":[2,2],"t":3,"k":2,"blocks":[]}',  # t > k
        '{"alphabet":[2,2],"t":1,"k":2,"blocks":[[[0,1],[1,5]]]}',  # symbol range
    ],
)
def test_design_json_errors(text):
    with pytest.raises(FormatError):
        design_from_json(text)


@pytest.mark.parametrize(
    "text",
    [
        '{"alphabet":[2,2],"t":1,"k":2,"blocks":[[[0,true],[1,1]]]}',  # symbol
        '{"alphabet":[2,2],"t":1,"k":2,"blocks":[[[false,1],[1,1]]]}',  # coordinate
        '{"alphabet":[2,true],"t":1,"k":2,"blocks":[]}',  # size
        '{"alphabet":[2,2],"t":true,"k":2,"blocks":[]}',  # t
        '{"alphabet":[2,2],"t":1,"k":2,"blocks":[[[0,1],[1,1]]],"classes":[[false]]}',
    ],
)
def test_design_json_rejects_booleans_as_ints(text):
    # json true/false are Python bools, and bool is an int subclass
    with pytest.raises(FormatError, match="int|pair|block indices"):
        design_from_json(text)


def test_largeset_and_cover_json_reject_booleans_as_ints():
    with pytest.raises(FormatError, match="lambda"):
        largeset_from_json('{"alphabet":[3,3],"t":1,"k":2,"lambda":true,"copies":[]}')
    with pytest.raises(FormatError, match="ints"):
        cover_from_json('{"n":4,"t":2,"k":true,"R":[],"classes":[]}')
    with pytest.raises(FormatError, match="ints"):
        cover_from_json('{"n":4,"t":2,"k":3,"R":[[0,true]],"classes":[]}')


def test_largeset_roundtrip():
    ls = build_toy_large_set()
    text = largeset_to_json(ls)
    parsed = largeset_from_json(text)
    assert parsed.alphabet == ls.alphabet
    assert (parsed.t, parsed.k, parsed.lam) == (ls.t, ls.k, ls.lam)
    assert [sorted(c) for c in parsed.copies] == [sorted(c) for c in ls.copies]
    assert largeset_to_json(parsed) == text
    data = json.loads(text)
    assert data["lambda"] == 1


def test_largeset_json_errors():
    with pytest.raises(FormatError):
        largeset_from_json('{"alphabet":[3,3],"t":2,"k":3}')
    with pytest.raises(FormatError):
        largeset_from_json(
            '{"alphabet":[3,3],"t":2,"k":3,"lambda":0,"copies":[]}'
        )
    with pytest.raises(FormatError):
        largeset_from_json(
            '{"alphabet":[3,3],"t":2,"k":3,"copies":[[[[0,1],[1,4]]]]}'
        )


def test_cover_roundtrip():
    cover = base_system(4)
    text = cover_to_json(cover)
    parsed = cover_from_json(text)
    assert parsed == cover
    assert cover_to_json(parsed) == text


def test_cover_json_errors():
    with pytest.raises(FormatError):
        cover_from_json('{"n":4,"t":2,"k":3,"R":[]}')
    with pytest.raises(FormatError):
        cover_from_json('{"n":4,"t":2,"k":3,"R":[["a"]],"classes":[]}')


def test_report_json_pass_and_fail():
    design = combine_partition(base_system(3))
    report = verify_mixed_steiner(design)
    data = json.loads(report_to_json(report))
    assert data["ok"] is True
    assert data["claim"] == "mixed-steiner"
    assert data["stats"]["blocks"] == 11
    broken = MixedDesign(design.alphabet, design.t, design.k, design.blocks[:-1])
    bad = verify_mixed_steiner(broken)
    data = json.loads(report_to_json(bad))
    assert data["ok"] is False
    assert data["counterexample"]["kind"] == "coverage"
    assert data["counterexample"]["count"] == 0


def test_report_json_infinite_distance():
    design = MixedDesign(
        MixedAlphabet((2,)), 1, 1, (Codeword(((0, 1),)),)
    )
    report = verify_mixed_steiner(design)
    assert math.isinf(report.stats["min_distance"])
    data = json.loads(report_to_json(report))
    assert data["stats"]["min_distance"] == "Infinite"


def test_report_json_serializes_witness_pairs():
    alphabet = MixedAlphabet((2, 2, 3, 3))
    blocks = (
        Codeword(((0, 1), (2, 1), (3, 1))),
        Codeword(((1, 1), (2, 2), (3, 2))),
    )
    report = verify_mixed_steiner(MixedDesign(alphabet, 1, 3, blocks))
    data = json.loads(report_to_json(report))
    assert data["counterexample"]["kind"] == "distance"
    assert data["counterexample"]["distance"] == 4
    pair = data["counterexample"]["pair"]
    assert len(pair) == 2  # two serialized supports


def test_oa_text_roundtrip_and_leniency():
    array = oa_square(3)
    text = oa_to_text(array)
    assert text.splitlines()[0] == "OA 2 3 3"
    parsed = oa_from_text(text)
    assert parsed == array
    packed = "OA 2 3 3\n" + "\n".join(
        "".join(str(s) for s in row) for row in array.rows
    )
    assert oa_from_text(packed) == array


def test_oa_text_errors():
    with pytest.raises(FormatError):
        oa_from_text("")
    with pytest.raises(FormatError):
        oa_from_text("OA x 3 3\n000")
    with pytest.raises(FormatError):
        oa_from_text("NOT 2 3 3\n000")
    with pytest.raises(FormatError):
        oa_from_text("OA 2 3 3\n00")  # short row
    with pytest.raises(FormatError):
        oa_from_text("OA 2 3 3\n0 0")  # not enough ints
    with pytest.raises(FormatError):
        oa_from_text("OA 2 3 3\n0 0 7")  # symbol out of range


def test_min_distance_survives_roundtrip():
    design = combine_partition(base_system(4))
    parsed, _ = design_from_json(design_to_json(design))
    assert min_distance(parsed).value == min_distance(design).value


def test_report_type_is_frozen():
    report = VerificationReport(True, "x")
    with pytest.raises(Exception):
        report.ok = False
