"""Interchange formats: canonical writers, lenient readers, error paths."""

from __future__ import annotations

import json
import math
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from design_forge import (
    AlphabetMismatch,
    Codeword,
    FormatError,
    LargeSet,
    MixedAlphabet,
    MixedDesign,
    OrthogonalArray,
    PartitionedCover,
    Resolution,
    VerificationReport,
    base_system,
    combine_partition,
    cover_from_json,
    cover_to_json,
    design_from_json,
    design_to_json,
    largeset_from_json,
    largeset_to_gdd,
    largeset_to_json,
    min_distance,
    oa_extended,
    oa_from_text,
    oa_square,
    oa_to_text,
    report_to_json,
    resolvable_affine,
    verify_mixed_steiner,
    verify_oa,
    verify_resolution,
)
from tests.conftest import build_sum_large_set, build_toy_large_set, verified_roster


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


_D = '{"alphabet":[2,2,2],"t":1,"k":2,"blocks":%s}'
_L = '{"alphabet":[3,3],"t":1,"k":2,"copies":[[%s]]}'
_R = '{"alphabet":[2,2,2],"t":1,"k":2,"blocks":[[[0,1],[1,1]]],"classes":%s}'
_C = '{"n":4,"t":2,"k":3,"R":%s,"classes":[]}'
_ENTRY = "block entry must be a [coordinate, symbol] pair, got "


@pytest.mark.parametrize(
    ("read", "text", "message"),
    [
        (design_from_json, "not json", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        (design_from_json, "[1,2]", "top level must be a JSON object"),
        (design_from_json, "[" * 200000, "JSON nested too deeply to read"),
        (largeset_from_json, '{"copies":' * 200000, "JSON nested too deeply to read"),
        (design_from_json, '{"alphabet":[2,2],"t":1,"k":2}', "missing key 'blocks'"),
        (design_from_json, '{"alphabet":[2,2],"t":"1","k":2,"blocks":[]}', "t and k must be ints"),
        (design_from_json, '{"alphabet":[2,2],"t":true,"k":2,"blocks":[]}', "t and k must be ints"),
        (design_from_json, '{"alphabet":[2,2],"t":1,"k":2,"blocks":{}}', "blocks must be a list"),
        (design_from_json, '{"alphabet":[],"t":1,"k":2,"blocks":[]}', "alphabet must be a nonempty list of ints"),
        (design_from_json, '{"alphabet":[2,true],"t":1,"k":2,"blocks":[]}', "alphabet must be a nonempty list of ints"),
        (design_from_json, '{"alphabet":[2,0],"t":1,"k":2,"blocks":[]}', "every alphabet size must be >= 2, got (2, 0)"),
        (design_from_json, '{"alphabet":[2,2],"t":3,"k":2,"blocks":[]}', "need 1 <= t <= k, got t=3 k=2"),
        (design_from_json, '{"alphabet":[2,2],"t":1,"k":2,"blocks":[],"meta":3}', "meta must be a string"),
        (design_from_json, _D % "[7]", "block must be a list, got int"),
        (design_from_json, _D % '[[[0,1],"x"]]', _ENTRY + "'x'"),
        (design_from_json, _D % "[[[0,1],[1]]]", _ENTRY + "[1]"),
        (design_from_json, _D % "[[[0,1],[1,1,1]]]", _ENTRY + "[1, 1, 1]"),
        (design_from_json, _D % "[[[0,true],[1,1]]]", _ENTRY + "[0, True]"),
        (design_from_json, _D % "[[[false,1],[1,1]]]", _ENTRY + "[False, 1]"),
        (design_from_json, _D % "[[[0.0,1],[1,1]]]", _ENTRY + "[0.0, 1]"),  # float coordinate
        (design_from_json, _D % "[[[0,1],[1,1.5]]]", _ENTRY + "[1, 1.5]"),  # float symbol
        (design_from_json, _D % '[[[0,1],["1",1]]]', _ENTRY + "['1', 1]"),  # string entry
        (design_from_json, _D % "[[[0,1],[0,2]]]", "repeated coordinate in support ((0, 1), (0, 2))"),
        (design_from_json, _D % "[[[0,1],[0,1]]]", "repeated coordinate in support ((0, 1), (0, 1))"),
        (design_from_json, _D % "[[[1,1],[-1,1]]]", "negative coordinate -1"),
        (design_from_json, _D % "[[[0,-1],[1,1]]]", "symbol -1 at coordinate 0 must be nonzero"),
        (design_from_json, _D % "[[]]", "block () has weight 0, not 2"),
        (design_from_json, _D % "[[[0,1],[1,1],[2,1]]]", "block ((0, 1), (1, 1), (2, 1)) has weight 3, not 2"),
        (design_from_json, _D % "[[[0,1],[3,1]]]", "coordinate 3 out of range for 3 coordinates"),
        # a block of another length than k is read on its own, with no pass over k
        (design_from_json, '{"alphabet":[2],"t":1,"k":1000000000000,"blocks":[[[0,1]]]}',
         "block ((0, 1),) has weight 1, not 1000000000000"),
        (design_from_json, _D % "[[[0,1],[1,5]]]", "symbol 5 out of range at coordinate 1 (size 2)"),
        # several faults: the first in the order the texts above are checked,
        # and within a support the first in sorted order
        (design_from_json, _D % '[[[0,1],[0,2],"x"]]', _ENTRY + "'x'"),
        (design_from_json, _D % "[[[1,0],[-1,1]]]", "negative coordinate -1"),
        (design_from_json, _D % "[[[3,0],[1,0]]]", "symbol 0 at coordinate 1 must be nonzero"),
        (design_from_json, _D % "[[[0,5],[3,1]]]", "symbol 5 out of range at coordinate 0 (size 2)"),
        (design_from_json, _D % "[[[0,1],[7,1]],[[0,1.5],[1,1]]]", _ENTRY + "[0, 1.5]"),
        (design_from_json, _D % "[[[1,1],[0,1]],[[-2,1],[1,1]]]", "negative coordinate -2"),
        (design_from_json, _R % "{}", "classes must be a list"),
        (design_from_json, _R % "[[1]]", "class must list block indices in range, got [1]"),
        (design_from_json, _R % "[[false]]", "class must list block indices in range, got [False]"),
        (design_from_json, _R % "[0]", "class must list block indices in range, got 0"),
        (largeset_from_json, '{"alphabet":[3,3],"t":2,"k":3}', "missing key 'copies'"),
        (largeset_from_json, '{"alphabet":[3,3],"t":2,"k":3,"lambda":0,"copies":[]}', "lambda must be a positive int"),
        (largeset_from_json, '{"alphabet":[3,3],"t":1,"k":2,"lambda":true,"copies":[]}', "lambda must be a positive int"),
        (largeset_from_json, '{"alphabet":[3,3],"t":1.0,"k":2,"copies":[]}', "t and k must be ints"),
        (largeset_from_json, '{"alphabet":[3,3],"t":1,"k":2,"copies":{}}', "copies must be a list"),
        (largeset_from_json, '{"alphabet":[3,3],"t":1,"k":2,"copies":[7]}', "each copy must be a list of blocks"),
        (largeset_from_json, _L % "7", "block must be a list, got int"),
        (largeset_from_json, _L % "[[0,1],[1,1.5]]", _ENTRY + "[1, 1.5]"),
        (largeset_from_json, _L % '[[0,1],[1,"2"]]', _ENTRY + "[1, '2']"),
        (largeset_from_json, _L % "[[0,1],[0,2]]", "repeated coordinate in support ((0, 1), (0, 2))"),
        (largeset_from_json, _L % "[[0,1]]", "block ((0, 1),) has weight 1, not 2"),
        (largeset_from_json, _L % "[[0,1],[1,4]]", "symbol 4 out of range at coordinate 1 (size 3)"),
        (largeset_from_json, _L % "[[0,1],[5,1]]", "coordinate 5 out of range for 2 coordinates"),
        (largeset_from_json, '{"alphabet":[2],"t":1,"k":1000000000000,"copies":[[],[[[0,1]]]]}',
         "need k <= n, got k=1000000000000 n=1"),
        (cover_from_json, '{"n":4,"t":2,"k":3,"R":[]}', "missing key 'classes'"),
        (cover_from_json, '{"n":4,"t":2,"k":true,"R":[],"classes":[]}', "n, t, k must be ints"),
        (cover_from_json, _C % "{}", "R must be a list"),
        (cover_from_json, '{"n":4,"t":2,"k":3,"R":[],"classes":{}}', "classes must be a list"),
        (cover_from_json, '{"n":4,"t":2,"k":3,"R":[],"classes":[7]}', "each class must be a list of blocks"),
        (cover_from_json, _C % "[7]", "point block must be a list of ints, got 7"),
        (cover_from_json, _C % '[["a"]]', "point block must be a list of ints, got ['a']"),
        (cover_from_json, _C % "[[0,true]]", "point block must be a list of ints, got [0, True]"),
        (cover_from_json, _C % "[[0,1.5]]", "point block must be a list of ints, got [0, 1.5]"),
        (cover_from_json, '{"n":4,"t":2,"k":3,"R":[],"classes":[[[0,"1"]]]}', "point block must be a list of ints, got [0, '1']"),
        # a superscript two is a digit to str.isdigit but not to int
        (oa_from_text, "OA 2 2 2\n\u00b2 1\n", "row '\u00b2 1' does not hold 2 ints"),
        (oa_from_text, "OA \u00b2 2 2\n00\n", "header must be 'OA <strength> <columns> <alphabet>', got 'OA \u00b2 2 2'"),
        (oa_from_text, "OA 2 2 2\n0\u00b2\n", "row '0\u00b2' is not 2 digits"),
        # OrthogonalArray checks the alphabet and the symbols; the reader
        # passes its refusal on with the same text
        (oa_from_text, "OA 1 2 4\n0 -1\n", "row (0, -1) has symbols outside 0..3"),
        (oa_from_text, "OA 1 2 4\n0 4\n", "row (0, 4) has symbols outside 0..3"),
        (oa_from_text, "OA 1 2 4\n0 1\n3 40\n", "row (3, 40) has symbols outside 0..3"),
        (oa_from_text, "OA 1 2 12\n0 11\n11 12\n", "row (11, 12) has symbols outside 0..11"),
        (oa_from_text, "OA 1 1 3\n3\n", "row (3,) has symbols outside 0..2"),
        (oa_from_text, "OA 2 30000 0\n", "alphabet must be >= 1, got 0"),
        (oa_from_text, "OA 1 2 0\n0 0\n", "alphabet must be >= 1, got 0"),
    ],
)
def test_reader_error_texts(read, text, message):
    with pytest.raises(FormatError) as info:
        read(text)
    assert str(info.value) == message


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


def _blocks(sizes, k, max_size=10):
    """Lists of weight-k blocks over `sizes`, each support drawn in shuffled
    order; repeats allowed."""
    def support(coords):
        return st.tuples(*(st.tuples(st.just(c), st.integers(1, sizes[c] - 1)) for c in coords))

    coords = st.lists(st.integers(0, len(sizes) - 1), min_size=k, max_size=k, unique=True)
    return st.lists(coords.flatmap(support).map(Codeword), max_size=max_size)


@st.composite
def _shapes(draw):
    sizes = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=6)))
    k = draw(st.integers(1, len(sizes)))
    return MixedAlphabet(sizes), draw(st.integers(1, k)), k


@st.composite
def _designs_with_classes(draw):
    alphabet, t, k = draw(_shapes())
    blocks = tuple(draw(_blocks(alphabet.sizes, k)))
    meta = draw(st.text(max_size=8))
    design = MixedDesign(alphabet, t, k, blocks, meta=meta)
    if not (blocks and draw(st.booleans())):
        return design, None
    index = st.integers(0, len(blocks) - 1)
    classes = draw(st.lists(st.lists(index, max_size=4), max_size=4))
    return design, Resolution(tuple(tuple(c) for c in classes))


@settings(max_examples=150, deadline=None)
@given(_designs_with_classes())
def test_design_json_roundtrip_is_byte_stable(case):
    design, resolution = case
    text = design_to_json(design, resolution)
    assert text == _reference_design_json(design, resolution)
    parsed, parsed_resolution = design_from_json(text)
    assert (parsed_resolution is None) == (resolution is None)
    assert sorted(parsed.blocks) == sorted(design.blocks)
    assert design_to_json(parsed, parsed_resolution) == text


@st.composite
def _large_sets(draw):
    alphabet, t, k = draw(_shapes())
    copies = draw(st.lists(_blocks(alphabet.sizes, k, max_size=6), max_size=4))
    lam = draw(st.integers(1, 3))
    return LargeSet(alphabet, t, k, tuple(map(tuple, copies)), lam=lam)


@settings(max_examples=100, deadline=None)
@given(_large_sets())
def test_largeset_json_roundtrip_is_byte_stable(ls):
    text = largeset_to_json(ls)
    assert text == _reference_largeset_json(ls)
    parsed = largeset_from_json(text)
    assert [sorted(c) for c in parsed.copies] == [sorted(c) for c in ls.copies]
    assert largeset_to_json(parsed) == text


@st.composite
def _covers(draw):
    n = draw(st.integers(1, 8))
    point_block = st.lists(st.integers(0, n - 1), max_size=4).map(tuple)
    return PartitionedCover(
        n,
        draw(st.integers(1, 4)),
        draw(st.integers(1, 5)),
        tuple(draw(st.lists(point_block, max_size=5))),
        tuple(map(tuple, draw(st.lists(st.lists(point_block, max_size=3), max_size=3)))),
    )


@settings(max_examples=100, deadline=None)
@given(_covers())
def test_cover_json_roundtrip_is_byte_stable(cover):
    text = cover_to_json(cover)
    parsed = cover_from_json(text)
    assert parsed == cover
    assert cover_to_json(parsed) == text


def test_every_roster_design_reads_back_unchanged():
    for design in verified_roster():
        parsed, resolution = design_from_json(design_to_json(design))
        assert resolution is None
        assert (parsed.alphabet, parsed.t, parsed.k, parsed.meta) == (
            design.alphabet, design.t, design.k, design.meta
        )
        assert parsed.blocks == tuple(sorted(design.blocks))


def _reference_design_json(design: MixedDesign, resolution: Resolution | None = None) -> str:
    """design_to_json as json.dumps writes the canonical layout: supports
    sorted as tuples (stably), classes remapped to that order."""
    supports = [b.support for b in design.blocks]
    order = sorted(range(len(supports)), key=supports.__getitem__)
    position = {old: new for new, old in enumerate(order)}
    data = {
        "alphabet": list(design.alphabet.sizes),
        "t": design.t,
        "k": design.k,
        "blocks": [supports[i] for i in order],
    }
    if design.meta:
        data["meta"] = design.meta
    if resolution is not None:
        data["classes"] = [sorted(position[i] for i in cls) for cls in resolution.classes]
    return json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n"


def _reference_largeset_json(ls: LargeSet) -> str:
    data = {
        "alphabet": list(ls.alphabet.sizes),
        "t": ls.t,
        "k": ls.k,
        "lambda": ls.lam,
        "copies": [sorted(b.support for b in copy) for copy in ls.copies],
    }
    return json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n"


def _writer_cases():
    """(design, resolution) pairs that the block writer must write as
    json.dumps does."""
    yield from ((design, None) for design in verified_roster())
    yield from (resolvable_affine(q) for q in (2, 3, 4, 5, 7, 8, 9))
    pair = MixedAlphabet((3, 4, 2))
    yield MixedDesign(pair, 1, 2, ()), None
    yield MixedDesign(pair, 1, 2, ()), Resolution(((),))
    u, v = Codeword(((0, 2), (1, 3))), Codeword(((0, 1), (2, 1)))
    yield MixedDesign(pair, 1, 2, (u, v, u, v, u)), Resolution(((4, 1), (0,), (2, 3), ()))
    yield MixedDesign(pair, 1, 2, (v, u), meta="GDD(2,3) \u00e9\u2014\U0001d4e2 \"blocks\":null"), None


def test_design_writer_matches_json_dumps():
    for design, resolution in _writer_cases():
        assert design_to_json(design, resolution) == _reference_design_json(design, resolution)


def test_largeset_writer_matches_json_dumps():
    toy = build_toy_large_set()
    with_empty = LargeSet(toy.alphabet, 2, 3, (toy.copies[0], (), toy.copies[1]), lam=2)
    for ls in (toy, with_empty, build_sum_large_set(4, 2), LargeSet(toy.alphabet, 1, 1, ())):
        assert largeset_to_json(ls) == _reference_largeset_json(ls)


def test_block_writer_takes_more_entries_than_code_points():
    weight = 1_200_000  # above sys.maxunicode + 1 distinct entries
    block = Codeword(tuple((c, 1 + c % 2) for c in range(weight)))
    design = MixedDesign(MixedAlphabet((3,) * weight), 1, weight, (block,))
    assert design_to_json(design) == _reference_design_json(design)


def test_block_writer_numbers_only_the_entries_that_occur():
    design = MixedDesign(
        MixedAlphabet((100_000_000, 2)), 1, 2, (Codeword(((0, 99_999_999), (1, 1))),)
    )
    tracemalloc.start()
    try:
        text = design_to_json(design)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == _reference_design_json(design)
    assert peak < 100_000


def _reference_blocks(items) -> tuple[Codeword, ...]:
    """The block list as it was read before compact lists were read in
    whole-text passes: every block goes through Codeword on its own."""
    blocks = []
    for item in items:
        if not isinstance(item, list):
            raise FormatError(f"block must be a list, got {type(item).__name__}")
        try:
            blocks.append(Codeword(item))
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    return tuple(blocks)


def _reference_design_from_json(text: str) -> tuple[MixedDesign, None]:
    """design_from_json with a per-block block list, for files whose header
    (alphabet, t, k) is valid and that carry no classes."""
    data = json.loads(text)
    blocks = _reference_blocks(data["blocks"])
    try:
        design = MixedDesign(
            MixedAlphabet(tuple(data["alphabet"])), data["t"], data["k"], blocks,
            meta=data.get("meta", ""),
        )
    except (ValueError, AlphabetMismatch) as exc:
        raise FormatError(str(exc)) from exc
    return design, None


def _reference_largeset_from_json(text: str) -> LargeSet:
    """largeset_from_json with a per-block reader of each copy, for files
    whose header is valid."""
    data = json.loads(text)
    copies = tuple(_reference_blocks(copy) for copy in data["copies"])
    try:
        return LargeSet(
            MixedAlphabet(tuple(data["alphabet"])), data["t"], data["k"], copies,
            lam=data.get("lambda", 1),
        )
    except (ValueError, AlphabetMismatch) as exc:
        raise FormatError(str(exc)) from exc


def _read_blocks(read, text):
    """What a reader makes of a file, or the error it raised.  Equal blocks
    hold tuples of int tuples on both sides, since a list never equals a
    tuple."""
    try:
        result = read(text)
    except FormatError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, tuple):  # design_from_json's (design, resolution)
        return result, result[0].meta
    return result


_BLOCK_LISTS = [
    "[]",  # no blocks
    "[[[1,1],[0,1]],[[2,1],[0,1]]]",  # unsorted supports
    "[[[0,1],[1,1]],[[2,1],[0,1]]]",  # one unsorted support after a sorted one
    "[[[0,1],[1,1]],[[1,1],[1,1]]]",  # a repeated coordinate
    "[[[0,1],[1,1]],[[1,1],[1,2]]]",
    "[[[0,1],[1,1]],[[0,1],[2,true]]]",  # a bool, float or str in block 2
    "[[[0,1],[1,1]],[[true,1],[2,1]]]",
    "[[[0,1],[1,1]],[[0,1],[2,1.0]]]",
    "[[[0,1],[1,1]],[[0.0,1],[2,1]]]",
    '[[[0,1],[1,1]],[[0,1],[2,"1"]]]',
    '[[[0,1],[1,1]],[[0,1],"2"]]',
    '[[[0,1],[1,1]],"ab"]',
    "[[[0,1],[1,1]],[[0,1],[1,1],[2,1]]]",  # a wrong weight in a later block
    "[[[0,1],[1,1]],[[0,1]]]",
    "[[[0,1],[1,1]],[]]",
    "[[[0,1],[1,1.5]],7]",  # a non-list block after a bad entry
    "[[[0,1],[1,1]],7]",
    "[[[0,1],[1,1]],{}]",
    "[[[0,1],[1,1]],[[0,1],[1]]]",
    "[[[0,1],[1,1]],[[0,1],[1,1,1]]]",
    "[[[0,1],[1,1]],[[0,1],[[1],1]]]",
    "[[[0,1],[1,1]],[[0,1],{}]]",
    "[[[0,1],[1,1]],[[-1,1],[2,1]]]",  # a negative coordinate
    "[[[0,1],[1,1]],[[0,0],[2,1]]]",  # a zero symbol
    "[[[0,1],[1,1]],[[0,1],[3,1]]]",  # outside the alphabet
    "[[[0,1],[1,1]],[[0,1],[2,100000000000000000000]]]",
    "[[[0,1],[2,1]],[[1,1],[2,1]]]",  # canonical
    "[[[0,1]],[[2,1]]]",  # canonical at k = 1
    "[[[1,1]],[[0,1]],[[1,1]]]",
    "[[[0,1]],[[2,true]]]",
    "[[[0,1]],[[-2,1]]]",
]


def _layouts(text: str) -> tuple[str, str]:
    """A file without whitespace, whose block list the readers take in
    whole-text passes, and with json.dumps's default spacing, whose blocks
    they read one at a time."""
    data = json.loads(text)
    return json.dumps(data, separators=(",", ":")), json.dumps(data)


def _entry_objects(result) -> tuple[int, int, int]:
    """The entry tuple objects that the blocks a reader returned hold, their
    distinct (coordinate, symbol) values, and their entries in all.  Blocks
    read in whole-text passes share one tuple per value; a block read on its
    own makes tuples of its own."""
    if isinstance(result, tuple):  # design_from_json's (design, resolution)
        blocks = result[0].blocks
    else:
        blocks = [b for copy in result.copies for b in copy]
    entries = [p for b in blocks for p in b.support]
    return len(set(map(id, entries))), len(set(entries)), len(entries)


@pytest.mark.parametrize("blocks", _BLOCK_LISTS)
def test_design_reader_matches_the_per_block_reference(blocks):
    for k in (1, 2):
        for text in _layouts('{"alphabet":[2,2,2],"t":1,"k":%d,"blocks":%s}' % (k, blocks)):
            assert _read_blocks(design_from_json, text) == _read_blocks(_reference_design_from_json, text)


@pytest.mark.parametrize("blocks", _BLOCK_LISTS)
def test_largeset_reader_matches_the_per_block_reference(blocks):
    for copies in ("[%s]", "[[[[0,1],[1,1]]],%s]", "[%s,[[[0,1],[1,1]],[7]]]"):
        for text in _layouts('{"alphabet":[2,2,2],"t":1,"k":2,"copies":%s}' % (copies % blocks)):
            assert _read_blocks(largeset_from_json, text) == _read_blocks(_reference_largeset_from_json, text)


def test_every_canonical_file_reads_as_the_per_block_reference():
    files = [(design_from_json, _reference_design_from_json, design_to_json(d)) for d in verified_roster()]
    files.append((largeset_from_json, _reference_largeset_from_json, largeset_to_json(build_toy_large_set())))
    for read, reference, text in files:
        compact, spaced = _layouts(text)
        assert compact + "\n" == text
        for layout in (compact, spaced):
            assert _read_blocks(read, layout) == _read_blocks(reference, layout)
        objects, distinct, _ = _entry_objects(read(compact))
        assert objects == distinct
        objects, _, entries = _entry_objects(read(spaced))
        assert objects == entries


_H = '{"alphabet":[3,3,3],"t":1,"k":2,'
_G = "[[[0,1],[1,1]],[[0,2],[2,1]]]"
_G_BLOCKS = [((0, 1), (1, 1)), ((0, 2), (2, 1))]
_ESCAPED = '"bl\\u006fcks"'


def _outcome(read, text):
    """The blocks a reader returned (per copy for a large set), or the text
    of its FormatError."""
    try:
        result = read(text)
    except FormatError as exc:
        return str(exc)
    if isinstance(result, tuple):
        return [b.support for b in result[0].blocks]
    return [[b.support for b in copy] for copy in result.copies]


@pytest.mark.parametrize(
    ("read", "text", "expected"),
    [
        # an escaped key "blocks" before or after the literal one: the last
        # of the two is the value
        (design_from_json, _H + _ESCAPED + ':[[[0,1],[1,2]]],"blocks":' + _G + "}", _G_BLOCKS),
        (design_from_json, _H + '"blocks":' + _G + "," + _ESCAPED + ":[[[0,1],[1,2]]]}", [((0, 1), (1, 2))]),
        # "blocks" in a nested object only, and next to an escaped top-level key
        (design_from_json, _H + '"meta":{"blocks":' + _G + "}}", "missing key 'blocks'"),
        (design_from_json, _H + '"x":{"blocks":' + _G + "}," + _ESCAPED + ":[[[0,1],[1,2]]]}", [((0, 1), (1, 2))]),
        # duplicate keys: the last wins
        (design_from_json, _H + '"blocks":' + _G + ',"blocks":[[[0,1],[1,2]]]}', [((0, 1), (1, 2))]),
        (design_from_json, _H + '"blocks":[[[0,1],[1,2]]],"blocks":' + _G + "}", _G_BLOCKS),
        (design_from_json, _H + '"blocks":' + _G + ',"meta":"blocks"}', _G_BLOCKS),
        (design_from_json, _H + '"blocks":' + _G + "]}",
         "not valid JSON: Expecting ',' delimiter: line 1 column 71 (char 70)"),
        (design_from_json, _H + '"blocks":[[[01,1],[1,1]]]}',
         "not valid JSON: Expecting ',' delimiter: line 1 column 46 (char 45)"),
        (design_from_json, _H + '"blocks":[[[-0,1],[1,1]]]}', [((0, 1), (1, 1))]),
        (design_from_json, _H + '"blocks":[[[1 0,1],[1,1]]]}',
         "not valid JSON: Expecting ',' delimiter: line 1 column 47 (char 46)"),
        (design_from_json, _H + '"blocks":[[[0,1],[1,%s]]]}' % ("1" * 19),
         "symbol 1111111111111111111 out of range at coordinate 1 (size 3)"),
        (design_from_json, _H + '"blocks":[[[0,1],[1,NaN]]]}', _ENTRY + "[1, nan]"),
        (design_from_json, _H.replace('"k":2', '"k":true') + '"blocks":' + _G + "}", "t and k must be ints"),
        (largeset_from_json, _H + '"copies":[' + _G + ",[]]}", [_G_BLOCKS, []]),
        (largeset_from_json, _H + '"copies":[[],' + _G + "]}", [[], _G_BLOCKS]),
        (largeset_from_json, _H.replace('"k":2', '"k":true') + '"copies":[' + _G + "]}", "t and k must be ints"),
    ],
)
def test_compact_looking_files_read_as_their_json(read, text, expected):
    assert _outcome(read, text) == expected


def test_a_compact_fold_holds_one_tuple_per_entry():
    text = design_to_json(largeset_to_gdd(build_sum_large_set(16, 3)))
    tracemalloc.start()
    try:
        design, _ = design_from_json(text)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(design.blocks) == 65536
    assert held <= 160 * len(design.blocks)
    objects, distinct, _ = _entry_objects((design, None))
    assert objects == distinct == 5 * 16


_ODD_VALUES = st.one_of(
    st.integers(-3, 12),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=2),
    st.none(),
    st.lists(st.integers(0, 3), max_size=3),
)


@st.composite
def _mutated_files(draw):
    """A canonical design or large-set file with one block, entry, coordinate
    or symbol replaced by another JSON value, written without whitespace or
    with json.dumps's default spacing."""
    if draw(st.booleans()):
        design = draw(st.sampled_from(verified_roster()))
        data = json.loads(design_to_json(design))
        blocks, read, reference = data["blocks"], design_from_json, _reference_design_from_json
    else:
        data = json.loads(largeset_to_json(build_toy_large_set()))
        blocks = data["copies"][draw(st.integers(0, 1))]
        read, reference = largeset_from_json, _reference_largeset_from_json
    b = draw(st.integers(0, len(blocks) - 1))
    e = draw(st.integers(0, len(blocks[b]) - 1))
    where = draw(st.sampled_from(["block", "entry", "coordinate", "symbol"]))
    value = draw(_ODD_VALUES)
    if where == "block":
        blocks[b] = value
    elif where == "entry":
        blocks[b][e] = value
    else:
        blocks[b][e][where == "symbol"] = value
    return read, reference, json.dumps(data, separators=draw(st.sampled_from([(",", ":"), None])))


@settings(max_examples=200, deadline=None)
@given(_mutated_files())
def test_a_mutated_canonical_file_reads_as_the_per_block_reference(case):
    read, reference, text = case
    assert _read_blocks(read, text) == _read_blocks(reference, text)


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


def test_report_json_oa_shape():
    # the OA report is flat: no claim, stats or counterexample wrapper
    assert report_to_json(verify_oa(oa_square(3), 2)) == (
        '{"columns":null,"count":null,"ok":true,"strength":2,"symbols":null}\n'
    )
    assert report_to_json(verify_oa(oa_square(3), 3)) == (
        '{"columns":[0,1,2],"count":0,"ok":false,"strength":3,"symbols":[0,0,1]}\n'
    )


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


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int has no digit limit"
)


@pytest.fixture
def long_int():
    """A decimal of 5000 digits, past int's default limit of 4300."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield "1" * 5000
    sys.set_int_max_str_digits(limit)


@needs_digit_limit
def test_design_json_refuses_an_int_past_the_digit_limit(long_int):
    for text in (
        '{"alphabet":[2,%s],"t":1,"k":2,"blocks":[[[0,1],[1,1]]]}' % long_int,
        '{"alphabet":[2,3],"t":1,"k":2,"blocks":[[[0,1],[1,%s]]]}' % long_int,
    ):
        with pytest.raises(FormatError, match=r"^not valid JSON: Exceeds the limit \(4300"):
            design_from_json(text)


@needs_digit_limit
def test_largeset_json_refuses_an_int_past_the_digit_limit(long_int):
    for text in (
        '{"alphabet":[2,2,%s],"t":1,"k":1,"lambda":1,"copies":[[[[0,1]]]]}' % long_int,
        '{"alphabet":[2,2,2],"t":1,"k":1,"lambda":1,"copies":[[[[0,%s]]]]}' % long_int,
    ):
        with pytest.raises(FormatError, match=r"^not valid JSON: Exceeds the limit \(4300"):
            largeset_from_json(text)


@needs_digit_limit
def test_oa_text_names_the_line_of_an_int_past_the_digit_limit(long_int):
    for text, message in [
        (f"OA 1 2 {long_int}\n0 0\n", f"line 'OA 1 2 {long_int}'"),
        (f"OA 1 2 3\n0 1\n{long_int} 0\n", f"line '{long_int} 0'"),  # a new token
        (f"OA 1 2 3\n0 1\n-{long_int} 0\n", f"line '-{long_int} 0'"),  # a signed one
    ]:
        with pytest.raises(FormatError) as info:
            oa_from_text(text)
        assert str(info.value) == message + " holds an int too long to read"


def _reference_oa_from_text(text: str) -> OrthogonalArray:
    """oa_from_text as it was before its rows were tested and read in
    C-level calls: every token goes through a generator step."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split()
    if not (len(head) == 4 and head[0] == "OA" and all(p.isdecimal() for p in head[1:])):
        raise FormatError(f"header must be 'OA <strength> <columns> <alphabet>', got {lines[0]!r}")
    strength, columns, alphabet = (int(p) for p in head[1:])
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) == 1 and columns > 1:
            if not (alphabet <= 10 and len(parts[0]) == columns and parts[0].isdecimal()):
                raise FormatError(f"row {ln!r} is not {columns} digits")
            row = tuple(int(ch) for ch in parts[0])
        else:
            if not (len(parts) == columns and all(
                p.isdecimal() or (p.startswith("-") and p[1:].isdecimal()) for p in parts
            )):
                raise FormatError(f"row {ln!r} does not hold {columns} ints")
            row = tuple(int(p) for p in parts)
        if not all(0 <= s < alphabet for s in row):
            raise FormatError(f"row {ln!r} has symbols outside 0..{alphabet - 1}")
        rows.append(row)
    return OrthogonalArray(strength, columns, alphabet, tuple(rows))


def _read_oa(read, text):
    try:
        return read(text)
    except (FormatError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize(
    "text",
    [
        oa_to_text(oa_square(3)),
        oa_to_text(oa_extended(4)),
        oa_to_text(oa_extended(11)),  # two-digit symbols
        "OA 2 3 3\n012\n120\n201\n",  # digit-string rows
        "OA 2 3 3\n012\n1 2 0\n  2 0 1  \n\n",  # mixed, padded, a blank line
        "OA 1 2 4\n\u0663 1\n0 2\n",  # an Arabic-Indic three is a decimal
        "OA 1 2 4\n\u06630\n",
        "OA 1 2 4\n-0 1\n",
        "OA 1 2 4\n0 \u00b2\n",  # a superscript two is not
        "OA 1 3 4\n0 1\n",  # a short row
        "OA 1 3 4\n0 1 2\n0 1 2 3\n",  # a long row
        "OA 1 3 4\n01\n",
        "OA 1 1 3\n0\n2\n1\n",  # one column
        "OA 1 1 3\n00\n",
        "OA 2 3 3\n",  # no rows
        "OA 1 2 3\n0 x\n",
        "OA 1 2 3\n0 1.0\n",
    ],
)
def test_oa_reader_matches_the_per_row_reference(text):
    assert _read_oa(oa_from_text, text) == _read_oa(_reference_oa_from_text, text)


def _oa_layouts():
    # each layout with what it reads to: an array, or the error's type and text
    extended = oa_extended(4)  # OA(2, 5, 4), 16 rows
    square = oa_to_text(extended)
    head, *lines = square.splitlines()
    eight = oa_to_text(oa_square(8)).splitlines()
    short_long = [lines[0].rsplit(" ", 1)[0], lines[1] + " 0", *lines[2:]]
    return [
        ("canonical", square, extended),
        ("tabs", square.replace(" ", "\t"), extended),
        ("double spaces", square.replace(" ", "  "), extended),
        ("blank lines and CRLF", "\r\n\r\n" + "\r\n\r\n".join([head, *lines]) + "\r\n", extended),
        ("digit-string rows", "\n".join([head, *(line.replace(" ", "") for line in lines)]), extended),
        ("a negative symbol", "\n".join([head, "-1" + lines[0][1:], *lines[1:]]),
         ("FormatError", "row (-1, 0, 0, 0, 0) has symbols outside 0..3")),
        ("007", "\n".join([*eight[:8], eight[8].replace("7", "007"), *eight[9:]]), oa_square(8)),
        ("a 19-digit symbol", "\n".join([head, lines[0], "1" * 19 + lines[1][1:], *lines[2:]]),
         ("FormatError", "row (1111111111111111111, 1, 1, 1, 0) has symbols outside 0..3")),
        # the same number of tokens as 16 rows of 5, split 4 and 6
        ("a short row and a long row", "\n".join([head, *short_long]),
         ("FormatError", "row '0 0 0 0' does not hold 5 ints")),
        ("OA 2 100000000 2 with no rows", "OA 2 100000000 2\n", OrthogonalArray(2, 100000000, 2, ())),
    ]


@pytest.mark.parametrize("text, expected", [c[1:] for c in _oa_layouts()], ids=[c[0] for c in _oa_layouts()])
def test_oa_reader_reads_each_layout_to_its_pinned_outcome(text, expected):
    # a header with no rows builds nothing of size `columns`
    tracemalloc.start()
    try:
        read = _read_oa(oa_from_text, text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert read == expected
    assert peak < 1_000_000


def test_min_distance_survives_roundtrip():
    design = combine_partition(base_system(4))
    parsed, _ = design_from_json(design_to_json(design))
    assert min_distance(parsed).value == min_distance(design).value


def test_report_type_is_frozen():
    report = VerificationReport(True, "x")
    with pytest.raises(Exception):
        report.ok = False
