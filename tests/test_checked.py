"""The one output check: every builder returns through it, attaches its
report, refuses a bad block with a counterexample that re-checks, and the
CLI summary reads the distance from that report."""

from __future__ import annotations

import pytest

from design_forge import (
    Codeword,
    ConstructionFailed,
    LargeSet,
    LargeSetInvalid,
    MixedDesign,
    OrthogonalArray,
    PartitionedCover,
    Resolution,
    VerificationLimitExceeded,
    base_system,
    combine_partition,
    construct_from_oa,
    construct_hybrid_ms,
    covers,
    design_from_json,
    design_to_json,
    hamming_distance,
    largeset_to_gdd,
    min_distance,
    ms1_construct,
    resolvable_affine,
)
from design_forge import cli, constructions, verify
from design_forge import oa as oa_module
from tests.conftest import brute_force_min_distance, build_toy_large_set


@pytest.fixture
def checked(monkeypatch):
    """The designs handed to the output check, in order."""
    seen = []
    real = constructions._verify_design

    def spy(design, *args):
        seen.append(design)
        return real(design, *args)

    monkeypatch.setattr(constructions, "_verify_design", spy)
    return seen


def _recheck(design: MixedDesign, report) -> None:
    """The counterexample holds up on the design without the verifier."""
    assert not report.ok
    ce = report.counterexample
    if ce.kind == "coverage":
        count = sum(covers(b, ce.word, design.alphabet) for b in design.blocks)
        assert count == ce.count != 1
    else:
        assert ce.kind == "distance"
        u, v = ce.pair
        assert u in design.blocks and v in design.blocks
        d = hamming_distance(u, v, design.alphabet)
        assert d == ce.distance < report.stats["required_distance"]


def test_every_builder_returns_a_passing_report():
    plane, resolution = resolvable_affine(3)
    builds = {
        "ms1": ms1_construct((2, 2, 2, 2, 3), 3),
        "oa-gdd ms": construct_from_oa(5, 4),
        "oa-gdd partial": construct_from_oa(5, 2),
        "combine": combine_partition(base_system(4)),
        "affine": plane,
        "hybrid": construct_hybrid_ms(plane, resolution, 2),
        "fold": largeset_to_gdd(build_toy_large_set()),
    }
    gdd = {"oa-gdd partial", "fold"}
    for label, design in builds.items():
        report = design.report
        assert report is not None and report.ok, label
        assert report.claim == ("gdd" if label in gdd else "mixed-steiner"), label
        if label != "fold":
            assert report.stats["min_distance"] == brute_force_min_distance(design)[0], label
            assert report.stats["min_distance"] >= report.stats["required_distance"]


def test_report_takes_no_part_in_equality_hashing_or_serialization():
    built = construct_from_oa(4, 3)
    bare = MixedDesign(built.alphabet, built.t, built.k, built.blocks, meta=built.meta)
    assert built.report is not None and bare.report is None
    assert built == bare and hash(built) == hash(bare)
    assert design_to_json(built) == design_to_json(bare)
    assert "report" not in repr(built)


# ------------------------------------------------- one bad block per builder


def test_construct_from_oa_refuses_a_changed_oa_row(monkeypatch, checked):
    real = constructions.oa_square

    def tampered(q):
        array = real(q)
        rows = list(array.rows)
        rows[5] = (rows[5][0], (rows[5][1] + 1) % q) + rows[5][2:]
        return OrthogonalArray(array.strength, array.columns, array.alphabet, tuple(rows))

    monkeypatch.setattr(constructions, "oa_square", tampered)
    with pytest.raises(ConstructionFailed) as err:
        construct_from_oa(4, 2)
    _recheck(checked[-1], err.value.report)


def test_resolvable_affine_refuses_a_changed_field_table(monkeypatch, checked):
    real = oa_module.field_create

    class Tampered:
        def __init__(self, field):
            self.field = field
            self.mul = field.mul
            self.calls = 0

        def add(self, a, b):
            # lines are built slope by slope, then intercept, then x: call
            # 28 of GF(5) is the point at x = 2 on y = x, which moves to y = 3
            self.calls += 1
            return self.field.add(a, b + (self.calls == 28))

    monkeypatch.setattr(oa_module, "field_create", lambda q: Tampered(real(q)))
    with pytest.raises(ConstructionFailed) as err:
        resolvable_affine(5)
    _recheck(checked[-1], err.value.report)


def test_resolvable_affine_refuses_a_bad_resolution(monkeypatch, checked):
    made = []

    def swapped(classes):
        # the first line of slope 0 and the first of slope 1 change classes
        classes = [list(c) for c in classes]
        classes[0][0], classes[1][0] = classes[1][0], classes[0][0]
        made.append(Resolution(tuple(tuple(c) for c in classes)))
        return made[-1]

    monkeypatch.setattr(constructions, "Resolution", swapped)
    with pytest.raises(ConstructionFailed) as err:
        resolvable_affine(3)
    report = err.value.report
    assert report.claim == "resolution" and not report.ok
    ce = report.counterexample
    design = checked[-1]
    cls = made[-1].classes[ce.class_index]
    seen = [c for i in cls for c, _ in design.blocks[i].support]
    assert seen.count(ce.coordinate) == ce.count != 1


def _moved_point_cover() -> PartitionedCover:
    """base_system(4) with one point of its first root block moved."""
    cover = base_system(4)
    r_blocks = list(cover.r_blocks)
    r_blocks[0] = r_blocks[0][:-1] + (r_blocks[1][0],)
    return PartitionedCover(cover.n, cover.t, cover.k, tuple(r_blocks), cover.classes)


def test_combine_partition_refuses_a_tampered_cover(checked):
    with pytest.raises(ConstructionFailed) as err:
        combine_partition(_moved_point_cover())
    _recheck(checked[-1], err.value.report)


def test_construct_as_cover_refuses_a_tampered_cover(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "base_system", lambda k: _moved_point_cover())
    out = tmp_path / "cover.json"
    argv = ["construct", "--family", "base", "--k", "4", "--as-cover", "-o", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: cover fails as a combined design: word ")


def test_construct_hybrid_ms_refuses_a_tampered_cover(monkeypatch, checked):
    real = constructions.expand_design

    def tampered(design, resolution, i):
        cover = real(design, resolution, i)
        classes = list(cover.classes)
        last = list(classes[-1])
        last[0] = last[1]  # one class block repeated, another dropped
        classes[-1] = tuple(last)
        return PartitionedCover(cover.n, cover.t, cover.k, cover.r_blocks, tuple(classes))

    monkeypatch.setattr(constructions, "expand_design", tampered)
    plane, resolution = resolvable_affine(3)
    with pytest.raises(ConstructionFailed) as err:
        construct_hybrid_ms(plane, resolution, 1)
    _recheck(checked[-1], err.value.report)


def test_ms1_construct_refuses_blocks_sharing_two_coordinates(monkeypatch, checked):
    # every symbol is used once, so coverage passes; the distance clause fails
    monkeypatch.setattr(
        constructions, "_ms1_greedy", lambda d, k: [[0, 1], [0, 1], [2, 3], [2, 3]]
    )
    with pytest.raises(ConstructionFailed) as err:
        ms1_construct((3, 3, 3, 3), 2)
    report = err.value.report
    assert report.counterexample.kind == "distance"
    _recheck(checked[-1], report)


def test_largeset_to_gdd_refuses_a_changed_block(checked):
    ls = build_toy_large_set()
    copies = [list(c) for c in ls.copies]
    b = copies[1][0]
    copies[1][0] = Codeword(((0, 3 - b.symbol(0)),) + b.support[1:])
    broken = LargeSet(ls.alphabet, ls.t, ls.k, tuple(tuple(c) for c in copies))
    with pytest.raises(LargeSetInvalid) as err:
        largeset_to_gdd(broken)
    folded = checked[-1]
    _recheck(folded, err.value.report)
    # the counterexample is a word of the folded design, whose blocks with
    # hole symbol j + 1 are the blocks of copy j
    hole = ls.alphabet.n
    for j, copy in enumerate(broken.copies):
        held = [b.support[:-1] for b in folded.blocks if b.symbol(hole) == j + 1]
        assert held == [b.support for b in copy]


# ------------------------------------------------------------------ ceilings


def test_resolvable_affine_fails_fast_on_the_word_ceiling(monkeypatch):
    def no_field(q):
        raise AssertionError("field_create ran before the ceiling check")

    monkeypatch.setattr(oa_module, "field_create", no_field)
    with pytest.raises(VerificationLimitExceeded, match="weight-2 words"):
        resolvable_affine(128)  # C(128^2, 2) > 10^8
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", "10")
    with pytest.raises(VerificationLimitExceeded, match="300 weight-2 words"):
        resolvable_affine(5)


def test_construct_hybrid_ms_fails_fast_on_the_word_ceiling(monkeypatch):
    plane, classes = resolvable_affine(3)
    expanded = []
    real = constructions.expand_design

    def spy(*args):
        expanded.append(args)
        return real(*args)

    monkeypatch.setattr(constructions, "expand_design", spy)
    # i = 0: 18 binary points and 9 symbols, C(18, 2) + 18 * 9 = 315 words
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", "314")
    with pytest.raises(VerificationLimitExceeded, match="315 weight-2 words"):
        construct_hybrid_ms(plane, classes, 0)
    assert expanded == []
    # the words are the one ceiling: at 315 the 105 blocks (5460 block
    # pairs, none compared) build, and verify accepts them at that ceiling
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", "315")
    hybrid = construct_hybrid_ms(plane, classes, 0)
    assert len(hybrid.blocks) == 105
    assert len(expanded) == 1
    assert verify.verify_mixed_steiner(hybrid, max_words=315).ok


def test_construct_from_oa_fails_fast_on_the_word_ceiling(monkeypatch):
    def no_array(k):
        raise AssertionError("oa_square ran before the ceiling check")

    monkeypatch.setattr(constructions, "oa_square", no_array)
    # k = 128, r = 127: C(16256, 2) + 16256 * 128 weight-2 words
    with pytest.raises(VerificationLimitExceeded, match="134201408 weight-2 words"):
        construct_from_oa(128, 127)
    # k = 4, r = 3: C(12, 2) + 12 * 4 = 114 words
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", "113")
    with pytest.raises(VerificationLimitExceeded, match="114 weight-2 words"):
        construct_from_oa(4, 3)
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", "114")
    with pytest.raises(AssertionError, match="oa_square ran"):
        construct_from_oa(4, 3)


def test_base_system_fails_fast_on_the_word_ceiling(monkeypatch):
    def no_array(k):
        raise AssertionError("oa_square ran before the ceiling check")

    monkeypatch.setattr(constructions, "oa_square", no_array)
    monkeypatch.delenv("DESIGN_FORGE_MAX_WORDS", raising=False)
    # k = 128 combines over Z_2^16256 x Z_129: C(16256, 2) + 16256 * 128 words
    with pytest.raises(
        VerificationLimitExceeded,
        match="134201408 weight-2 words exceed the ceiling 100000000",
    ):
        base_system(128)
    # k = 4 combines over Z_2^12 x Z_5: C(12, 2) + 12 * 4 = 114 words
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", "113")
    with pytest.raises(VerificationLimitExceeded, match="114 weight-2 words"):
        base_system(4)
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", "114")
    with pytest.raises(AssertionError, match="oa_square ran"):
        base_system(4)


def test_combine_partition_fails_fast_on_the_word_ceiling(monkeypatch):
    cover = base_system(4)

    def no_block(supports):
        raise AssertionError("a block was built before the ceiling check")

    monkeypatch.setattr(constructions, "_valid_codewords", no_block)
    # Z_2^12 x Z_5: C(12, 2) + 12 * 4 = 114 weight-2 words
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", "113")
    with pytest.raises(VerificationLimitExceeded, match="114 weight-2 words"):
        combine_partition(cover)
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", "114")
    with pytest.raises(AssertionError, match="a block was built"):
        combine_partition(cover)


def test_the_ceiling_bounds_construct(monkeypatch):
    monkeypatch.setenv("DESIGN_FORGE_MAX_WORDS", "10")
    with pytest.raises(VerificationLimitExceeded):
        construct_from_oa(4, 3)


def _no_alphabet(sizes):
    raise AssertionError("an alphabet was built before the ceiling check")


@pytest.mark.parametrize(
    "build, words",
    [
        # Z_2^{k(k-1)} x Z_{k+1} at k = 40000: 1.6 * 10^9 coordinates
        (lambda: base_system(40000), 1279999998400020000),
        # Z_2^{rk} x Z_{k+1}^{k-r} at k = 3 * 10^8, r = 1
        (lambda: construct_from_oa(3 * 10**8, 1), 4049999986500000044999999850000000),
        # a cover on 10^9 points with one class: C(10^9, 2) + 10^9 words
        (lambda: combine_partition(PartitionedCover(10**9, 2, 3, (), ((),))), 500000000500000000),
        (lambda: resolvable_affine(2**20), (2**40) * (2**40 - 1) // 2),
    ],
)
def test_builders_count_from_their_parameters(monkeypatch, build, words):
    monkeypatch.delenv("DESIGN_FORGE_MAX_WORDS", raising=False)
    monkeypatch.setattr(constructions, "MixedAlphabet", _no_alphabet)
    with pytest.raises(
        VerificationLimitExceeded,
        match=f"^{words} weight-2 words exceed the ceiling 100000000$",
    ):
        build()


def test_construct_hybrid_ms_expands_once_its_words_pass(monkeypatch):
    plane, classes = resolvable_affine(16)

    def no_expansion(*args):
        raise AssertionError("expand_design ran")

    monkeypatch.delenv("DESIGN_FORGE_MAX_WORDS", raising=False)
    monkeypatch.setattr(constructions, "expand_design", no_expansion)
    # N = 15 * 256 points and 256 symbols: C(N, 2) + 256N = 8353920 words
    # pass the ceiling, so a kept class (69616 blocks, 2423158920 block
    # pairs) expands just as a plan that replaces all 17 classes does
    for replaced in (0, 17):
        with pytest.raises(AssertionError, match="expand_design ran"):
            construct_hybrid_ms(plane, classes, replaced)


# -------------------------------------------------- one distance pass per run


@pytest.mark.parametrize(
    "argv, passes",
    [
        (["--family", "ms1", "--alphabet", "2,2,2,2,3", "--k", "3"], []),
        (["--family", "ms1", "--alphabet", "2,2,3,3", "--k", "2"], []),
        # a t = 2 design with at most one nonbinary coordinate is settled by
        # counting, with no pass; two nonbinary coordinates (r < k - 1) are not
        (["--family", "oa-gdd", "--k", "5", "--r", "4"], []),
        (["--family", "oa-gdd", "--k", "5", "--r", "2"], [27]),
        (["--family", "base", "--k", "4"], []),
        (["--family", "affine", "--q", "4"], []),
        (["--family", "hybrid", "--k", "3", "--i", "2", "--input", "plane.json"], []),
        # without --input the affine plane it builds is checked as well,
        # by counting
        (["--family", "hybrid", "--k", "3", "--i", "2"], []),
    ],
)
def test_construct_runs_one_distance_pass_per_design(
    monkeypatch, tmp_path, capsys, argv, passes
):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["construct", "--family", "affine", "--q", "3", "-o", "plane.json"]) == 0
    capsys.readouterr()
    calls = []

    def counted(design):
        calls.append(len(design.blocks))
        return min_distance(design)

    assert not hasattr(cli, "min_distance")
    monkeypatch.setattr(verify, "min_distance", counted)
    assert cli.main(["construct", *argv, "-o", "design.json"]) == 0
    assert calls == passes  # block counts of the designs compared pairwise
    summary = capsys.readouterr().out
    design, _ = design_from_json((tmp_path / "design.json").read_text())
    oracle = brute_force_min_distance(design)[0]
    assert summary.rstrip().endswith(f"min distance {oracle}")
