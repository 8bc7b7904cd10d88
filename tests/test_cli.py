"""End-to-end command-line checks, driven through subprocess."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from design_forge import largeset_to_json
from tests.conftest import build_toy_large_set


def run_cli(*args, env=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "design_forge.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_construct_ms1_stdout_json_and_stderr_summary():
    result = run_cli("construct", "--family", "ms1", "--alphabet", "2,2,2,2,3", "--k", "3")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["alphabet"] == [2, 2, 2, 2, 3]
    assert "2 blocks, min distance 5" in result.stderr


def test_construct_ms1_infeasible_exits_2():
    result = run_cli("construct", "--family", "ms1", "--alphabet", "2,2,3", "--k", "3")
    assert result.returncode == 2
    assert "infeasible: difference -2" in result.stderr
    assert result.stdout == ""


def test_construct_writes_output_file_and_summary_to_stdout(tmp_path):
    out = tmp_path / "gdd.json"
    result = run_cli("construct", "--family", "oa-gdd", "--k", "4", "--r", "2", "-o", str(out))
    assert result.returncode == 0
    assert result.stderr == ""
    assert "18 blocks, min distance 4" in result.stdout
    data = json.loads(out.read_text())
    assert data["alphabet"] == [2] * 8 + [5] * 2


def test_construct_is_byte_identical_across_runs(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        run_cli("construct", "--family", "hybrid", "--k", "3", "--i", "2", "-o", str(path))
    assert first.read_bytes() == second.read_bytes()


def test_construct_base_as_cover():
    result = run_cli("construct", "--family", "base", "--k", "4", "--as-cover")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["n"] == 12 and len(data["R"]) == 3 and len(data["classes"]) == 4
    assert "3 root blocks, 4 classes" in result.stderr


def test_construct_base_combined_verifies_as_ms(tmp_path):
    out = tmp_path / "combined.json"
    build = run_cli("construct", "--family", "base", "--k", "4", "-o", str(out))
    assert build.returncode == 0
    assert "19 blocks" in build.stdout
    check = run_cli("verify", "--claim", "ms", str(out))
    assert check.returncode == 0
    report = json.loads(check.stdout)
    assert report["ok"] is True and report["stats"]["blocks"] == 19
    as_gdd = run_cli("verify", "--claim", "gdd", str(out))
    assert as_gdd.returncode == 0
    assert json.loads(as_gdd.stdout)["stats"]["gdd_type"] == "1^12 4^1"


def test_affine_roundtrips_through_resolution_claim(tmp_path):
    out = tmp_path / "plane.json"
    build = run_cli("construct", "--family", "affine", "--q", "3", "-o", str(out))
    assert build.returncode == 0
    assert json.loads(out.read_text())["classes"]
    check = run_cli("verify", "--claim", "resolution", str(out))
    assert check.returncode == 0
    assert json.loads(check.stdout)["stats"]["class_count_matches"] is True


def test_hybrid_summary_matches_catalogued_values(tmp_path):
    out = tmp_path / "s19.json"
    result = run_cli("construct", "--family", "hybrid", "--k", "3", "--n", "9", "--i", "4", "-o", str(out))
    assert result.returncode == 0
    assert "57 blocks, min distance 4" in result.stdout
    check = run_cli("verify", "--claim", "steiner", str(out))
    assert check.returncode == 0


def test_hybrid_with_explicit_input_equals_default(tmp_path):
    plane = tmp_path / "plane.json"
    run_cli("construct", "--family", "affine", "--q", "3", "-o", str(plane))
    viato = tmp_path / "via.json"
    plain = tmp_path / "plain.json"
    a = run_cli("construct", "--family", "hybrid", "--k", "3", "--input", str(plane), "--i", "2", "-o", str(viato))
    b = run_cli("construct", "--family", "hybrid", "--k", "3", "--i", "2", "-o", str(plain))
    assert a.returncode == b.returncode == 0
    assert viato.read_bytes() == plain.read_bytes()


def test_hybrid_rejects_design_without_classes(tmp_path):
    bare = tmp_path / "bare.json"
    run_cli("construct", "--family", "base", "--k", "3", "-o", str(bare))
    result = run_cli("construct", "--family", "hybrid", "--k", "3", "--input", str(bare))
    assert result.returncode == 2
    assert "classes" in result.stderr


def test_verify_detects_corruption_and_exits_1(tmp_path):
    out = tmp_path / "design.json"
    run_cli("construct", "--family", "hybrid", "--k", "3", "--i", "4", "-o", str(out))
    data = json.loads(out.read_text())
    del data["blocks"][0]
    out.write_text(json.dumps(data))
    result = run_cli("verify", "--claim", "ms", str(out))
    assert result.returncode == 1
    report = json.loads(result.stdout)
    assert report["ok"] is False
    assert report["counterexample"]["kind"] == "coverage"


def test_verify_t_override_retags_design(tmp_path):
    out = tmp_path / "design.json"
    run_cli("construct", "--family", "hybrid", "--k", "3", "--i", "4", "-o", str(out))
    result = run_cli("verify", "--claim", "ms", "--t", "1", str(out))
    # at t=1 every weight-1 word is covered many times, so the claim fails
    assert result.returncode == 1
    assert json.loads(result.stdout)["stats"]["t"] == 1


def test_verify_missing_file_exits_2():
    result = run_cli("verify", "--claim", "ms", "/nonexistent/design.json")
    assert result.returncode == 2
    assert "error:" in result.stderr


def test_verify_word_limit_env_exits_2(tmp_path):
    import os

    out = tmp_path / "design.json"
    run_cli("construct", "--family", "hybrid", "--k", "3", "--i", "4", "-o", str(out))
    env = dict(os.environ, DESIGN_FORGE_MAX_WORDS="10")
    result = run_cli("verify", "--claim", "ms", str(out), env=env)
    assert result.returncode == 2
    assert "error:" in result.stderr


def test_verify_ms_pair_ceiling_exits_2(tmp_path):
    # S(2,3,19): 171 weight-2 words but 57 blocks, so 1596 block pairs
    out = tmp_path / "design.json"
    run_cli("construct", "--family", "hybrid", "--k", "3", "--i", "4", "-o", str(out))
    words_fit = run_cli("verify", "--claim", "gdd", "--max-words", "1000", str(out))
    assert words_fit.returncode == 0
    result = run_cli("verify", "--claim", "ms", "--max-words", "1000", str(out))
    assert result.returncode == 2
    assert "1596 block pairs exceed the ceiling 1000" in result.stderr
    assert result.stdout == ""
    assert run_cli("verify", "--claim", "ms", "--max-words", "1596", str(out)).returncode == 0


def test_verify_negative_max_words_exits_2(tmp_path):
    out = tmp_path / "design.json"
    run_cli("construct", "--family", "hybrid", "--k", "3", "--i", "4", "-o", str(out))
    result = run_cli("verify", "--claim", "gdd", "--max-words", "-1", str(out))
    assert result.returncode == 2
    assert "--max-words" in result.stderr
    assert "must be a nonnegative int" in result.stderr


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_verify_bad_word_limit_env_exits_2(tmp_path, value):
    import os

    out = tmp_path / "design.json"
    run_cli("construct", "--family", "hybrid", "--k", "3", "--i", "4", "-o", str(out))
    env = dict(os.environ, DESIGN_FORGE_MAX_WORDS=value)
    result = run_cli("verify", "--claim", "gdd", str(out), env=env)
    assert result.returncode == 2
    assert "DESIGN_FORGE_MAX_WORDS must be a nonnegative int" in result.stderr
    assert "invalid literal" not in result.stderr


def test_verify_rejects_boolean_symbol_exits_2(tmp_path):
    path = tmp_path / "design.json"
    path.write_text('{"alphabet":[2,2],"t":1,"k":1,"blocks":[[[0,true]],[[1,1]]]}')
    result = run_cli("verify", "--claim", "ms", str(path))
    assert result.returncode == 2
    assert "error:" in result.stderr
    assert result.stdout == ""


def test_transform_roundtrip(tmp_path):
    ls_path = tmp_path / "ls.json"
    ls_path.write_text(largeset_to_json(build_toy_large_set()))
    gdd_path = tmp_path / "gdd.json"
    fold = run_cli("transform", "ls-to-gdd", str(ls_path), "-o", str(gdd_path))
    assert fold.returncode == 0
    check = run_cli("verify", "--claim", "gdd", str(gdd_path))
    assert check.returncode == 0
    back = run_cli("transform", "gdd-to-ls", str(gdd_path))
    assert back.returncode == 0
    assert back.stdout == ls_path.read_text()


def test_transform_rejects_corrupt_large_set(tmp_path):
    ls = build_toy_large_set()
    corrupt = type(ls)(ls.alphabet, ls.t, ls.k, (ls.copies[0], ls.copies[0]), lam=ls.lam)
    path = tmp_path / "bad.json"
    path.write_text(largeset_to_json(corrupt))
    result = run_cli("transform", "ls-to-gdd", str(path))
    assert result.returncode == 1
    assert "verification failed" in result.stderr


def test_transform_hole_out_of_range_exits_2(tmp_path):
    ls_path = tmp_path / "ls.json"
    ls_path.write_text(largeset_to_json(build_toy_large_set()))
    gdd_path = tmp_path / "gdd.json"
    run_cli("transform", "ls-to-gdd", str(ls_path), "-o", str(gdd_path))
    result = run_cli("transform", "gdd-to-ls", str(gdd_path), "--hole", "9")
    assert result.returncode == 2


def test_oa_emit_and_verify(tmp_path):
    out = tmp_path / "square.oa"
    emit = run_cli("oa", "--kind", "square", "--q", "3", "-o", str(out))
    assert emit.returncode == 0
    assert out.read_text().splitlines()[0] == "OA 2 3 3"
    check = run_cli("verify", "--claim", "oa", str(out))
    assert check.returncode == 0
    # the square array has strength exactly 2, so strength 3 must fail
    over = run_cli("verify", "--claim", "oa", "--strength", "3", str(out))
    assert over.returncode == 1


def test_oa_sum_kind():
    result = run_cli("oa", "--kind", "sum", "--t", "3", "--k", "4")
    assert result.returncode == 0
    # t columns of strength t-1: the last column is the negated sum
    assert result.stdout.splitlines()[0] == "OA 2 3 4"


def test_oa_missing_parameter_exits_2():
    result = run_cli("oa", "--kind", "square")
    assert result.returncode == 2
    assert "needs --q" in result.stderr


def test_catalog_lists_all_records_all_blocked():
    result = run_cli("catalog")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 81
    assert all("ms-counterpart: blocked" in line for line in lines)
    assert any("GDD(4,5,34) type 2^10 14^1 [exists]" in line for line in lines)


def test_catalog_range_flags():
    result = run_cli("catalog", "--g-max", "2", "--h-max", "1", "--ell-max", "1")
    lines = result.stdout.strip().splitlines()
    # one g value (5 families + sporadic skip), one h value (2 + 1 ell family)
    assert len(lines) == 5 + 1 + (2 + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ("construct",),  # missing --family
        ("construct", "--family", "nosuch"),
        ("verify", "--claim", "ms"),  # missing file
        ("nosuchcommand",),
    ],
)
def test_usage_errors_exit_2(argv):
    result = run_cli(*argv)
    assert result.returncode == 2


def test_construct_missing_family_parameter_exits_2():
    result = run_cli("construct", "--family", "ms1", "--k", "3")
    assert result.returncode == 2
    assert "needs --alphabet" in result.stderr
