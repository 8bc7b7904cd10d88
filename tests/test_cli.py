"""End-to-end command-line checks, driven through subprocess; the
collector and parser checks call cli.main in this process."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc

from pathlib import Path

import pytest

import design_forge
from design_forge import (
    LargeSet,
    cli,
    construct_hybrid_ms,
    design_to_json,
    largeset_to_gdd,
    largeset_to_json,
    oa_square,
    oa_to_text,
)
from tests.conftest import build_kts15, build_sum_large_set, build_toy_large_set


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


def test_construct_ms1_found_by_search_exits_0():
    result = run_cli("construct", "--family", "ms1", "--alphabet", "2,2,3,3", "--k", "2")
    assert result.returncode == 0
    assert json.loads(result.stdout)["alphabet"] == [2, 2, 3, 3]
    assert "3 blocks, min distance 3" in result.stderr


def test_construct_ms1_without_a_system_exits_2_naming_the_bound():
    result = run_cli("construct", "--family", "ms1", "--alphabet", "3,3", "--k", "2")
    assert result.returncode == 2
    assert "no MS(1, 2, Q) exists" in result.stderr
    assert "block-pairs bound fails" in result.stderr
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


def test_hybrid_reads_a_kirkman_triple_system_as_input(tmp_path):
    kts = tmp_path / "kts15.json"
    kts.write_text(design_to_json(*build_kts15()))
    out = tmp_path / "hybrid.json"
    result = run_cli("construct", "--family", "hybrid", "--k", "3", "--input", str(kts), "--i", "2", "-o", str(out))
    assert result.returncode == 0, result.stderr
    assert "t=2 k=3 alphabet Z2^30 x Z12: 255 blocks, min distance 3" in result.stdout
    assert out.read_text() == design_to_json(construct_hybrid_ms(*build_kts15(), 2))
    check = run_cli("verify", "--claim", "ms", str(out))
    assert check.returncode == 0
    assert json.loads(check.stdout)["stats"]["min_distance"] == 3


def test_hybrid_input_must_agree_with_k_and_n(tmp_path):
    plane = tmp_path / "plane.json"
    run_cli("construct", "--family", "affine", "--q", "4", "-o", str(plane))
    wrong_k = run_cli(
        "construct", "--family", "hybrid", "--k", "3", "--n", "99", "--i", "0", "--input", str(plane)
    )
    assert wrong_k.returncode == 2
    assert "--k 3 disagrees with the input's k=4" in wrong_k.stderr
    assert wrong_k.stdout == ""
    wrong_n = run_cli(
        "construct", "--family", "hybrid", "--k", "4", "--n", "99", "--i", "0", "--input", str(plane)
    )
    assert wrong_n.returncode == 2
    assert "--n 99 disagrees with the input's 16 points" in wrong_n.stderr
    both = run_cli(
        "construct", "--family", "hybrid", "--k", "4", "--n", "16", "--i", "0", "--input", str(plane)
    )
    assert both.returncode == 0


def test_hybrid_names_k_minus_1_when_it_is_not_a_prime_power():
    result = run_cli("construct", "--family", "hybrid", "--k", "7", "--i", "1")
    assert result.returncode == 2
    assert result.stderr == (
        "error: k - 1 = 6 is not a prime power: replacing i >= 1 classes needs "
        "k and k - 1 both prime powers\n"
    )
    assert result.stdout == ""


def test_construct_is_bounded_by_the_word_ceiling():
    import os

    env = dict(os.environ, DESIGN_FORGE_MAX_WORDS="10")
    result = run_cli("construct", "--family", "oa-gdd", "--k", "4", "--r", "3", env=env)
    assert result.returncode == 2
    assert "114 weight-2 words exceed the ceiling 10" in result.stderr
    assert result.stdout == ""


def test_construct_oa_gdd_fails_fast_on_the_word_ceiling():
    import os

    env = {k: v for k, v in os.environ.items() if k != "DESIGN_FORGE_MAX_WORDS"}
    # refused from the alphabet alone, before the 16384-row array is built
    result = run_cli("construct", "--family", "oa-gdd", "--k", "128", "--r", "127", env=env)
    assert result.returncode == 2
    assert "134201408 weight-2 words exceed the ceiling 100000000" in result.stderr
    assert result.stdout == ""


def _limit_memory_to_1_gb():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("extra", [[], ["--as-cover"]])
def test_construct_base_128_fails_fast_within_1_gb(tmp_path, extra):
    # 127 x 128 class blocks of 127 points: the combined design's words are
    # refused from its alphabet before any block is listed
    env = {k: v for k, v in os.environ.items() if k != "DESIGN_FORGE_MAX_WORDS"}
    out = tmp_path / "base.json"
    result = subprocess.run(
        [sys.executable, "-m", "design_forge.cli", "construct", "--family", "base",
         "--k", "128", *extra, "-o", str(out)],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_limit_memory_to_1_gb,
        timeout=60,
    )
    assert result.returncode == 2
    assert "134201408 weight-2 words exceed the ceiling 100000000" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "square", "--q", "2048"], "8589934592 array entries exceed the ceiling 100000000"),
        (["--kind", "extended", "--q", "1024"], "1074790400 array entries exceed the ceiling 100000000"),
        (["--kind", "sum", "--t", "12", "--k", "10"], "1200000000000 array entries exceed the ceiling 100000000"),
        (["--kind", "square", "--q", "6"], "6 is not a prime power"),
    ],
)
def test_oa_fails_fast_within_1_gb(tmp_path, argv, message):
    # rows x columns entries are refused before a field table or row exists
    env = {k: v for k, v in os.environ.items() if k != "DESIGN_FORGE_MAX_WORDS"}
    out = tmp_path / "array.oa"
    result = subprocess.run(
        [sys.executable, "-m", "design_forge.cli", "oa", *argv, "-o", str(out)],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_limit_memory_to_1_gb,
        timeout=20,
    )
    assert result.returncode == 2
    assert result.stderr == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "header, code, out, err",
    [
        # C(30000, 2) column sets, each of which no row could fail
        ("OA 2 30000 0", 2, "", "error: alphabet must be >= 1, got 0\n"),
        ("OA 1 3 0", 2, "", "error: alphabet must be >= 1, got 0\n"),
        # no rows where 4 are needed: the first column set misses (0, 0),
        # and no other column is read
        ("OA 2 100000000 2", 1,
         '{"columns":[0,1],"count":0,"ok":false,"strength":2,"symbols":[0,0]}\n', ""),
        # the walk to the missed (0, 0) lists one symbol, not 10^8
        ("OA 2 2 100000000", 1,
         '{"columns":[0,1],"count":0,"ok":false,"strength":2,"symbols":[0,0]}\n', ""),
        # neither C(2*10^6, 10^6) nor (10^100)^(10^6) is formed: the missed
        # tuple's 10^6 symbols are the only work
        pytest.param(
            "OA 1000000 2000000 1" + "0" * 100, 1,
            '{"columns":[%s],"count":0,"ok":false,"strength":1000000,"symbols":[%s]}\n'
            % (",".join(map(str, range(1000000))), ",".join("0" * 1000000)), "",
            id="OA 1000000 2000000 10^100",
        ),
        # a tuple of more symbols than the ceiling is refused before it is formed
        ("OA 1000000000 1000000000 2", 2, "",
         "error: 1000000000 symbols in a column-set tuple exceed the ceiling 100000000\n"),
        # a 2 MB file: C(10^6, 5 * 10^5) is named once its partial count
        # passes the ceiling, not formed
        pytest.param(
            "OA 500000 1000000 1\n" + " ".join("0" * 1000000), 2, "",
            "error: C(1000000, 500000) * 1 column-set tuples exceed the ceiling 100000000\n",
            id="OA 500000 1000000 1 with one row",
        ),
    ],
)
def test_verify_oa_hostile_headers_fail_fast_within_1_gb(tmp_path, header, code, out, err):
    path = tmp_path / "array.oa"
    path.write_text(header + "\n")
    env = {k: v for k, v in os.environ.items() if k != "DESIGN_FORGE_MAX_WORDS"}
    result = subprocess.run(
        [sys.executable, "-m", "design_forge.cli", "verify", "--claim", "oa", str(path)],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_limit_memory_to_1_gb,
        timeout=10,
    )
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)


@pytest.mark.parametrize(
    "claim, text, code, out, err",
    [
        # nesting deeper than the decoder's recursion limit is bad input
        pytest.param("gdd", "[" * 200000, 2, "", "error: JSON nested too deeply to read\n",
                     id="gdd nested 200000 deep"),
        pytest.param("largeset", '{"copies":' * 200000, 2, "", "error: JSON nested too deeply to read\n",
                     id="largeset nested 200000 deep"),
        # no block list is read in passes over a header's k
        pytest.param("gdd", '{"alphabet":[2],"t":1,"k":1000000000000,"blocks":[]}', 1,
                     '{"claim":"gdd","counterexample":{"count":0,"detail":"word ((0, 1),) covered 0 times, '
                     'want exactly 1","kind":"coverage","word":[[0,1]]},"ok":false,"stats":{"blocks":0,'
                     '"gdd_type":"1^1","k":1000000000000,"t":1,"words":1}}\n', "",
                     id="gdd k=10^12 no blocks"),
        pytest.param("largeset", '{"alphabet":[2],"t":1,"k":1000000000000,"copies":[[],[]]}', 2, "",
                     "error: need k <= n, got k=1000000000000 n=1\n", id="largeset k=10^12 empty copies"),
    ],
)
def test_verify_hostile_json_fails_fast_within_1_gb(tmp_path, claim, text, code, out, err):
    path = tmp_path / "input.json"
    path.write_text(text)
    result = subprocess.run(
        [sys.executable, "-m", "design_forge.cli", "verify", "--claim", claim, str(path)],
        capture_output=True,
        text=True,
        preexec_fn=_limit_memory_to_1_gb,
        timeout=10,
    )
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "--family", "hybrid", "--k", "25", "--i", "0"],
         "121867500 weight-2 words exceed the ceiling 100000000"),
        (["construct", "--family", "base", "--k", "40000"],
         "1279999998400020000 weight-2 words exceed the ceiling 100000000"),
        (["construct", "--family", "oa-gdd", "--k", "300000000", "--r", "1"],
         "4049999986500000044999999850000000 weight-2 words exceed the ceiling 100000000"),
        (["oa", "--kind", "sum", "--t", "100000", "--k", "10"],
         "10^99999 * 100000 array entries exceed the ceiling 100000000"),
        (["oa", "--kind", "sum", "--t", "10000000", "--k", "10"],
         "10^9999999 * 10000000 array entries exceed the ceiling 100000000"),
        # 5 records per g, 1 sporadic, 2 + 3 per h
        (["catalog", "--g-max", "100000000"],
         "500000016 catalog records exceed the ceiling 100000000"),
        # 15000 coordinates of 14999 nonzero symbols each, before any route
        # lists a block
        (["construct", "--family", "ms1", "--alphabet", ",".join(["15000"] * 15000), "--k", "2"],
         "224985000 weight-1 words exceed the ceiling 100000000"),
    ],
)
def test_huge_requests_are_counted_from_their_parameters_within_1_gb(tmp_path, argv, message):
    # each is refused before its alphabet, design or power is formed; none
    # needs more than a fraction of a second
    env = {k: v for k, v in os.environ.items() if k != "DESIGN_FORGE_MAX_WORDS"}
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "design_forge.cli", *argv, "-o", str(out)],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_limit_memory_to_1_gb,
        timeout=10,
    )
    assert result.returncode == 2
    assert result.stderr == f"error: {message}\n"
    assert not out.exists()


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
    # oa-gdd k = 5, r = 2 has two nonbinary coordinates: 270 weight-2 words
    # but 27 blocks, so 351 block pairs
    out = tmp_path / "design.json"
    run_cli("construct", "--family", "oa-gdd", "--k", "5", "--r", "2", "-o", str(out))
    words_fit = run_cli("verify", "--claim", "gdd", "--max-words", "300", str(out))
    assert words_fit.returncode == 0
    result = run_cli("verify", "--claim", "ms", "--max-words", "300", str(out))
    assert result.returncode == 2
    assert "351 block pairs exceed the ceiling 300" in result.stderr
    assert result.stdout == ""
    # a GDD at distance k + r - 2 = 5, short of the MS distance 7
    fails = run_cli("verify", "--claim", "ms", "--max-words", "351", str(out))
    assert fails.returncode == 1
    assert json.loads(fails.stdout)["counterexample"]["distance"] == 5
    # S(2,3,19) (1596 pairs) and the k = 3, i = 2 hybrid (3240 pairs, one
    # nonbinary coordinate) are settled by counting and compare no pairs
    for i, distance in ((4, 4), (2, 3)):
        run_cli("construct", "--family", "hybrid", "--k", "3", "--i", str(i), "-o", str(out))
        settled = run_cli("verify", "--claim", "ms", "--max-words", "1000", str(out))
        assert settled.returncode == 0
        assert json.loads(settled.stdout)["stats"]["min_distance"] == distance


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


@pytest.mark.parametrize("digits", [19, 5000])
def test_verify_refuses_a_long_symbol_exits_2(tmp_path, digits):
    # the text of a 5000-digit int is refused by the interpreter's digit
    # limit where it has one, and as a symbol out of range where it has not
    path = tmp_path / "design.json"
    path.write_text('{"alphabet":[3,3],"t":1,"k":2,"blocks":[[[0,1],[1,%s]]]}' % ("1" * digits))
    result = run_cli("verify", "--claim", "gdd", str(path))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: ")
    if digits == 19:
        assert result.stderr == "error: symbol 1111111111111111111 out of range at coordinate 1 (size 3)\n"


_LONG = "1" * 5000


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int has no digit limit")
@pytest.mark.parametrize(
    "claim, text, err",
    [
        ("gdd", '{"alphabet":[3,3],"t":1,"k":2,"blocks":[[[0,1],[1,%s]]]}' % _LONG,
         "error: not valid JSON: Exceeds the limit (4300"),
        ("largeset", '{"alphabet":[2,2,2],"t":1,"k":1,"lambda":1,"copies":[[[[0,%s]]]]}' % _LONG,
         "error: not valid JSON: Exceeds the limit (4300"),
        ("oa", f"OA 1 2 {_LONG}\n0 0\n", f"error: line 'OA 1 2 {_LONG}' holds an int too long to read\n"),
        ("oa", f"OA 1 2 3\n{_LONG} 0\n", f"error: line '{_LONG} 0' holds an int too long to read\n"),
    ],
    ids=["design json", "large-set json", "oa header", "oa row"],
)
def test_verify_reports_an_int_past_the_digit_limit_as_a_format_error(tmp_path, claim, text, err):
    path = tmp_path / "input"
    path.write_text(text)
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "4300"}
    result = run_cli("verify", "--claim", claim, str(path), env=env)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith(err)


@pytest.mark.parametrize(
    "command, checker",
    [
        (["verify", "--claim", "gdd"], "verify_gdd"),
        (["verify", "--claim", "largeset"], "verify_large_set"),
        (["verify", "--claim", "oa"], "verify_oa"),
        (["transform", "ls-to-gdd"], "largeset_to_gdd"),
        (["transform", "gdd-to-ls"], "gdd_to_largeset"),
    ],
)
def test_the_input_text_is_freed_before_the_check_runs(tmp_path, monkeypatch, capsys, command, checker):
    # the input ends in 8 MB of whitespace that no reader keeps; once it is
    # parsed, the text is gone, so the check starts holding far less
    ls = build_toy_large_set()
    text = {
        "gdd": design_to_json(largeset_to_gdd(ls)),
        "largeset": largeset_to_json(ls),
        "oa": oa_to_text(oa_square(3)),
        "ls-to-gdd": largeset_to_json(ls),
        "gdd-to-ls": design_to_json(largeset_to_gdd(ls)),
    }[command[-1]]
    path = tmp_path / "input"
    path.write_text(text + " " * 8_000_000 + "\n")
    check = getattr(cli, checker)
    held = []

    def wrapped(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return check(*args, **kwargs)

    monkeypatch.setattr(cli, checker, wrapped)
    tracemalloc.start()
    try:
        code = cli.main([*command, str(path), "-o", str(tmp_path / "out")])
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert len(held) == 1 and held[0] < 1_000_000


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


@pytest.mark.parametrize("t", [0, 4])
def test_verify_largeset_refuses_t_outside_1_to_k(tmp_path, t):
    path = tmp_path / "ls.json"
    path.write_text(largeset_to_json(build_toy_large_set()))  # k = 3
    result = run_cli("verify", "--claim", "largeset", "--t", str(t), str(path))
    assert result.returncode == 2
    assert result.stderr == f"error: need 1 <= t <= k, got t={t} k=3\n"
    assert result.stdout == ""


def test_verify_largeset_refuses_k_above_n(tmp_path):
    # a block of 3 nonzero coordinates over 1 coordinate: the refusal names
    # k and n, not the word count's own bound
    path = tmp_path / "ls.json"
    path.write_text('{"alphabet":[3],"t":1,"k":3,"copies":[]}')
    result = run_cli("verify", "--claim", "largeset", str(path))
    assert result.returncode == 2
    assert result.stderr == "error: need k <= n, got k=3 n=1\n"
    assert result.stdout == ""


@pytest.mark.parametrize("t", [0, 5])
@pytest.mark.parametrize("deleted", [False, True])
def test_verify_largeset_refuses_t_before_counting(tmp_path, t, deleted):
    # a deleted block fails the multiplicity count, which must not run first
    ls = build_sum_large_set(10, 3)  # LH(4,10,4,3)
    if deleted:
        ls = LargeSet(ls.alphabet, ls.t, ls.k, (ls.copies[0][1:],) + ls.copies[1:])
    path = tmp_path / "ls.json"
    path.write_text(largeset_to_json(ls))
    result = run_cli("verify", "--claim", "largeset", "--t", str(t), str(path))
    assert result.returncode == 2
    assert result.stderr == f"error: need 1 <= t <= k, got t={t} k=4\n"
    assert result.stdout == ""


def test_transforms_refuse_a_large_set_of_strength_0(tmp_path):
    # a t = 1 GDD of type 1^2 2^1 slices to a large set of t = 0, which
    # neither verify --claim largeset nor either transform accepts
    gdd = tmp_path / "gdd.json"
    gdd.write_text('{"alphabet":[2,2,3],"t":1,"k":2,"blocks":[[[0,1],[2,1]],[[1,1],[2,2]]]}')
    ls = tmp_path / "ls.json"
    ls.write_text('{"alphabet":[2,2],"copies":[[[[0,1]]],[[[1,1]]]],"k":1,"lambda":1,"t":0}')
    for direction, path in [("gdd-to-ls", gdd), ("ls-to-gdd", ls)]:
        result = run_cli("transform", direction, str(path))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: need 1 <= t <= k, got t=0 k=1\n"


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


def test_verify_oa_report_bytes(tmp_path):
    out = tmp_path / "square.oa"
    run_cli("oa", "--kind", "square", "--q", "3", "-o", str(out))
    ok = run_cli("verify", "--claim", "oa", "--strength", "2", str(out))
    assert (ok.returncode, ok.stdout) == (
        0, '{"columns":null,"count":null,"ok":true,"strength":2,"symbols":null}\n'
    )
    bad = run_cli("verify", "--claim", "oa", "--strength", "3", str(out))
    assert (bad.returncode, bad.stdout) == (
        1, '{"columns":[0,1,2],"count":0,"ok":false,"strength":3,"symbols":[0,0,1]}\n'
    )


def test_verify_oa_names_a_row_with_a_superscript_digit(tmp_path):
    path = tmp_path / "array.oa"
    path.write_text("OA 2 2 2\n0 0\n0 1\n1 0\n\u00b2 1\n")
    result = run_cli("verify", "--claim", "oa", str(path))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: row '\u00b2 1' does not hold 2 ints\n"


def test_verify_oa_max_words_exits_2(tmp_path):
    out = tmp_path / "square.oa"
    run_cli("oa", "--kind", "square", "--q", "3", "-o", str(out))
    # C(3, 2) column sets x 9 rows = 27 tuples
    over = run_cli("verify", "--claim", "oa", "--max-words", "10", str(out))
    assert over.returncode == 2
    assert "27 column-set tuples exceed the ceiling 10" in over.stderr
    assert run_cli("verify", "--claim", "oa", "--max-words", "27", str(out)).returncode == 0


def test_oa_sum_kind():
    result = run_cli("oa", "--kind", "sum", "--t", "3", "--k", "4")
    assert result.returncode == 0
    # t columns of strength t-1: the last column is the negated sum
    assert result.stdout.splitlines()[0] == "OA 2 3 4"


def test_oa_missing_parameter_exits_2():
    result = run_cli("oa", "--kind", "square")
    assert result.returncode == 2
    assert "needs --q" in result.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "--family", "ms1", "--k", "3"], "ms1 needs --alphabet and --k"),
        (["construct", "--family", "oa-gdd", "--k", "4"], "oa-gdd needs --k and --r"),
        (["construct", "--family", "base"], "base needs --k"),
        (["construct", "--family", "affine"], "affine needs --q"),
        (["construct", "--family", "hybrid", "--i", "2"], "hybrid needs --k"),
        (["oa", "--kind", "square"], "square needs --q"),
        (["oa", "--kind", "extended", "--k", "3"], "extended needs --q"),
        (["oa", "--kind", "sum", "--t", "3"], "sum needs --t and --k"),
    ],
)
def test_each_missing_argument_message_is_exact(capsys, argv, message):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _verify_out(capsys, *argv):
    code = cli.main(["verify", *argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("strength, code", [("2", 0), ("3", 1)])
def test_strength_is_a_second_spelling_of_t(tmp_path, capsys, strength, code):
    path = tmp_path / "square.oa"
    path.write_text(oa_to_text(oa_square(3)))
    spelled = _verify_out(capsys, "--claim", "oa", "--strength", strength, str(path))
    assert spelled[0] == code
    assert spelled == _verify_out(capsys, "--claim", "oa", "--t", strength, str(path))


def test_the_last_of_t_and_strength_wins(tmp_path, capsys):
    path = tmp_path / "square.oa"
    path.write_text(oa_to_text(oa_square(3)))
    assert _verify_out(capsys, "--claim", "oa", "--t", "3", "--strength", "2", str(path))[0] == 0
    assert _verify_out(capsys, "--claim", "oa", "--strength", "2", "--t", "3", str(path))[0] == 1


def test_strength_sets_t_on_a_design_claim(tmp_path, capsys):
    path = tmp_path / "design.json"
    assert cli.main(["construct", "--family", "hybrid", "--k", "3", "--i", "4", "-o", str(path)]) == 0
    capsys.readouterr()
    spelled = _verify_out(capsys, "--claim", "gdd", "--strength", "1", str(path))
    assert spelled[0] == 1 and json.loads(spelled[1])["stats"]["t"] == 1
    assert spelled == _verify_out(capsys, "--claim", "gdd", "--t", "1", str(path))


def test_verify_help_lists_strength_as_t(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--t T, --strength T" in capsys.readouterr().out


def test_catalog_lists_all_records_all_blocked():
    result = run_cli("catalog")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 81
    assert all("ms-counterpart: blocked" in line for line in lines)
    assert any("GDD(4,5,34) type 2^10 14^1 [exists]" in line for line in lines)


# sha256 of the default catalog's 81 lines
CATALOG_DIGEST = "96236d009978ef00cd77676b672abb1681385bc2280ee4a16c99ddb4c64f1ef2"


def test_catalog_default_output_is_pinned(tmp_path):
    out = tmp_path / "catalog.txt"
    printed = run_cli("catalog")
    written = run_cli("catalog", "-o", str(out))
    assert printed.returncode == written.returncode == 0
    for text in (printed.stdout, out.read_text()):
        assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DIGEST


@pytest.mark.parametrize("ceiling, code", [("80", 2), ("81", 0)])
def test_catalog_records_are_held_to_the_ceiling(ceiling, code):
    result = run_cli("catalog", env=dict(os.environ, DESIGN_FORGE_MAX_WORDS=ceiling))
    assert result.returncode == code
    if code:
        assert (result.stdout, result.stderr) == (
            "", "error: 81 catalog records exceed the ceiling 80\n"
        )
    else:
        assert len(result.stdout.splitlines()) == 81


def test_catalog_refuses_a_number_too_long_to_print_before_it_writes(tmp_path):
    # 57177 records pass the ceiling, but the last one's point count,
    # 36(10*2^14277 - 3), has more digits than an int may print by default
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="4300")
    out = tmp_path / "cat.txt"
    for extra in ([], ["-o", str(out)]):
        result = run_cli("catalog", "--ell-max", "14277", *extra, env=env)
        assert result.returncode == 2
        assert (result.stdout, result.stderr) == ("", (
            "error: the point count 9h(10*2^ell - 3) at h = 4, ell = 14277 exceeds the "
            "limit (4300 digits) for integer string conversion\n"
        ))
    assert not out.exists()


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


# ---------------------------------------------- the collector around a command


@pytest.mark.parametrize("caller_enabled", [True, False])
@pytest.mark.parametrize(
    "case, want", [("ok", 0), ("fails", 1), ("missing", 2), ("usage", SystemExit), ("crash", 3)]
)
def test_main_restores_the_callers_collector_state(
    tmp_path, monkeypatch, capsys, caller_enabled, case, want
):
    design = tmp_path / "design.json"
    built = ["construct", "--family", "hybrid", "--k", "3", "--i", "4", "-o", str(design)]
    if case == "fails":
        assert cli.main(built) == 0
        data = json.loads(design.read_text())
        del data["blocks"][0]
        design.write_text(json.dumps(data))
    argv = {
        "ok": built,
        "fails": ["verify", "--claim", "ms", str(design)],
        "missing": ["verify", "--claim", "ms", str(tmp_path / "missing.json")],
        "usage": ["construct"],
        "crash": ["catalog"],
    }[case]
    during = []

    def crash(args):
        during.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_catalog", crash)
    before = gc.isenabled()
    (gc.enable if caller_enabled else gc.disable)()
    try:
        if want is SystemExit:
            with pytest.raises(SystemExit):
                cli.main(argv)
        else:
            assert cli.main(argv) == want
        after = gc.isenabled()
    finally:
        (gc.enable if before else gc.disable)()
    assert after is caller_enabled
    if case == "crash":
        assert during == [False]
        assert "unexpected error: boom" in capsys.readouterr().err


def test_a_command_leaves_no_cycles_that_grow_with_its_blocks(tmp_path, capsys):
    # hybrid k = 5 has 745 blocks and k = 8 has 4600.  The warm-up call
    # builds the process's one parser, so what the collector finds after
    # each later command is what that command left in cycles
    warm_up = ["construct", "--family", "hybrid", "--k", "3", "--i", "0", "-o", str(tmp_path / "k3.json")]
    assert cli.main(warm_up) == 0
    unreachable = {}
    for k in (5, 8):
        gc.collect()
        out = tmp_path / f"k{k}.json"
        assert cli.main(["construct", "--family", "hybrid", "--k", str(k), "--i", "0", "-o", str(out)]) == 0
        unreachable[k] = gc.collect()
    assert "4600 blocks" in capsys.readouterr().out
    assert unreachable[8] == unreachable[5] < 50


@pytest.mark.parametrize(
    "exc, line",
    [(RuntimeError("boom"), "unexpected error: boom"), (MemoryError(), "unexpected error: MemoryError")],
)
def test_an_unexpected_error_is_named_even_without_text(monkeypatch, capsys, exc, line):
    def crash(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_catalog", crash)
    assert cli.main(["catalog"]) == 3
    assert capsys.readouterr().err == line + "\n"


# ------------------------------------------------- one parser per process


def test_the_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_a_command_replaced_after_the_parser_is_built_is_the_one_that_runs(
    monkeypatch, capsys
):
    argv = ["catalog", "--g-max", "2", "--h-max", "1", "--ell-max", "1"]
    assert cli.main(argv) == 0
    original = capsys.readouterr().out
    ran = []
    monkeypatch.setattr(cli, "cmd_catalog", lambda args: ran.append(args.g_max) or 0)
    assert cli.main(argv) == 0
    assert ran == [2]
    assert capsys.readouterr().out == ""
    monkeypatch.undo()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == original


def test_an_option_left_out_takes_its_default_again(capsys):
    hybrid = ["construct", "--family", "hybrid", "--k", "3"]
    assert cli.main([*hybrid, "--i", "4"]) == 0
    capsys.readouterr()
    assert cli.main(hybrid) == 0
    again = capsys.readouterr()
    fresh = run_cli(*hybrid, "--i", "0")
    assert (again.out, again.err) == (fresh.stdout, fresh.stderr)


def test_verify_without_t_reads_the_files_t_after_an_override(tmp_path, capsys):
    design = tmp_path / "design.json"
    assert cli.main(["construct", "--family", "hybrid", "--k", "3", "--i", "4", "-o", str(design)]) == 0
    assert cli.main(["verify", "--claim", "ms", "--t", "1", str(design)]) == 1
    capsys.readouterr()
    assert cli.main(["verify", "--claim", "ms", str(design)]) == 0
    report = capsys.readouterr().out
    assert json.loads(report)["stats"]["t"] == 2
    assert report == run_cli("verify", "--claim", "ms", str(design)).stdout


def test_a_usage_error_leaves_the_next_call_unharmed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct"])
    assert exc.value.code == 2
    assert "required: --family" in capsys.readouterr().err
    assert cli.main(["construct", "--family", "ms1", "--alphabet", "2,2,2,2,3", "--k", "3"]) == 0
    assert capsys.readouterr().err.startswith("t=1 k=3 ")


def _readme_tour() -> list[tuple[str, int, str | None]]:
    """The commands of README's command-line tour: each with the exit code
    its comments name (0 if none) and the text of its '# ->' lines, joined,
    without the exit code, and with '...' standing for any text."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command-line tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("design-forge "):
            command, _, comment = line.partition("#")
            commands.append([command.strip(), comment, None])
        elif line.startswith("# -> "):
            commands[-1][2] = line[len("# -> "):]
        elif line.startswith("#    ") and commands and commands[-1][2] is not None:
            commands[-1][2] += " " + line[len("#    "):]
    tour = []
    for command, comment, shown in commands:
        code = re.search(r"\bexit (\d)", comment + (shown or ""))
        if shown is not None:
            shown = re.sub(r"; exit \d$", "", shown)
        tour.append((command, int(code[1]) if code else 0, shown))
    return tour


def test_the_readme_command_line_tour_holds(tmp_path):
    # each command in order, in one directory, as the tour runs them
    (tmp_path / "toy_large_set.json").write_text(largeset_to_json(build_toy_large_set()))
    src = str(Path(design_forge.__file__).parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "DESIGN_FORGE_MAX_WORDS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    tour = _readme_tour()
    assert len(tour) == 18
    assert sum(shown is not None for _, _, shown in tour) == 4
    for command, code, shown in tour:
        result = run_cli(*shlex.split(command)[1:], env=env, cwd=tmp_path)
        assert result.returncode == code, (command, result.stderr)
        if shown is not None:
            pattern = ".*".join(map(re.escape, shown.split("...")))
            lines = (result.stdout + result.stderr).splitlines()
            assert any(re.fullmatch(pattern, line) for line in lines), (command, shown, lines)
