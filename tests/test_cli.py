"""Tests for the command-line surface: output formats and exit codes."""

import contextlib
import errno
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidforms import birman_menasco, braid3, counts, quadforms, sl2z
from braidforms.cli import (MAX_ABS_T, MAX_CENSUS_LEN, MAX_VERIFY_ABS_T_SUM,
                            MAX_WORD_COST, MAX_WORD_LETTERS, build_parser, main)
from braidforms.laurent import HalfLaurent, NonDivisibleError
import cli_contract
from oracles import SRC


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestH:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "h", "3")
        assert code == 0 and out == "1\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "h", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"schema": "bqf-braid/1", "command": "h", "t": 0, "h": 2}

    def test_excluded_trace(self, capsys):
        code, _, err = run(capsys, "h", "2")
        assert code == 2
        assert "excluded" in err

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "h", "5", "--format", "csv")
        assert code == 0 and out == "t,h\n5,2\n"


class TestForms:
    def test_indefinite_listing(self, capsys):
        code, out, _ = run(capsys, "forms", "3")
        assert code == 0
        assert out.splitlines() == ["-1 1 1", "1 1 -1"]

    def test_definite_both_signs(self, capsys):
        code, out, _ = run(capsys, "forms", "0", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["discriminant"] == -4
        assert payload["forms"] == [[-1, 0, -1], [1, 0, 1]]


class TestClasses:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "classes", "3", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["h"] == 1
        (cls,) = payload["classes"]
        assert cls["repr"] == [-1, 1, 1]
        assert cls["discriminant"] == 5
        assert cls["cycle"] == [[-1, 1, 1], [1, 1, -1]]
        assert cls["exponent_mod12"] == 0

    def test_definite_has_no_cycle(self, capsys):
        _, out, _ = run(capsys, "classes", "0", "--format", "json")
        for cls in json.loads(out)["classes"]:
            assert "cycle" not in cls


class TestInvariants:
    def test_unknot_word(self, capsys):
        code, out, _ = run(capsys, "invariants", "1 2")
        assert code == 0
        assert "eps = 2" in out
        assert "trace = 1" in out
        assert "alexander = 1" in out
        assert "jones = 1" in out
        assert "special_value = 1" in out

    def test_empty_word(self, capsys):
        code, out, _ = run(capsys, "invariants", "")
        assert code == 0
        assert "eps = 0" in out
        assert "trace = 2" in out
        assert "special_value = 0" in out

    def test_mixed_sign_unknot_word(self, capsys):
        code, out, _ = run(capsys, "invariants", "1 -2")
        assert code == 0
        assert "eps = 0" in out
        assert "trace = 3" in out
        assert "special_value = 1" in out

    def test_trefoil_json(self, capsys):
        code, out, _ = run(capsys, "invariants", "1^3 2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["eps"] == 4
        assert payload["alexander"] == "1*q^-1 + -1 + 1*q^1"
        assert payload["jones"] == "1*q^1 + 1*q^3 + -1*q^4"
        assert payload["special_value"] == {"re": -3, "im": 0}

    def test_delta_power_flag(self, capsys):
        _, out, _ = run(capsys, "invariants", "1 2", "--delta-power", "2")
        assert "eps = 8" in out
        code, out, _ = run(capsys, "invariants", "1 2 1", "--delta-power", "-1")
        assert code == 0
        assert "eps = 0" in out and "trace = 2" in out

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "invariants", "1 3")
        assert code == 2
        assert "out of range" in err and "position 2" in err

    def test_products_taken_once_per_word(self, capsys, monkeypatch):
        # The public burau and phi are called 2 and 3 times per word; the
        # products behind them run once, on the word's first call.
        calls = {}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("burau", "phi", "_burau_product"):
            counted(braid3, name)
        counted(sl2z, "st_product")
        code, out, _ = run(capsys, "invariants", "1 2 -1 2^3",
                           "--delta-power", "2", "--format", "json")
        assert code == 0 and json.loads(out)["eps"] == 10
        assert calls == {"burau": 2, "phi": 3, "_burau_product": 1, "st_product": 1}


class TestCounts:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "counts", "3", "0")
        assert code == 0
        assert out.strip() == "t=3 n=0 x_count=1 m=1 p=0"

    def test_residue_mismatch_cell(self, capsys):
        code, out, _ = run(capsys, "counts", "3", "5")
        assert code == 0
        assert out.strip() == "t=3 n=5 x_count=0 m=0 p=0"

    def test_excluded_trace(self, capsys):
        code, _, err = run(capsys, "counts", "2", "0")
        assert code == 2 and "excluded" in err

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "counts", "3", "0", "--format", "csv")
        assert out == "t,n,x_count,m,p\n3,0,1,1,0\n"


class TestM:
    def test_json_wire_names(self, capsys):
        code, out, _ = run(capsys, "m", "20", "1", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["m_prime"] == 1 and payload["m"] == 1
        (witness,) = payload["witnesses"]
        assert witness["family"] == "family-iii"
        assert len(witness["words"]) == 2

    def test_unknot_cell(self, capsys):
        _, out, _ = run(capsys, "m", "3", "0", "--format", "json")
        payload = json.loads(out)
        assert payload["m_prime"] == 0 and payload["m"] == 1
        assert payload["witnesses"][0]["words"] == ["1 -2"]

    @pytest.mark.parametrize("argv", [("2", "1"), ("-2", "-1")])
    def test_excluded_trace(self, capsys, argv):
        code, out, err = run(capsys, "m", *argv)
        assert code == 2 and out == ""
        assert "excluded" in err

    def test_cell_is_solved_once(self, capsys, monkeypatch):
        calls = []
        solve = birman_menasco._family_solutions
        monkeypatch.setattr(birman_menasco, "_family_solutions",
                            lambda t, n: calls.append((t, n)) or solve(t, n))
        code, out, _ = run(capsys, "m", "20", "1")
        assert code == 0 and out.startswith("t=20 n=1 m_prime=1 m=1\n")
        assert calls == [(20, 1)]


class TestCensus:
    def test_small_cell(self, capsys):
        code, out, _ = run(capsys, "census", "3", "0", "--max-len", "4")
        assert code == 0
        assert "census=1" in out and "x_count=1" in out and "gap=0" in out


class TestVerify:
    def test_small_range_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--tmin", "3", "--tmax", "8")
        assert code == 0
        assert "all pass" in out

    def test_skips_excluded(self, capsys):
        code, out, _ = run(capsys, "verify", "--tmin", "2", "--tmax", "3")
        assert code == 0
        assert out.startswith("t=2: skipped") and "all pass" in out

    @pytest.mark.parametrize("t", ["2", "-2"])
    def test_only_excluded_exits_2(self, capsys, t):
        code, out, err = run(capsys, "verify", "--tmin", t, "--tmax", t)
        assert code == 2 and out == ""
        assert err == "error: no t in the range is checked (t = +-2 is excluded)\n"

    def test_negative_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--tmin", "-5", "--tmax", "-3")
        assert code == 0 and "all pass" in out

    def test_empty_range(self, capsys):
        code, _, err = run(capsys, "verify", "--tmin", "5", "--tmax", "3")
        assert code == 2 and "empty" in err

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "verify", "--tmin", "3", "--tmax", "3",
                           "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "t,n,x_count,m,p,h_lhs,window_rhs,pass"
        assert len(lines) == 13
        assert all(line.endswith(",1,1,true") for line in lines[1:])

    def test_explicit_window_start(self, capsys):
        code, out, _ = run(capsys, "verify", "--tmin", "3", "--tmax", "4",
                           "--n", "0", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["pass"] is True
        assert [r["n"] for r in payload["results"]] == [0, 0]

    def test_lost_mirror_class_fails_without_traceback(self, capsys, monkeypatch):
        # (-9, 6, 10) lies in t = 20's orbit of four classes and is not its least.
        listed = quadforms.enumerate_classes
        monkeypatch.setattr(quadforms, "enumerate_classes",
                            lambda t: tuple(key for key in listed(t) if key.rep != (-9, 6, 10)))
        code, out, err = run(capsys, "verify", "--tmin", "20", "--tmax", "20")
        assert (code, err) == (1, "")
        assert out == "t=20 n=-41 h=9 window=10 FAIL\nFAILURES PRESENT\n"


class TestLimits:
    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def refuse(t):
            raise AssertionError(f"enumerate_classes({t}) reached past the limit")

        monkeypatch.setattr(quadforms, "enumerate_classes", refuse)

    def test_huge_trace_exits_2_without_allocating(self, capsys, no_enumeration):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "h", str(10**12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert "exceeds the limit" in err
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv", [
        ("h", str(-MAX_ABS_T - 1)),
        ("forms", str(MAX_ABS_T + 1)),
        ("classes", str(-MAX_ABS_T - 1)),
        ("counts", str(MAX_ABS_T + 1), "0"),
        ("m", str(MAX_ABS_T + 1), "0"),
        ("census", str(MAX_ABS_T + 1), "0", "--max-len", "2"),
        ("verify", "--tmin", "3", "--tmax", str(MAX_ABS_T + 1)),
        ("verify", "--tmin", str(-MAX_ABS_T - 1), "--tmax", "3"),
    ])
    def test_trace_limit(self, capsys, no_enumeration, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"exceeds the limit {MAX_ABS_T}" in err

    def test_trace_limit_is_inclusive(self, capsys):
        code, out, _ = run(capsys, "m", str(MAX_ABS_T), "0")
        assert code == 0 and out.startswith(f"t={MAX_ABS_T} ")

    @pytest.fixture
    def no_burau(self, monkeypatch):
        def refuse(w):
            raise AssertionError(f"burau of a {len(w)}-letter word reached past the limit")

        monkeypatch.setattr(braid3, "burau", refuse)

    @pytest.mark.parametrize("argv, message", [
        (("1^1000000000",), f"1000000000 letters, which exceeds the limit {MAX_WORD_LETTERS}"),
        (("1^-100001",), f"100001 letters, which exceeds the limit {MAX_WORD_LETTERS}"),
        (("", "--delta-power", "1000000000"), "3000000000 letters"),
        (("1", "--delta-power", "-1000000000"), "3000000001 letters"),
        ((" ".join(["1 2"] * 1001),), f"exceeds the limit {MAX_WORD_COST}"),
        (("", "--delta-power", "817"), f"= 4004934 exceeds the limit {MAX_WORD_COST}"),
    ])
    def test_oversized_word_exits_2_without_allocating(self, capsys, no_burau,
                                                       argv, message):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "invariants", *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert message in err
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv", [
        (f"2^{MAX_WORD_LETTERS}",),
        ("1^20000",),
        ("", "--delta-power", "816"),  # (0 + 2*816) syllables x 2448 letters
        (" ".join(["1 2"] * 1000),),  # 2000 syllables x 2000 letters
    ])
    def test_word_limits_are_inclusive(self, capsys, argv):
        code, out, _ = run(capsys, "invariants", *argv)
        assert code == 0 and out.startswith("word = ")

    def test_verify_range_limit(self, capsys, no_enumeration):
        code, out, err = run(capsys, "verify", "--tmin", str(-MAX_ABS_T),
                             "--tmax", str(MAX_ABS_T))
        assert code == 2 and out == ""
        assert f"exceeds the limit {MAX_VERIFY_ABS_T_SUM}" in err

    def test_verify_range_limit_is_inclusive(self, capsys, monkeypatch):
        class Reached(Exception):
            pass

        def reached(t, n):
            raise Reached

        monkeypatch.setattr(counts, "check_main_identity", reached)
        # The stand-in's exception is a defect to main, named by its type.
        # sum(range(3, 2449)) = 2997573 is within the limit; adding 2449 is not.
        assert run(capsys, "verify", "--tmin", "3", "--tmax", "2448") == (1, "", "error: Reached\n")
        # sum(range(7813, 8188)) is the limit itself.
        assert run(capsys, "verify", "--tmin", "7813", "--tmax", "8187") == (1, "", "error: Reached\n")
        code, _, err = run(capsys, "verify", "--tmin", "-2449", "--tmax", "-3")
        assert code == 2 and "= 3000022 exceeds the limit" in err

    def test_census_length_limit(self, capsys):
        code, out, err = run(capsys, "census", "3", "0", "--max-len", "40")
        assert code == 2 and out == ""
        assert "--max-len 40 exceeds the limit 16" in err

    def test_census_length_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(counts, "braid_census", lambda t, n, max_len: 0)
        code, out, _ = run(capsys, "census", "3", "0", "--max-len", str(MAX_CENSUS_LEN))
        assert code == 0 and out == "t=3 n=0 max_len=16 census=0 x_count=1 gap=1\n"

    def test_contract_limit_rows_sit_at_the_limits(self):
        # No limit moves without the row that times it in CI.
        census, classes, h, invariants, verify = (shlex.split(r.args)
                                                  for r in cli_contract.LIMIT_ROWS)
        assert census[:5] == ["census", str(MAX_ABS_T), "0", "--max-len", str(MAX_CENSUS_LEN)]
        assert classes[:2] == ["classes", str(-MAX_ABS_T)]
        assert h == ["h", str(-MAX_ABS_T)]
        assert verify[:5] == ["verify", "--tmin", "3", "--tmax", "2448"]
        assert sum(range(3, 2449)) <= MAX_VERIFY_ABS_T_SUM < sum(range(3, 2450))
        syllables = braid3.parse_syllables(invariants[1])
        letters = sum(count for _, count in syllables)
        assert (letters, len(syllables) * letters) == (MAX_WORD_LETTERS, MAX_WORD_COST)


def run_in_process(argv) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of main(argv), argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


MALFORMED = ("", "x", "1.5", "1e3", "0x10", "--", "-", "3 4", "+", "-t")


def cheap_ints(low: int, high: int, past: tuple[int, ...]):
    """Small valid integers, values just past a limit, or malformed text."""
    return st.one_of(st.integers(low, high).map(str),
                     st.sampled_from([str(v) for v in past]),
                     st.sampled_from(MALFORMED))


FUZZ_T = cheap_ints(-9, 9, (MAX_ABS_T + 1, -MAX_ABS_T - 1, MAX_ABS_T + 2, 10**40))
FUZZ_N = cheap_ints(-30, 30, (10**40, -10**40))
FUZZ_WORD = st.lists(st.sampled_from(["1", "-2", "2^3", "1^-2", "1^", "^2", "3", "0",
                                      "a", "1^x", f"1^{MAX_WORD_LETTERS + 1}"]),
                     max_size=5).map(" ".join)
FUZZ_ARGV = st.one_of(
    st.tuples(st.sampled_from(["h", "forms", "classes"]), FUZZ_T),
    st.tuples(st.sampled_from(["counts", "m"]), FUZZ_T, FUZZ_N),
    st.tuples(st.just("census"), FUZZ_T, FUZZ_N, st.just("--max-len"),
              cheap_ints(-1, 6, (MAX_CENSUS_LEN + 1, MAX_CENSUS_LEN + 2))),
    st.tuples(st.just("invariants"), FUZZ_WORD, st.just("--delta-power"),
              cheap_ints(-3, 3, (817, -817, 10**9))),
    st.tuples(st.just("verify"), st.just("--tmin"), FUZZ_T, st.just("--tmax"), FUZZ_T),
    # Ranges just past the sum limit, which are rejected before any work.
    st.tuples(st.just("verify"), st.just("--tmin"), st.sampled_from(["-2449", "3"]),
              st.just("--tmax"), st.sampled_from(["-3", "2449", str(MAX_ABS_T)])),
)


@st.composite
def fuzz_argvs(draw) -> list[str]:
    argv = list(draw(FUZZ_ARGV))
    argv = argv[:len(argv) - draw(st.integers(0, 1))]  # sometimes a value short
    return argv + draw(st.sampled_from([[], ["--format", "text"], ["--format", "json"],
                                        ["--format", "csv"], ["--format", "xml"]]))


@settings(max_examples=150, deadline=None)
@given(fuzz_argvs())
@example(["h", "-100000"])
@example(["classes", "-100000", "--format", "csv"])
@example(["census", "3", "0", "--max-len", str(MAX_CENSUS_LEN), "--format", "json"])
@example(["invariants", f"2^{MAX_WORD_LETTERS}"])
@example(["m", "100000", str(10**40)])
@example(["m", "-100000", str(-10**40)])
@example(["m", "-99999", "1388"])
def test_argv_fuzz_exits_cleanly(argv):
    # Every limit is checked before any work, so no run may take long: the
    # dearest examples above take about 0.5 s in process, and the bound is
    # 2 s.  In process, status 1 is a failing verify cell, which prints to
    # stdout, or a defect's error line, which fails the case; so stderr is
    # empty unless the input was rejected.
    start = perf_counter()
    code, out, err = run_in_process(argv)
    elapsed = perf_counter() - start
    assert elapsed <= 2.0, (argv, elapsed)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out + err, argv
    if code in (0, 1):
        assert err == "", argv
    if code == 2:
        assert "error:" in err, argv


class TestJsonRoundTrip:
    @pytest.mark.parametrize("argv", [
        ("h", "3"),
        ("forms", "5"),
        ("classes", "4"),
        ("invariants", "1^2 -2"),
        ("counts", "3", "0"),
        ("m", "20", "1"),
        ("census", "3", "0", "--max-len", "3"),
        ("verify", "--tmin", "3", "--tmax", "4"),
    ])
    def test_byte_identical_reserialization(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, indent=2) + "\n" == out
        assert payload["schema"] == "bqf-braid/1"


class TestVerifyFailure:
    @pytest.fixture(autouse=True)
    def failing_identity(self, monkeypatch):
        def failing(t, n):
            rows = tuple(counts.CountsRow(t, n + j, 0, 0, 0) for j in range(12))
            return counts.MainIdentityReport(t, n, 1, 0, rows, False)

        monkeypatch.setattr(counts, "check_main_identity", failing)

    def test_every_format_reports_the_failure(self, capsys):
        argv = ("verify", "--tmin", "3", "--tmax", "4")
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out.splitlines()[-1] == "FAILURES PRESENT"
        assert "t=3 n=-24 h=1 window=0 FAIL" in out
        code, out, _ = run(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert code == 1 and payload["pass"] is False
        assert [r["pass"] for r in payload["results"]] == [False, False]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        lines = out.splitlines()
        assert code == 1 and len(lines) == 25
        assert all(line.endswith(",1,0,false") for line in lines[1:])


class TestIdentityFailure:
    # One class listed twice counts twice in h but once in the residue
    # tally, so the identity itself fails: h = 3 against a window of 2.
    @pytest.fixture(autouse=True)
    def repeated_class(self, monkeypatch):
        enumerate_classes = quadforms.enumerate_classes
        monkeypatch.setattr(quadforms, "enumerate_classes",
                            lambda t: enumerate_classes(t)[:1] + enumerate_classes(t))

    def test_report(self):
        report = counts.check_main_identity(5, -26)
        assert (report.h, report.window_total, report.ok) == (3, 2, False)
        assert [row.m for row in report.rows] == [0] * 12

    def test_verify_exits_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--tmin", "5", "--tmax", "5")
        assert code == 1
        assert out.splitlines() == ["t=5 n=-26 h=3 window=2 FAIL", "FAILURES PRESENT"]
        code, out, _ = run(capsys, "verify", "--tmin", "5", "--tmax", "5", "--format", "json")
        assert code == 1 and json.loads(out)["pass"] is False


class TestLinkCountFailure:
    # With more corrections than classes p goes negative: verify's one real
    # failure, which every format reports as exit 2 with one stderr line.
    @pytest.fixture(autouse=True)
    def excess(self, monkeypatch):
        monkeypatch.setattr(birman_menasco, "class_excess", lambda t, n: 5)

    @pytest.mark.parametrize("argv, n", [
        (("counts", "3", "0"), 0),
        (("counts", "3", "0", "--format", "json"), 0),
        (("counts", "3", "0", "--format", "csv"), 0),
        (("verify", "--tmin", "3", "--tmax", "3"), -24),
    ])
    def test_exits_2_with_the_cell(self, capsys, argv, n):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: cell (t=3, n={n}): correction m=5 exceeds class count 1\n"

    def test_correction_equal_to_the_class_count_passes(self, capsys, monkeypatch):
        # counts 3 0 has one class: m = 1 leaves p = 0, m = 2 fails the cell.
        monkeypatch.setattr(birman_menasco, "class_excess", lambda t, n: 1)
        assert run(capsys, "counts", "3", "0") == (0, "t=3 n=0 x_count=1 m=1 p=0\n", "")
        monkeypatch.setattr(birman_menasco, "class_excess", lambda t, n: 2)
        assert run(capsys, "counts", "3", "0") == (
            2, "", "error: cell (t=3, n=0): correction m=2 exceeds class count 1\n")

    @pytest.mark.parametrize("args, n", [("counts 3 0", 0), ("verify --tmin 3 --tmax 3", -24)])
    def test_exits_2_when_the_command_first_loads_counts(self, args, n):
        # In a fresh interpreter counts is first imported by the handler:
        # a LinkCountError from a counts loaded there still exits 2.
        probe = ("import sys, braidforms.birman_menasco as bm, braidforms.cli as cli\n"
                 "bm.class_excess = lambda t, n: 5\n"
                 "assert 'braidforms.counts' not in sys.modules\n"
                 f"sys.exit(cli.main({shlex.split(args)!r}))")
        proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                              text=True, env=cli_contract.contract_env(SRC), timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: cell (t=3, n={n}): correction m=5 exceeds class count 1\n"


def _repeat(f, root):
    return itertools.repeat(f)


def _not_divisible(dividend, divisor):
    raise NonDivisibleError


class TestDefects:
    #: argv -> (owner, name, stand-in) of the planted defect, and the one stderr line.
    ROWS = {
        # The completeness certificate: a _cycle that drops its last member leaves root-table
        # forms unseen, so their orbits are walked again and overcount the forms.
        "h 20": ((quadforms, "_cycle", lambda g, root, cycle=quadforms._cycle: cycle(g, root)[:-1]),
                 "error: t=20: the class cycles hold 36 of 28 reduced forms\n"),
        # Cell (21, 1) handed the family-iii set of cell (20, 1): a witness outside its cell.
        "m 21 1": ((birman_menasco, "_family_solutions", lambda t, n: [("iii", (1, 2, 3, 0))]),
                   "error: family-iii word -1 2 -1^2 2^3 lies outside cell (21, 1)\n"),
        # A step that repeats its form: reduction never ends (the guard), and
        # the class cycles each hold one form (the even-length check).
        "census 3 0 --max-len 5": ((quadforms, "_steps", _repeat),
                                   "error: reduction did not terminate in 6 steps on a form "
                                   "of coefficient bit lengths (1, 2, 1)\n"),
        "h 5": ((quadforms, "_steps", _repeat),
                "error: t=5: the class cycle of (1, 3, -3) has odd length\n"),
        "classes 5": ((quadforms, "_steps", _repeat),
                      "error: t=5: the class cycle of (1, 3, -3) has odd length\n"),
        # Neither a ValueError nor a message: the line names the exception's type.
        "invariants '1 2'": ((HalfLaurent, "exact_div", _not_divisible),
                             "error: NonDivisibleError\n"),
    }

    @pytest.mark.parametrize("args", ROWS)
    def test_exits_1_with_one_error_line(self, capsys, monkeypatch, args):
        (owner, name, stand_in), line = self.ROWS[args]
        monkeypatch.setattr(owner, name, stand_in)
        # Past both caches, so that no class list enters or leaves the defective run.
        monkeypatch.setattr(quadforms, "enumerate_classes", quadforms.enumerate_classes.__wrapped__)
        monkeypatch.setattr(counts, "trace_classes", counts.trace_classes.__wrapped__)
        assert run(capsys, *shlex.split(args)) == (1, "", line)


class TestMainCalls:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_do_not_leak_into_each_other(self, capsys):
        argv = ("verify", "--tmin", "3", "--tmax", "4")
        _, out, _ = run(capsys, *argv, "--n", "0", "--format", "json")
        assert [r["n"] for r in json.loads(out)["results"]] == [0, 0]
        _, out, _ = run(capsys, *argv)
        assert out.splitlines() == ["t=3 n=-24 h=1 window=1 pass",
                                    "t=4 n=-25 h=2 window=2 pass", "all pass"]

    @pytest.mark.parametrize("row", cli_contract.STREAM_ROWS,
                             ids=lambda row: row.shell.format(row.args))
    def test_closed_stream_row(self, row):
        command = [sys.executable, "-m", "braidforms.cli"]
        assert cli_contract.run_row(command, row, cli_contract.contract_env(SRC))[0] is None

    @staticmethod
    def failing(code):
        """A write that raises OSError(code), as on a closed fd or a full disk."""
        def write(data):
            raise OSError(code, os.strerror(code))
        return write

    def failing_stdout_main(self, tmp_path, argv, stderr) -> int:
        """main(argv) with a stdout whose writes fail with ENOSPC, and stderr.

        After a failed write stdout must point at devnull, so that the flush
        at interpreter exit cannot raise again.
        """
        fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
        buffer = types.SimpleNamespace(write=self.failing(errno.ENOSPC))
        stdout = types.SimpleNamespace(buffer=buffer, encoding="utf-8", errors="strict",
                                       flush=lambda: None, fileno=lambda: fd)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = main(argv)
            if status == 1:
                assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        return status

    def test_failed_write_exits_1_with_one_error_line(self, tmp_path):
        # As on a full disk.
        err = io.StringIO()
        assert self.failing_stdout_main(tmp_path, ["h", "5"], err) == 1
        assert err.getvalue() == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.parametrize("code", [None, errno.EBADF, errno.ENOSPC])
    @pytest.mark.parametrize("argv, status", [(["h", "2"], 2), (["h", "5"], 1),
                                              (["verify", "--tmin", "2", "--tmax", "2"], 2)])
    def test_closed_or_full_stderr_keeps_the_status(self, tmp_path, argv, status, code):
        # stderr missing (None, as when fd 2 is closed at start), closed
        # (EBADF) or full (ENOSPC): bad input still exits 2 and a failed
        # stdout write 1.  No exception escapes main, and nothing is written
        # to stdout, whose fake has no write method.
        stderr = None if code is None else types.SimpleNamespace(write=self.failing(code))
        assert self.failing_stdout_main(tmp_path, argv, stderr) == status


# --- golden outputs ---------------------------------------------------------
#
# cli_golden.json maps each argv of golden_argvs() to a digest of its exit
# status, stdout and stderr.  Regenerate it, only when an output change is
# intended, with:  PYTHONPATH=src python tests/test_cli.py

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ((), ("--format", "json"), ("--format", "csv"))


def golden_argvs() -> list[tuple[str, ...]]:
    """Every subcommand in every format over small inputs and error paths."""
    cases: list[tuple[str, ...]] = []
    for t in range(-7, 8):
        cases += [(command, str(t)) for command in ("h", "forms", "classes")]
    for t in (-7, -3, 0, 1, 2, 3, 7):
        for n in sorted({-4, 0, 1, t - 3}):
            cases += [("counts", str(t), str(n)), ("m", str(t), str(n))]
    # Cells with family witnesses: iii at k = 0 and k = 1, several per cell, and iv.
    for t, n in ((20, 1), (-20, 7), (99999, 204), (99999, 324), (-100000, 563)):
        cases.append(("m", str(t), str(n)))
    for t, n in ((3, 0), (-5, 1), (0, -4), (7, 4), (2, 0)):
        cases += [("census", str(t), str(n), "--max-len", str(length))
                  for length in (1, 3, 6)]
    for word in ("", "1 2", "1 -2", "1^3 2", "-1^2 2^-3 1", "2 1 2 1 2 1",
                 "1 3", "1^"):
        cases += [("invariants", word), ("invariants", word, "--delta-power", "2"),
                  ("invariants", word, "--delta-power", "-2")]
    # Long syllables: the running sums and the trims of long Burau entries.
    cases += [("invariants", "1^333 2^333 -1^334"), ("invariants", "-2^333 1^333 2^334"),
              ("invariants", "1^40 -2^40 -1^40 2^40", "--delta-power", "-3")]
    for tmin, tmax, window in ((-3, 3, ()), (-7, -4, ()), (2, 2, ()), (5, 3, ()),
                               (1, 4, ("--n", "0")), (-4, -1, ("--n", "-4"))):
        cases.append(("verify", "--tmin", str(tmin), "--tmax", str(tmax), *window))
    big = str(MAX_ABS_T + 1)
    cases += [("h", big), ("forms", "-" + big), ("classes", big),
              ("counts", big, "0"), ("m", "-" + big, "0"),
              ("census", big, "0", "--max-len", "2"),
              ("census", "3", "0", "--max-len", "15"),
              ("census", "3", "0", "--max-len", "17"),
              ("verify", "--tmin", "3", "--tmax", big),
              ("verify", "--tmin", "-2449", "--tmax", "-3"),
              ("invariants", f"1^{MAX_WORD_LETTERS + 1}"),
              ("invariants", "", "--delta-power", "817"),
              ("invariants", " ".join(["1 2"] * 1001))]
    return [case + fmt for case in cases for fmt in FORMATS]


def golden_digest(argv: tuple[str, ...]) -> str:
    blob = json.dumps(run_in_process(argv))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_golden_outputs():
    golden = json.loads(GOLDEN.read_text())
    argvs = golden_argvs()
    assert sorted(golden) == sorted(shlex.join(argv) for argv in argvs)
    changed = [shlex.join(argv) for argv in argvs
               if golden_digest(argv) != golden[shlex.join(argv)]]
    assert changed == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({shlex.join(argv): golden_digest(argv)
                                  for argv in golden_argvs()}, indent=0) + "\n")
