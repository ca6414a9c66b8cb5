"""Tests for the command-line surface: output formats and exit codes.

Each check has one home.  The golden grid at the end pins the exact exit
status, stdout and stderr of every argv it lists on unpatched code, and that
each JSON output is canonical; TestDefects pins them under planted failures.
The other tests check what no output shows: call counts, work and memory
refused past a limit, fresh processes, closed or full streams, fuzzed argv,
and that one call leaves nothing to the next; and the one output whose
message Python words by version, the int-to-str digit limit.  All run
through one in-process runner, run_in_process.
"""

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


def run_in_process(argv) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of main(argv), argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# How often a command calls into the pipeline.

class TestInvariants:
    def test_products_taken_once_per_word(self, monkeypatch):
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
        code, out, _ = run_in_process(["invariants", "1 2 -1 2^3",
                                       "--delta-power", "2", "--format", "json"])
        assert code == 0 and json.loads(out)["eps"] == 10
        assert calls == {"burau": 2, "phi": 3, "_burau_product": 1, "st_product": 1}


class TestM:
    def test_cell_is_solved_once(self, monkeypatch):
        calls = []
        solve = birman_menasco._family_solutions
        monkeypatch.setattr(birman_menasco, "_family_solutions",
                            lambda t, n: calls.append((t, n)) or solve(t, n))
        code, out, _ = run_in_process(["m", "20", "1"])
        assert code == 0 and out.startswith("t=20 n=1 m_prime=1 m=1\n")
        assert calls == [(20, 1)]


class TestLimits:
    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def refuse(t):
            raise AssertionError(f"enumerate_classes({t}) reached past the limit")

        monkeypatch.setattr(quadforms, "enumerate_classes", refuse)

    def test_huge_trace_exits_2_without_allocating(self, no_enumeration):
        tracemalloc.start()
        try:
            code, out, err = run_in_process(["h", str(10**12)])
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
    def test_trace_limit(self, no_enumeration, argv):
        code, out, err = run_in_process(argv)
        assert code == 2 and out == ""
        assert f"exceeds the limit {MAX_ABS_T}" in err

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
    def test_oversized_word_exits_2_without_allocating(self, no_burau,
                                                       argv, message):
        tracemalloc.start()
        try:
            code, out, err = run_in_process(("invariants", *argv))
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
    def test_word_limits_are_inclusive(self, argv):
        code, out, _ = run_in_process(("invariants", *argv))
        assert code == 0 and out.startswith("word = ")

    def test_verify_range_limit(self, no_enumeration):
        code, out, err = run_in_process(["verify", "--tmin", str(-MAX_ABS_T),
                                         "--tmax", str(MAX_ABS_T)])
        assert code == 2 and out == ""
        assert f"exceeds the limit {MAX_VERIFY_ABS_T_SUM}" in err

    def test_verify_range_limit_is_inclusive(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(t, n):
            raise Reached

        monkeypatch.setattr(counts, "check_main_identity", reached)
        # The stand-in's exception is a defect to main, named by its type.
        # sum(range(3, 2449)) = 2997573 is within the limit; adding 2449 is not.
        reached_line = (1, "", "error: Reached\n")
        assert run_in_process(["verify", "--tmin", "3", "--tmax", "2448"]) == reached_line
        # sum(range(7813, 8188)) is the limit itself.
        assert run_in_process(["verify", "--tmin", "7813", "--tmax", "8187"]) == reached_line
        code, _, err = run_in_process(["verify", "--tmin", "-2449", "--tmax", "-3"])
        assert code == 2 and "= 3000022 exceeds the limit" in err

    def test_digit_limit_is_bad_input(self):
        # Text prints n, within Python's int-to-str limit of 4300 digits; the JSON and
        # CSV rows print n + 1, one digit past it.  The limit's wording varies by version.
        argv = ("verify", "--tmin", "3", "--tmax", "3", "--n", "9" * 4300, "--format")
        (code, out, err), *refused = [run_in_process((*argv, f)) for f in ("text", "json", "csv")]
        assert (code, out.splitlines()[-1], err) == (0, "all pass", "")
        for code, out, err in refused:
            assert (code, out, err.count("\n")) == (2, "", 1) and err.startswith("error: ")

    def test_census_length_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(counts, "braid_census", lambda t, n, max_len: 0)
        code, out, _ = run_in_process(["census", "3", "0", "--max-len", str(MAX_CENSUS_LEN)])
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


MALFORMED = ("", "x", "1.5", "1e3", "0x10", "--", "-", "3 4", "+", "-t")


def cheap_ints(low: int, high: int, past: tuple[int, ...]):
    """Small valid integers, values just past a limit, or malformed text."""
    return st.one_of(st.integers(low, high).map(str),
                     st.sampled_from([str(v) for v in past]),
                     st.sampled_from(MALFORMED))


FUZZ_T = cheap_ints(-9, 9, (MAX_ABS_T + 1, -MAX_ABS_T - 1, MAX_ABS_T + 2, 10**40))
FUZZ_N = cheap_ints(-30, 30, (10**40, -10**40, 10**4300 - 1))
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
    st.tuples(st.just("verify"), st.just("--tmin"), FUZZ_T, st.just("--tmax"), FUZZ_T,
              st.just("--n"), FUZZ_N),
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
# Row n + 1 has 4301 digits, past Python's int-to-str limit: bad input, not a defect.
@example(["verify", "--tmin", "3", "--tmax", "3", "--n", "9" * 4300, "--format", "csv"])
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


class TestLinkCountFailure:
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


def _minus_c_slip(f, t):
    return sl2z.Mat2Z((t - f[1]) // 2, f[0], f[2], (t + f[1]) // 2)  # c, not -c


def _excess(m):
    return lambda t, n: m


_listed = quadforms.enumerate_classes


def _first_class_twice(t):
    return _listed(t)[:1] + _listed(t)


#: The cells (n, x_count = p) of verify --tmin 5 --tmax 5 with the first class of t = 5
#: listed twice: 1 at the residues of its two classes, n = -26 and -22, and 0 elsewhere.
_TWICE = list(zip(range(-26, -14), [1, 0, 0, 0, 1] + [0] * 7))
_TWICE_CSV = "t,n,x_count,m,p,h_lhs,window_rhs,pass\n" + "".join(
    f"5,{n},{x},0,{x},3,2,false\n" for n, x in _TWICE)
_TWICE_JSON = json.dumps({
    "schema": "bqf-braid/1", "command": "verify", "tmin": 5, "tmax": 5, "skipped_t": [],
    "pass": False, "results": [{"t": 5, "n": -26, "h_lhs": 3, "window_rhs": 2, "rows": [
        {"t": 5, "n": n, "x_count": x, "m": 0, "p": x} for n, x in _TWICE], "pass": False}],
}, indent=2) + "\n"


class TestDefects:
    #: argv -> ((owner, name, stand-in) of a planted defect that a check of the program
    #: catches, and the one stderr line of its exit 1).
    ERROR_ROWS = {
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
        # A matrix of determinant -1: a ValueError, but not bad input.
        "classes 5 --format csv": ((quadforms, "_matrix", _minus_c_slip),
                                   "error: determinant is not 1: [[1, -3], [1, 4]]\n"),
        # Neither an InputError nor a message: the line names the exception's type.
        "invariants '1 2'": ((HalfLaurent, "exact_div", _not_divisible),
                             "error: NonDivisibleError\n"),
    }

    #: argv -> ((owner, name, stand-in) of the planted failure, exact (status, stdout, stderr)).
    ROWS = {
        # (-9, 6, 10) lies in t = 20's orbit of four classes and is not its least: a lost
        # mirror class fails its cell, and verify reports it without a traceback.
        "verify --tmin 20 --tmax 20": (
            (quadforms, "enumerate_classes",
             lambda t: tuple(key for key in _listed(t) if key.rep != (-9, 6, 10))),
            (1, "t=20 n=-41 h=9 window=10 FAIL\nFAILURES PRESENT\n", "")),
        # One class listed twice counts twice in h but once in the residue
        # tally, so the identity itself fails: h = 3 against a window of 2.
        "verify --tmin 5 --tmax 5": ((quadforms, "enumerate_classes", _first_class_twice),
                                     (1, "t=5 n=-26 h=3 window=2 FAIL\nFAILURES PRESENT\n", "")),
        "verify --tmin 5 --tmax 5 --format csv": (
            (quadforms, "enumerate_classes", _first_class_twice), (1, _TWICE_CSV, "")),
        "verify --tmin 5 --tmax 5 --format json": (
            (quadforms, "enumerate_classes", _first_class_twice), (1, _TWICE_JSON, "")),
        # With more corrections than classes p goes negative, which every format
        # reports as exit 2 with one stderr line; t = 3 has one class, so m = 1 passes.
        "counts 3 0": ((birman_menasco, "class_excess", _excess(5)),
                       (2, "", "error: cell (t=3, n=0): correction m=5 exceeds class count 1\n")),
        "counts 3 0 --format json": ((birman_menasco, "class_excess", _excess(2)),
                                     (2, "", "error: cell (t=3, n=0): correction m=2 exceeds "
                                      "class count 1\n")),
        "counts 3 0 --format csv": ((birman_menasco, "class_excess", _excess(5)),
                                    (2, "", "error: cell (t=3, n=0): correction m=5 exceeds "
                                     "class count 1\n")),
        "counts 3 0 --format text": ((birman_menasco, "class_excess", _excess(1)),
                                     (0, "t=3 n=0 x_count=1 m=1 p=0\n", "")),
        "verify --tmin 3 --tmax 3": ((birman_menasco, "class_excess", _excess(5)),
                                     (2, "", "error: cell (t=3, n=-24): correction m=5 exceeds "
                                      "class count 1\n")),
    }

    @staticmethod
    def planted_run(monkeypatch, args, patch) -> tuple[int, str, str]:
        # Past both caches, so that no class list enters or leaves the planted run.
        monkeypatch.setattr(quadforms, "enumerate_classes", quadforms.enumerate_classes.__wrapped__)
        monkeypatch.setattr(counts, "trace_classes", counts.trace_classes.__wrapped__)
        monkeypatch.setattr(*patch)
        return run_in_process(shlex.split(args))

    @pytest.mark.parametrize("args", ERROR_ROWS)
    def test_exits_1_with_one_error_line(self, monkeypatch, args):
        patch, line = self.ERROR_ROWS[args]
        assert self.planted_run(monkeypatch, args, patch) == (1, "", line)

    @pytest.mark.parametrize("args", ROWS)
    def test_planted_failure(self, monkeypatch, args):
        patch, expected = self.ROWS[args]
        assert self.planted_run(monkeypatch, args, patch) == expected


class TestMainCalls:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_do_not_leak_into_each_other(self):
        argv = ("verify", "--tmin", "3", "--tmax", "4")
        _, out, _ = run_in_process([*argv, "--n", "0", "--format", "json"])
        assert [r["n"] for r in json.loads(out)["results"]] == [0, 0]
        _, out, _ = run_in_process(argv)
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

    @pytest.fixture
    def out_fd(self, tmp_path):
        fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
        yield fd
        os.close(fd)

    def failing_stdout_main(self, fd, argv, stderr) -> int:
        """main(argv) with stderr, and a stdout on fd whose writes fail with ENOSPC.

        After a failed write stdout must point at devnull, so that the flush
        at interpreter exit cannot raise again.
        """
        buffer = types.SimpleNamespace(write=self.failing(errno.ENOSPC))
        stdout = types.SimpleNamespace(buffer=buffer, encoding="utf-8", errors="strict",
                                       flush=lambda: None, fileno=lambda: fd)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main(argv)
        if status == 1:
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        return status

    def test_failed_write_exits_1_with_one_error_line(self, out_fd):
        # As on a full disk.
        err = io.StringIO()
        assert self.failing_stdout_main(out_fd, ["h", "5"], err) == 1
        assert err.getvalue() == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"

    def test_devnull_redirects_leave_no_fd_open(self, out_fd):
        # A failed stdout write, and a failed stderr write after bad input, each
        # point their stream at devnull; the fd opened for that is closed again.
        def lowest_free_fd():
            fd = os.open(os.devnull, os.O_RDONLY)
            os.close(fd)
            return fd

        before, full = lowest_free_fd(), types.SimpleNamespace(write=self.failing(errno.ENOSPC))
        for _ in range(50):
            assert self.failing_stdout_main(out_fd, ["h", "5"], io.StringIO()) == 1
            assert self.failing_stdout_main(out_fd, ["h", "2"], full) == 2
        assert lowest_free_fd() == before

    @pytest.mark.parametrize("code", [None, errno.EBADF, errno.ENOSPC])
    @pytest.mark.parametrize("argv, status", [(["h", "2"], 2), (["h", "5"], 1),
                                              (["verify", "--tmin", "2", "--tmax", "2"], 2)])
    def test_closed_or_full_stderr_keeps_the_status(self, out_fd, argv, status, code):
        # stderr missing (None, as when fd 2 is closed at start), closed
        # (EBADF) or full (ENOSPC): bad input still exits 2 and a failed
        # stdout write 1.  No exception escapes main, and nothing is written
        # to stdout, whose fake has no write method.
        stderr = None if code is None else types.SimpleNamespace(write=self.failing(code))
        assert self.failing_stdout_main(out_fd, argv, stderr) == status


# --- golden outputs ---------------------------------------------------------
#
# The one home of "argv -> exact exit status, stdout and stderr" on unpatched
# code: cli_golden.json maps each argv of golden_argvs() to a digest of the
# three.  To check another output, add its argv here.  Regenerate the file,
# only when an output change is intended, with:
#     PYTHONPATH=src python tests/test_cli.py
# which prints each argv it adds, removes, or gives a new digest.

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
    cases += [("counts", "3", "5"), ("m", "-2", "-1")]
    # Cells with family witnesses: iii at k = 0 and k = 1, several per cell, and iv.
    for t, n in ((20, 1), (-20, 7), (99999, 204), (99999, 324), (-100000, 563)):
        cases.append(("m", str(t), str(n)))
    for t, n in ((3, 0), (-5, 1), (0, -4), (7, 4), (2, 0)):
        cases += [("census", str(t), str(n), "--max-len", str(length))
                  for length in (1, 3, 6)]
    cases.append(("census", "3", "0", "--max-len", "4"))
    for word in ("", "1 2", "1 -2", "1^3 2", "-1^2 2^-3 1", "2 1 2 1 2 1",
                 "1 3", "1^"):
        cases += [("invariants", word), ("invariants", word, "--delta-power", "2"),
                  ("invariants", word, "--delta-power", "-2")]
    # Long syllables: the running sums and the trims of long Burau entries.
    cases += [("invariants", "1^333 2^333 -1^334"), ("invariants", "-2^333 1^333 2^334"),
              ("invariants", "1^40 -2^40 -1^40 2^40", "--delta-power", "-3"),
              ("invariants", "1 2 1", "--delta-power", "-1"), ("invariants", "1^2 -2"),
              ("invariants", "-1^3"), ("invariants", "-1^3", "--delta-power", "2")]
    for tmin, tmax, window in ((-3, 3, ()), (-7, -4, ()), (2, 2, ()), (5, 3, ()),
                               (1, 4, ("--n", "0")), (-4, -1, ("--n", "-4")),
                               (3, 8, ()), (2, 3, ()), (-2, -2, ()), (-5, -3, ()),
                               (3, 3, ()), (3, 4, ()), (3, 4, ("--n", "0"))):
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
    # A one-token word that starts with '-' also parses after '--', the format before it.
    return [case + fmt for case in cases for fmt in FORMATS] + \
        [("invariants", *fmt, "--", "-1^3") for fmt in FORMATS]


def digest(result: tuple[int, str, str]) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()[:16]


def canonical_json(argv: tuple[str, ...], out: str) -> bool:
    """out re-serializes byte for byte and names the schema and argv's command."""
    payload = json.loads(out)
    return (json.dumps(payload, indent=2) + "\n" == out
            and payload["schema"] == "bqf-braid/1" and payload["command"] == argv[0])


def test_golden_outputs():
    golden = json.loads(GOLDEN.read_text())
    argvs = golden_argvs()
    assert sorted(golden) == sorted(shlex.join(argv) for argv in argvs)
    assert all(golden[shlex.join(("invariants", "-1^3", *fmt))]
               == golden[shlex.join(("invariants", *fmt, "--", "-1^3"))] for fmt in FORMATS)
    changed, not_canonical = [], []
    for argv in argvs:
        result = run_in_process(argv)
        if digest(result) != golden[shlex.join(argv)]:
            changed.append(shlex.join(argv))
        if ("--format", "json") in zip(argv, argv[1:]) and result[1] \
                and not canonical_json(argv, result[1]):
            not_canonical.append(shlex.join(argv))
    assert (changed, not_canonical) == ([], [])


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text())
    new = {shlex.join(argv): digest(run_in_process(argv)) for argv in golden_argvs()}
    for label, keys in (("added", new.keys() - old), ("removed", old.keys() - new),
                        ("changed", {key for key in new.keys() & old if new[key] != old[key]})):
        for key in sorted(keys):
            print(f"{label}: {key}")
    GOLDEN.write_text(json.dumps(new, indent=0) + "\n")
