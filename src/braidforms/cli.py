"""Command-line surface for every pipeline in the package.

Subcommands: h, forms, classes, invariants, counts, m, census, verify.
Each returns one Record, which main renders as text, JSON or CSV; every JSON document carries
the top-level key "schema": "bqf-braid/1".  Exit status, the same with stderr closed or full, is 0
on success; 1 if a verification cell fails, stdout is missing or closed early (`>&-`, `| head`)
or a write fails.  A command's exception ends the run with one error line: an InputError is bad
input (a limit, BraidParseError, LinkCountError) and exits 2, any other exception a defect and
exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from functools import cache

from . import _value

SCHEMA = "bqf-braid/1"

#: Largest |t| any subcommand accepts.  Form enumeration takes time and
#: memory near linear in |t|; at this bound `h -100000` takes about 0.17 s
#: and 24 MB as a CLI run, and `classes -100000` about 0.4 s and 48 MB.
MAX_ABS_T = 10**5
#: Largest census word length.  The walk keeps only states that can still reach
#: the asked exponent; at this bound the widest walk, at n = 0, takes about
#: 0.6 s and 37 MB.
MAX_CENSUS_LEN = 16
#: Largest sum of |t| over a verify range.  One t costs time about
#: proportional to |t| (a little more per unit at large |t|); a range at
#: this bound (3..2448) takes 4 to 6.5 s on 2 CPUs, interpreter start included.
MAX_VERIFY_ABS_T_SUM = 3 * 10**6
#: Largest invariants word, in letters after powers and --delta-power
#: are expanded.
MAX_WORD_LETTERS = 10**5
#: Largest syllables x letters of an invariants word: each Burau syllable costs
#: time linear in the degree so far.  At this bound, "1^2500 2^2500" 20 times
#: takes about 2.5 s and prints 26 MB of JSON.
MAX_WORD_COST = 4 * 10**6


class Record(_value.Value, defaults=(0,)):
    """One command's result, ready for every output format.

    The JSON payload lacks "schema" and "command"; header and rows are
    the CSV output, and lines the text output, one entry per line.
    """

    __slots__ = ("payload", "header", "rows", "lines", "status")


def _cell(fields: dict, *lines: str, **extra) -> Record:
    """A one-row record whose text starts with a "key=value ..." line."""
    text = " ".join(f"{key}={value}" for key, value in fields.items())
    return Record({**fields, **extra}, list(fields), [list(fields.values())],
                  [text, *lines])


def _cmd_h(args: argparse.Namespace) -> Record:
    from . import quadforms
    value = quadforms.class_number(args.t)
    return Record({"t": args.t, "h": value}, ["t", "h"], [[args.t, value]],
                  [str(value)])


def _cmd_forms(args: argparse.Namespace) -> Record:
    from . import quadforms
    forms = sorted(form for key in quadforms.enumerate_classes(args.t)
                   for form in key.cycle or [key.rep])
    rows = [list(f) for f in forms]
    return Record({"t": args.t, "discriminant": args.t * args.t - 4, "forms": rows},
                  ["a", "b", "c"], rows, [f"{a} {b} {c}" for a, b, c in forms])


def _cmd_classes(args: argparse.Namespace) -> Record:
    from . import counts
    classes = counts.trace_classes(args.t)
    return Record(
        {"t": args.t, "h": len(classes),
         "classes": [{**c.key.to_json(), "exponent_mod12": c.residue}
                     for c in classes]},
        ["a", "b", "c", "discriminant", "exponent_mod12"],
        [[*c.key.rep, c.key.disc, c.residue] for c in classes],
        [f"repr={c.key.rep} disc={c.key.disc} exponent_mod12={c.residue}"
         for c in classes])


def _cmd_invariants(args: argparse.Namespace) -> Record:
    from . import braid3
    # The word's size is read from its tokens and K, before any letter
    # list is built; D^K adds 3|K| letters and about 2|K| syllables.
    syllables = braid3.parse_syllables(args.word)
    k = args.delta_power
    letters = 3 * abs(k) + sum(count for _, count in syllables)
    if letters > MAX_WORD_LETTERS:
        raise _value.InputError(f"the word has {letters} letters, which exceeds "
                                f"the limit {MAX_WORD_LETTERS}")
    cost = (len(syllables) + 2 * abs(k)) * letters
    if cost > MAX_WORD_COST:
        raise _value.InputError(f"syllables x letters = {cost} exceeds the limit "
                                f"{MAX_WORD_COST}")
    word = braid3.BraidWord.parse(args.word)
    if k:
        word = braid3.garside_power(k) * word
    eps = braid3.exponent_sum(word)
    tr = braid3.trace_b3(word)
    mat = braid3.phi(word)
    alex = braid3.alexander(word)
    jon = braid3.jones(word)
    special = braid3.special_value(word)
    # csv writes str(mat), which is also the JSON text of mat.as_rows().
    pairs = [("word", word.render()), ("eps", eps), ("trace", tr), ("phi", mat),
             ("alexander", alex.render()), ("jones", jon.render()),
             ("special_value", special)]
    return Record({**dict(pairs), "phi": mat.as_rows(),
                   "special_value": {"re": special.re, "im": special.im}},
                  ["key", "value"], pairs, [f"{key} = {value}" for key, value in pairs])


def _cmd_counts(args: argparse.Namespace) -> Record:
    from . import counts
    return _cell(counts.counts_row(args.t, args.n).to_json())


def _cmd_m(args: argparse.Namespace) -> Record:
    from . import birman_menasco
    # One solve of the cell: m counts every witness, m_prime the family ones.
    wits = birman_menasco.witnesses(args.t, args.n)
    m_prime = sum(w.family in ("family-iii", "family-iv") for w in wits)
    m = len(wits)
    lines = [f"  {w.family} params={list(w.params)} words: "
             + " | ".join(word.render() for word in w.words) for w in wits]
    return _cell({"t": args.t, "n": args.n, "m_prime": m_prime, "m": m}, *lines,
                 witnesses=[w.to_json() for w in wits])


def _cmd_census(args: argparse.Namespace) -> Record:
    from . import counts
    if args.max_len > MAX_CENSUS_LEN:
        raise _value.InputError(f"--max-len {args.max_len} exceeds the limit {MAX_CENSUS_LEN}")
    lower = counts.braid_census(args.t, args.n, args.max_len)
    exact = counts.class_count(args.t, args.n)
    return _cell({"t": args.t, "n": args.n, "max_len": args.max_len,
                  "census": lower, "x_count": exact, "gap": exact - lower})


def _cmd_verify(args: argparse.Namespace) -> Record:
    from . import counts
    if args.tmin > args.tmax:
        raise _value.InputError("empty t range")
    total = sum(map(abs, range(args.tmin, args.tmax + 1)))
    if total > MAX_VERIFY_ABS_T_SUM:
        raise _value.InputError(f"sum of |t| over the range = {total} exceeds "
                                f"the limit {MAX_VERIFY_ABS_T_SUM}")
    results, skipped = [], []
    for t in range(args.tmin, args.tmax + 1):
        if t in (2, -2):
            skipped.append(t)
            continue
        n = args.n if args.n is not None else counts.default_sweep_exponent(t)
        results.append(counts.check_main_identity(t, n))
    if not results:
        raise _value.InputError("no t in the range is checked (t = +-2 is excluded)")
    all_ok = all(r.ok for r in results)
    return Record(
        {"tmin": args.tmin, "tmax": args.tmax, "skipped_t": skipped,
         "pass": all_ok, "results": [r.to_json() for r in results]},
        ["t", "n", "x_count", "m", "p", "h_lhs", "window_rhs", "pass"],
        [[row.t, row.n, row.x_count, row.m, row.p, r.h, r.window_total,
          str(r.ok).lower()] for r in results for row in r.rows],
        [f"t={t}: skipped (t = +-2 excluded)" for t in skipped]
        + [f"t={r.t} n={r.n} h={r.h} window={r.window_total} "
           f"{'pass' if r.ok else 'FAIL'}" for r in results]
        + ["all pass" if all_ok else "FAILURES PRESENT"],
        0 if all_ok else 1)


def _arg(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


_T, _N = _arg("t", type=int), _arg("n", type=int)

#: name -> (handler, help, arguments); every command also takes --format.
COMMANDS = {
    "h": (_cmd_h, "class number of discriminant t^2 - 4", [_T]),
    "forms": (_cmd_forms, "all reduced forms of discriminant t^2 - 4", [_T]),
    "classes": (_cmd_classes, "form classes with exponent residues", [_T]),
    "invariants": (_cmd_invariants, "invariants of a braid closure", [
        _arg("word", help="braid word, e.g. '1 2 -1' or '1^3 2'"),
        _arg("--delta-power", type=int, default=0, metavar="K",
             help="prepend (s1 s2 s1)^K (negative K uses inverse letters)")]),
    "counts": (_cmd_counts, "x_count, m, p for one (t, n) cell", [_T, _N]),
    "m": (_cmd_m, "fiber corrections and witnesses for a cell", [_T, _N]),
    "census": (_cmd_census, "braid word census lower bound for a cell", [
        _T, _N, _arg("--max-len", type=int, default=12, metavar="L")]),
    "verify": (_cmd_verify, "check the main identity over a t range", [
        _arg("--tmin", type=int, required=True),
        _arg("--tmax", type=int, required=True),
        _arg("--n", type=int, default=None,
             help="window start (default: -|t-3| - 24 per t)")]),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidforms",
        description="Braid closures, quadratic form classes, and the counting "
                    "identity between them.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")
    return parser


def _check_limits(args: argparse.Namespace) -> None:
    """Reject an oversized |t| before any work is allocated for it."""
    for name in ("t", "tmin", "tmax"):
        value = getattr(args, name, None)
        if value is not None and abs(value) > MAX_ABS_T:
            raise _value.InputError(f"|{name}| = {abs(value)} exceeds the limit {MAX_ABS_T}")


def _render(record: Record, command: str, fmt: str) -> str:
    try:
        if fmt == "json":
            import json
            doc = {"schema": SCHEMA, "command": command, **record.payload}
            return json.dumps(doc, indent=2) + "\n"
        if fmt == "csv":
            import csv
            import io
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(record.header)
            writer.writerows(record.rows)
            return buf.getvalue()
    except ValueError as exc:  # an int past Python's int-to-str digit limit, from a huge --n
        raise _value.InputError(str(exc)) from None
    return "".join(f"{line}\n" for line in record.lines)


def _write_stdout(text: str) -> None:
    """Write all of text to stdout, or raise OSError.

    Unbuffered (python -u, PYTHONUNBUFFERED), sys.stdout.buffer is the raw
    file, whose write may take only part of the bytes; the text layer over
    it drops the rest silently, so the bytes are written here until all are
    out.  A stream without a buffer, such as a StringIO, takes the text.
    """
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
    else:
        sys.stdout.flush()
        data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[buffer.write(data):]
    sys.stdout.flush()


def _to_devnull(stream) -> None:
    """Point stream's fd at devnull, which then takes the flush at interpreter exit."""
    target, fd = stream.fileno(), os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(fd, target)
    finally:
        os.close(fd)


def _fail(exc: Exception, status: int) -> int:
    with contextlib.suppress(AttributeError, OSError):  # no stderr, or a closed or full one
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return status
    with contextlib.suppress(AttributeError, OSError):
        _to_devnull(sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_limits(args)
        record = COMMANDS[args.command][0](args)
        text = _render(record, args.command, args.format)
    except _value.InputError as exc:
        return _fail(exc, 2)
    except Exception as exc:
        return _fail(exc, 1)
    if sys.stdout is None:  # fd 1 was closed at start: no reader, as after `| head`
        return 1
    try:
        _write_stdout(text)
    except OSError as exc:
        # A reader gone early is no error, a full disk is.
        _to_devnull(sys.stdout)
        return 1 if isinstance(exc, BrokenPipeError) else _fail(exc, 1)
    return record.status


if __name__ == "__main__":
    sys.exit(main())
