"""Command-line surface for every pipeline in the package.

Subcommands: h, forms, classes, invariants, counts, m, census, verify.
Every JSON document carries the top-level key "schema": "bqf-braid/1".
Exit status is 0 on success, 1 if any verification cell fails, and 2
for invalid input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import birman_menasco, braid3, counts, quadforms

SCHEMA = "bqf-braid/1"

#: Largest |t| any subcommand accepts.  Form enumeration takes time and
#: memory near linear in |t|; at this bound one enumeration takes about a
#: second.
MAX_ABS_T = 10**5
#: Largest census word length; the census walk grows about 3x per letter.
MAX_CENSUS_LEN = 14
#: Largest sum of |t| over a verify range.  One t costs time about
#: proportional to |t| (a little more per unit at large |t|); a range at
#: this bound takes about a minute.
MAX_VERIFY_ABS_T_SUM = 3 * 10**6
#: Largest invariants word, in letters after powers and --delta-power
#: are expanded.
MAX_WORD_LETTERS = 10**5
#: Largest syllables x letters of an invariants word.  Each syllable of
#: the Burau product costs time linear in the degree so far, so the word
#: costs about this product; at this bound it takes about a second.
MAX_WORD_COST = 4 * 10**6


def _emit_json(payload: dict) -> None:
    print(json.dumps({"schema": SCHEMA, **payload}, indent=2))


def _emit_csv(header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _parse_word(args: argparse.Namespace) -> braid3.BraidWord:
    word = braid3.BraidWord.parse(args.word)
    k = args.delta_power
    if k > 0:
        word = braid3.garside_power(k) * word
    elif k < 0:
        word = braid3.BraidWord((-1, -2, -1) * (-k)) * word
    return word


def _cmd_h(args: argparse.Namespace) -> int:
    value = quadforms.class_number(args.t)
    if args.format == "json":
        _emit_json({"command": "h", "t": args.t, "h": value})
    elif args.format == "csv":
        _emit_csv(["t", "h"], [[args.t, value]])
    else:
        print(value)
    return 0


def _cmd_forms(args: argparse.Namespace) -> int:
    keys = quadforms.enumerate_classes(args.t)
    forms: list[tuple[int, int, int]] = []
    for key in keys:
        forms.extend(key.cycle if key.cycle else [key.rep])
    forms.sort()
    if args.format == "json":
        _emit_json({"command": "forms", "t": args.t,
                    "discriminant": args.t * args.t - 4,
                    "forms": [list(f) for f in forms]})
    elif args.format == "csv":
        _emit_csv(["a", "b", "c"], [list(f) for f in forms])
    else:
        for f in forms:
            print(f"{f[0]} {f[1]} {f[2]}")
    return 0


def _cmd_classes(args: argparse.Namespace) -> int:
    classes = counts.trace_classes(args.t)
    if args.format == "json":
        _emit_json({"command": "classes", "t": args.t,
                    "h": len(classes),
                    "classes": [{**c.key.to_json(), "exponent_mod12": c.residue}
                                for c in classes]})
    elif args.format == "csv":
        _emit_csv(["a", "b", "c", "discriminant", "exponent_mod12"],
                  [[*c.key.rep, c.key.disc, c.residue] for c in classes])
    else:
        for c in classes:
            print(f"repr=({c.key.rep[0]}, {c.key.rep[1]}, {c.key.rep[2]}) "
                  f"disc={c.key.disc} exponent_mod12={c.residue}")
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    word = _parse_word(args)
    eps = braid3.exponent_sum(word)
    tr = braid3.trace_b3(word)
    mat = braid3.phi(word)
    alex = braid3.alexander(word)
    jon = braid3.jones(word)
    special = braid3.special_value(word)
    if args.format == "json":
        _emit_json({"command": "invariants", "word": word.render(),
                    "eps": eps, "trace": tr, "phi": mat.as_rows(),
                    "alexander": alex.render(), "jones": jon.render(),
                    "special_value": {"re": special.re, "im": special.im}})
    elif args.format == "csv":
        _emit_csv(["key", "value"],
                  [["word", word.render()], ["eps", eps], ["trace", tr],
                   ["phi", json.dumps(mat.as_rows())],
                   ["alexander", alex.render()], ["jones", jon.render()],
                   ["special_value", str(special)]])
    else:
        print(f"word = {word.render()}")
        print(f"eps = {eps}")
        print(f"trace = {tr}")
        print(f"phi = {mat}")
        print(f"alexander = {alex.render()}")
        print(f"jones = {jon.render()}")
        print(f"special_value = {special}")
    return 0


def _cmd_counts(args: argparse.Namespace) -> int:
    row = counts.counts_row(args.t, args.n)
    if args.format == "json":
        _emit_json({"command": "counts", **row.to_json()})
    elif args.format == "csv":
        _emit_csv(["t", "n", "x_count", "m", "p"],
                  [[row.t, row.n, row.x_count, row.m, row.p]])
    else:
        print(f"t={row.t} n={row.n} x_count={row.x_count} m={row.m} p={row.p}")
    return 0


def _cmd_m(args: argparse.Namespace) -> int:
    m_prime = birman_menasco.shared_closure_count(args.t, args.n)
    m = birman_menasco.class_excess(args.t, args.n)
    wits = birman_menasco.witnesses(args.t, args.n)
    if args.format == "json":
        _emit_json({"command": "m", "t": args.t, "n": args.n,
                    "m_prime": m_prime, "m": m,
                    "witnesses": [w.to_json() for w in wits]})
    elif args.format == "csv":
        _emit_csv(["t", "n", "m_prime", "m"], [[args.t, args.n, m_prime, m]])
    else:
        print(f"t={args.t} n={args.n} m_prime={m_prime} m={m}")
        for w in wits:
            words = " | ".join(word.render() for word in w.words)
            print(f"  {w.family} params={list(w.params)} words: {words}")
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    lower = counts.braid_census(args.t, args.n, args.max_len)
    exact = counts.class_count(args.t, args.n)
    if args.format == "json":
        _emit_json({"command": "census", "t": args.t, "n": args.n,
                    "max_len": args.max_len, "census": lower,
                    "x_count": exact, "gap": exact - lower})
    elif args.format == "csv":
        _emit_csv(["t", "n", "max_len", "census", "x_count", "gap"],
                  [[args.t, args.n, args.max_len, lower, exact, exact - lower]])
    else:
        print(f"t={args.t} n={args.n} max_len={args.max_len} "
              f"census={lower} x_count={exact} gap={exact - lower}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.tmin > args.tmax:
        raise ValueError("empty t range")
    results = []
    skipped = []
    for t in range(args.tmin, args.tmax + 1):
        if t in (2, -2):
            skipped.append(t)
            continue
        n = args.n if args.n is not None else counts.default_sweep_exponent(t)
        results.append(counts.check_main_identity(t, n))
    all_ok = all(r.ok for r in results)
    if args.format == "json":
        _emit_json({"command": "verify", "tmin": args.tmin, "tmax": args.tmax,
                    "skipped_t": skipped, "pass": all_ok,
                    "results": [r.to_json() for r in results]})
    elif args.format == "csv":
        rows = []
        for r in results:
            for row in r.rows:
                rows.append([row.t, row.n, row.x_count, row.m, row.p,
                             r.h, r.window_total, str(r.ok).lower()])
        _emit_csv(["t", "n", "x_count", "m", "p", "h_lhs", "window_rhs", "pass"],
                  rows)
    else:
        for t in skipped:
            print(f"t={t}: skipped (t = +-2 excluded)")
        for r in results:
            status = "pass" if r.ok else "FAIL"
            print(f"t={r.t} n={r.n} h={r.h} window={r.window_total} {status}")
        print("all pass" if all_ok else "FAILURES PRESENT")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidforms",
        description="Braid closures, quadratic form classes, and the counting "
                    "identity between them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")

    p = sub.add_parser("h", help="class number of discriminant t^2 - 4")
    p.add_argument("t", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_h)

    p = sub.add_parser("forms", help="all reduced forms of discriminant t^2 - 4")
    p.add_argument("t", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_forms)

    p = sub.add_parser("classes", help="form classes with exponent residues")
    p.add_argument("t", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("invariants", help="invariants of a braid closure")
    p.add_argument("word", help="braid word, e.g. '1 2 -1' or '1^3 2'")
    p.add_argument("--delta-power", type=int, default=0, metavar="K",
                   help="prepend (s1 s2 s1)^K (negative K uses inverse letters)")
    add_format(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("counts", help="x_count, m, p for one (t, n) cell")
    p.add_argument("t", type=int)
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("m", help="fiber corrections and witnesses for a cell")
    p.add_argument("t", type=int)
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_m)

    p = sub.add_parser("census", help="braid word census lower bound for a cell")
    p.add_argument("t", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--max-len", type=int, default=12, metavar="L")
    add_format(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("verify", help="check the main identity over a t range")
    p.add_argument("--tmin", type=int, required=True)
    p.add_argument("--tmax", type=int, required=True)
    p.add_argument("--n", type=int, default=None,
                   help="window start (default: -|t-3| - 24 per t)")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def _check_limits(args: argparse.Namespace) -> None:
    """Reject oversized inputs before any work is allocated for them."""
    for name in ("t", "tmin", "tmax"):
        value = getattr(args, name, None)
        if value is not None and abs(value) > MAX_ABS_T:
            raise ValueError(f"|{name}| = {abs(value)} exceeds the limit {MAX_ABS_T}")
    max_len = getattr(args, "max_len", None)
    if max_len is not None and max_len > MAX_CENSUS_LEN:
        raise ValueError(f"--max-len {max_len} exceeds the limit {MAX_CENSUS_LEN}")
    if args.command == "verify" and args.tmin <= args.tmax:
        total = sum(map(abs, range(args.tmin, args.tmax + 1)))
        if total > MAX_VERIFY_ABS_T_SUM:
            raise ValueError(f"sum of |t| over the range = {total} exceeds "
                             f"the limit {MAX_VERIFY_ABS_T_SUM}")
    if args.command == "invariants":
        # The word's size is read from its tokens and K, before any letter
        # list is built; D^K adds 3|K| letters and about 2|K| syllables.
        syllables = braid3.parse_syllables(args.word)
        k = abs(args.delta_power)
        letters = 3 * k + sum(count for _, count in syllables)
        if letters > MAX_WORD_LETTERS:
            raise ValueError(f"the word has {letters} letters, which exceeds "
                             f"the limit {MAX_WORD_LETTERS}")
        cost = (len(syllables) + 2 * k) * letters
        if cost > MAX_WORD_COST:
            raise ValueError(f"syllables x letters = {cost} exceeds the limit "
                             f"{MAX_WORD_COST}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_limits(args)
        return args.func(args)
    except (ValueError, counts.LinkCountError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
