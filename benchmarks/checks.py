"""Independent oracles for the benchmark's correctness checks.

Nothing here imports braidforms: every expected value is recomputed
from the benchmark's own inputs with separate arithmetic, so a defect
in the package cannot hide behind a shared helper.  Each check returns
an error message, or None when the output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction

SCHEMA = "bqf-braid/1"


# s1 -> S = [[1,1],[0,1]], s2 -> T = [[1,0],[-1,1]]; a power p of a
# letter is the closed-form power of its matrix.
def _gen_power(letter: int, p: int) -> tuple[int, int, int, int]:
    if letter < 0:
        letter, p = -letter, -p
    return (1, p, 0, 1) if letter == 1 else (1, 0, -p, 1)


def _mul(m: tuple[int, int, int, int], n: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def syllable_phi(syllables: list[tuple[int, int]]) -> tuple[int, int, int, int]:
    """The S/T image of a word given as (letter, count) syllables."""
    m = (1, 0, 0, 1)
    for letter, count in syllables:
        m = _mul(m, _gen_power(letter, count))
    return m


def exponent_sum(syllables: list[tuple[int, int]]) -> int:
    return sum(count if letter > 0 else -count for letter, count in syllables)


def components(syllables: list[tuple[int, int]]) -> int:
    """Number of closure components: cycles of the braid permutation."""
    perm = [0, 1, 2]
    for letter, count in syllables:
        if count % 2:
            i = abs(letter) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, cycles = set(), 0
    for start in range(3):
        if start not in seen:
            cycles += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = perm[j]
    return cycles


def render(syllables: list[tuple[int, int]]) -> str:
    """Runs of one letter collapse to powers, as the CLI prints words."""
    runs: list[list[int]] = []
    for letter, count in syllables:
        if count == 0:
            continue
        if runs and runs[-1][0] == letter:
            runs[-1][1] += count
        else:
            runs.append([letter, count])
    return " ".join(str(letter) if count == 1 else f"{letter}^{count}" for letter, count in runs)


def parse_poly(text: str) -> dict[int, int]:
    """Parse a rendered Laurent polynomial into {s-exponent: coefficient}."""
    if text == "0":
        return {}
    out: dict[int, int] = {}
    for term in text.split(" + "):
        if "*q^" in term:
            coeff, exp = term.split("*q^")
            e = int(exp[:-2]) if exp.endswith("/2") else 2 * int(exp)
        else:
            coeff, e = term, 0
        if e in out or int(coeff) == 0:
            raise ValueError(f"non-canonical term {term!r}")
        out[e] = int(coeff)
    return out


def at_s_equals_i(poly: dict[int, int]) -> tuple[int, int]:
    """Value at s = i (that is, q = -1) as a Gaussian integer (re, im)."""
    re = im = 0
    for e, c in poly.items():
        re += (1, 0, -1, 0)[e % 4] * c
        im += (0, 1, 0, -1)[e % 4] * c
    return re, im


def at_s_equals_minus_one(poly: dict[int, int]) -> int:
    return sum(c if e % 2 == 0 else -c for e, c in poly.items())


def check_invariants(syllables: list[tuple[int, int]], code: int, stdout: str) -> str | None:
    """Check an `invariants --format json` document for the full word."""
    if code != 0:
        return f"exit status {code}"
    try:
        doc = json.loads(stdout)
        alex = parse_poly(doc["alexander"])
        jones = parse_poly(doc["jones"])
        special = (doc["special_value"]["re"], doc["special_value"]["im"])
        eps, trace, phi, word = doc["eps"], doc["trace"], doc["phi"], doc["word"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed document: {exc!r}"
    if doc.get("schema") != SCHEMA or doc.get("command") != "invariants":
        return "wrong schema or command"
    a, b, c, d = syllable_phi(syllables)
    want_eps = exponent_sum(syllables)
    if word != render(syllables):
        return f"word {word!r} != {render(syllables)!r}"
    if (eps, trace, phi) != (want_eps, a + d, [[a, b], [c, d]]):
        return f"eps/trace/phi {eps}, {trace}, {phi} != {want_eps}, {a + d}, {[[a, b], [c, d]]}"
    unit = ((1, 0), (0, 1), (-1, 0), (0, -1))[want_eps % 4]
    want_special = (unit[0] * (a + d - 2), unit[1] * (a + d - 2))
    if special != want_special:
        return f"special value {special} != {want_special}"
    if at_s_equals_i(alex) != special or at_s_equals_i(jones) != special:
        return "Alexander or Jones at q = -1 differs from the special value"
    comps = components(syllables)
    if at_s_equals_minus_one(jones) != (-2) ** (comps - 1):
        return f"Jones at s = -1 is not (-2)^({comps} - 1)"
    alex_one = at_s_equals_minus_one(alex)
    if (comps == 1 and alex_one not in (1, -1)) or (comps > 1 and alex_one != 0):
        return f"Alexander at s = -1 is {alex_one} with {comps} components"
    return None


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) for k > 0 and gcd(h, k) = 1, by the reciprocity law."""
    total, sign = Fraction(0), 1
    h %= k
    while k > 1:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        sign = -sign
        h, k = k % h, h
    return total


def rademacher_residue(a: int, b: int, c: int, d: int) -> int:
    """Exponent residue mod 12 of [[a,b],[c,d]] from Rademacher's function."""
    if c == 0:
        return (b * d + (6 if d < 0 else 0)) % 12  # d = +-1, so b/d = b*d
    sign = 1 if c > 0 else -1
    phi = Fraction(a + d, c) - 12 * sign * dedekind_sum(d, abs(c))
    if phi.denominator != 1:
        raise ArithmeticError(f"Rademacher function not integral at {(a, b, c, d)}")
    return (int(phi) + 9 * sign) % 12


def check_identity(t: int, report: dict, classes: list[tuple[tuple[int, int, int], int]]) -> str | None:
    """Check one main-identity report and the residue of every trace-t class.

    ``classes`` holds (reduced form (A, B, C), residue) pairs; the
    matrix of a form is [[(t-B)/2, A], [-C, (t+B)/2]].
    """
    if not report["pass"] or report["h_lhs"] != report["window_rhs"]:
        return f"identity fails at t={t}"
    if len(report["rows"]) != 12 or any(row["p"] < 0 for row in report["rows"]):
        return f"bad rows at t={t}"
    if len(classes) != report["h_lhs"]:
        return f"{len(classes)} classes but h = {report['h_lhs']}"
    for (fa, fb, fc), residue in classes:
        want = rademacher_residue((t - fb) // 2, fa, -fc, (t + fb) // 2)
        if residue != want:
            return f"residue {residue} != {want} for form {(fa, fb, fc)} at t={t}"
    return None


def check_census(t: int, n: int, max_len: int, code: int, stdout: str,
                 seen: dict[tuple[int, int], dict[int, tuple[int, int]]]) -> str | None:
    """Check one census document; ``seen`` holds earlier results per cell."""
    if code != 0:
        return f"exit status {code}"
    try:
        doc = json.loads(stdout)
        census, x_count, gap = doc["census"], doc["x_count"], doc["gap"]
        echo = (doc["t"], doc["n"], doc["max_len"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed document: {exc!r}"
    if doc.get("schema") != SCHEMA or doc.get("command") != "census" or echo != (t, n, max_len):
        return "wrong schema, command or echoed arguments"
    if not 0 <= census <= x_count or gap != x_count - census:
        return f"census {census} outside [0, x_count={x_count}] or gap {gap} wrong"
    earlier = seen.setdefault((t, n), {})
    for depth, (c, x) in earlier.items():
        if x != x_count or (depth < max_len and c > census) or (depth > max_len and c < census) \
                or (depth == max_len and c != census):
            return f"census not monotone in depth at cell {(t, n)}"
    earlier[max_len] = (census, x_count)
    return None
