"""Class counts, link counts, and the counting identity h(t) = sum(p + M).

The pipeline has two ends.  On the form side, the classes of
discriminant t^2 - 4 are enumerated and each is tagged with the
exponent residue mod 12 of a matrix representative, giving the number
x_count(t, n) of braid conjugacy classes with trace t and exponent n
(each form class lifts to exactly one exponent in any window of 12
consecutive integers).  On the link side, the exceptional-fiber
correction M from the closure classification converts class counts
into counts p = x_count - M of isotopy classes of braid-index-3 links
with writhe n and Alexander/Jones special value i^n (t - 2).  The main
identity h(t) = sum over a 12-window of (p + M) then ties the two ends
together; a cell where the subtraction would go negative falsifies the
data and raises instead of passing silently.

An independent census pipeline searches the braid words up to a given
length breadth first, as states (integer matrix image, exponent sum),
keeps only the states whose exponent sum can still reach the asked
window, buckets them by (form class of the matrix, exponent sum), and
yields certified lower bounds for x_count that converge from below.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from . import _value, quadforms, sl2z
from .quadforms import FormClassKey, QForm


class ClassWithExponent(_value.Value):
    """A form class of discriminant trace^2 - 4 and the exponent mod 12 of its matrices."""

    __slots__ = ("key", "trace", "residue")


class CountsRow(_value.Value):
    """One cell of the counting table: p = x_count - m >= 0."""

    __slots__ = ("t", "n", "x_count", "m", "p")

    def to_json(self) -> dict:
        return {"t": self.t, "n": self.n, "x_count": self.x_count,
                "m": self.m, "p": self.p}


class LinkCountError(_value.InputError):
    """More fiber corrections than classes in a cell, which then has no count: bad input."""

    def __init__(self, t: int, n: int, x_count: int, m: int):
        super().__init__(
            f"cell (t={t}, n={n}): correction m={m} exceeds class count {x_count}")
        self.cell = (t, n)
        self.x_count = x_count
        self.m = m


@lru_cache(maxsize=4)
def trace_classes(t: int) -> tuple[ClassWithExponent, ...]:
    """All trace-t classes, one per form class, tagged with residues (quadforms._residues)."""
    keys, residues = quadforms._residues(t)
    return tuple(ClassWithExponent(key, t, residues[key.rep]) for key in keys)


def class_count(t: int, n: int) -> int:
    """x_count: trace-t classes whose exponent residue is n mod 12."""
    residue = n % 12
    return sum(1 for cls in trace_classes(t) if cls.residue == residue)


def _row(t: int, n: int, x: int, m: int) -> CountsRow:
    if x - m < 0:
        raise LinkCountError(t, n, x, m)
    return CountsRow(t, n, x, m, x - m)


def counts_row(t: int, n: int) -> CountsRow:
    from . import birman_menasco  # loaded only by the commands that count fibers
    return _row(t, n, class_count(t, n), birman_menasco.class_excess(t, n))


def link_count(t: int, n: int) -> int:
    """p: isotopy classes of braid-index-3 links in cell (t, n)."""
    return counts_row(t, n).p


def default_sweep_exponent(t: int) -> int:
    """A writhe comfortably below every exceptional threshold for t."""
    return -abs(t - 3) - 24


class MainIdentityReport(_value.Value):
    """Both sides of h(t) = sum_{j<12} (p + m)(t, n+j), with the rows."""

    __slots__ = ("t", "n", "h", "window_total", "rows", "ok")

    def to_json(self) -> dict:
        return {"t": self.t, "n": self.n, "h_lhs": self.h,
                "window_rhs": self.window_total,
                "rows": [r.to_json() for r in self.rows],
                "pass": self.ok}


def check_main_identity(t: int, n: int) -> MainIdentityReport:
    """Evaluate the identity at (t, n); inequality is reported, not raised."""
    from . import birman_menasco
    keys, residues = quadforms._residues(t)
    tally = Counter(residues.values())
    rows = tuple(_row(t, n + j, tally[(n + j) % 12], birman_menasco.class_excess(t, n + j))
                 for j in range(12))
    total = sum(r.p + r.m for r in rows)
    return MainIdentityReport(t, n, len(keys), total, rows, len(keys) == total)


class SymmetryReport(_value.Value):
    """Window sums of p at (t, n) and at (-t, n+6); ok when p agrees cell by cell."""

    __slots__ = ("t", "n", "lhs", "rhs", "ok")

    def to_json(self) -> dict:
        return {"t": self.t, "n": self.n, "lhs": self.lhs, "rhs": self.rhs,
                "pass": self.ok}


def check_window_symmetry(t: int, n: int) -> SymmetryReport:
    """Compare p(t, n + j) with p(-t, n + 6 + j), j < 12: Delta^2 maps to -I."""
    lhs = [row.p for row in check_main_identity(t, n).rows]
    rhs = [row.p for row in check_main_identity(-t, n + 6).rows]
    return SymmetryReport(t, n, sum(lhs), sum(rhs), lhs == rhs)


# --- braid census ------------------------------------------------------

# Right multiplication by each braid letter: its matrix image and exponent.
_STEPS = tuple(((m.a, m.b, m.c, m.d), p) for gen, p in sl2z.LETTERS.values()
               for m in [sl2z.st_product([(gen, p)])])


def census_table(max_len: int, traces: range, exponents: range) -> dict[tuple[int, int], int]:
    """Distinct-class counts per (t, n) cell from words up to max_len.

    A breadth-first search over states (a, b, c, d, eps), the integer
    matrix image and exponent sum of a word.  A state fixes t, n and the
    form (b, d - a, -c), so words that reach one state are counted once.
    Level k holds the states first reached by k letters.  The letters
    are closed under inverses and each moves eps by exactly 1, so eps
    has the parity of k, a neighbour of level k lies on level k - 1 or
    k + 1, and two stored levels find the next one.  A state of level k
    whose eps lies more than max_len - k outside the exponent window can
    reach no tracked cell and is dropped; each prefix of a geodesic to a
    tracked state lies within that distance, so no tracked state is
    lost.  The deepest level is streamed into the cells, never stored.
    Conjugation by D = s1 s2 s1 (phi(D) = [[0, 1], [-1, 0]]) maps a state to
    (d, -c, -b, a, eps), of the same t, eps and class key; it permutes the
    letters, so each level is closed under it and keeps the least of each
    pair, and previous and the parity argument hold.  Each recorded state's
    form is reduced to its class key at once, and each cell keeps its
    distinct keys.  Only cells with t in traces and n in exponents (ranges
    of step 1), t != +-2, are tracked.
    """
    cells: dict[tuple[int, int], set[FormClassKey]] = {}

    def neighbours(previous: set, level: set, slack: int):
        """States one letter beyond level within slack of the window, with repeats."""
        low, high = exponents.start - slack, exponents.stop - 1 + slack
        for a, b, c, d, eps in level:
            for (e, f, g, h), step in _STEPS:
                if low <= eps + step <= high:
                    w, x, y, z = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
                    state = min((w, x, y, z, eps + step), (z, -y, -x, w, eps + step))
                    if state not in previous:
                        yield state

    def record(states) -> None:
        for a, b, c, d, eps in states:
            t = a + d
            if t in traces and eps in exponents and t not in (2, -2):
                cells.setdefault((t, eps), set()).add(quadforms.reduce(QForm(b, d - a, -c)))

    previous, level = set(), {(1, 0, 0, 1, 0)}
    for depth in range(1, max_len + 1):
        record(level)
        following = neighbours(previous, level, max_len - depth)
        previous, level = level, set(following) if depth < max_len else following
    record(level)
    return {cell: len(keys) for cell, keys in cells.items()}


def braid_census(t: int, n: int, max_len: int) -> int:
    """Certified lower bound for class_count(t, n) from words up to max_len.

    Monotone in max_len and never exceeds class_count: distinct census
    keys are distinct conjugacy classes of trace t and exponent n.
    """
    if max_len < 1:
        raise _value.InputError("max_len must be at least 1")
    quadforms._check_trace(t)
    table = census_table(max_len, range(t, t + 1), range(n, n + 1))
    return table.get((t, n), 0)
