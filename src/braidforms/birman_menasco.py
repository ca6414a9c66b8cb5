"""Exceptional fibers of the braid-closure map on conjugacy classes.

Closing a braid forgets some conjugacy data: the unknot closes three
distinct classes, each (2,k) torus link closes two classes that land in
different (trace, exponent) cells, and two infinite families of 3-braids

    iii: D^2k s1^-1 s2^u s1^-v s2^w          k in {0,1}, u != w, v >= 2
    iv:  D^2k s1^-1 s2^u s1^-1 s2^v s1^-1 s2^w   k in {1,2}, u,v,w distinct

each close a pair of distinct classes (the partner word swaps u and w
in family iii and v and w in family iv) to a single link.  This module
evaluates the closed trace/exponent formulas of those families, counts
how many links of each kind occupy a given (trace, exponent) cell, and
produces the correction

    class_excess(t, n) = #classes in the cell - #links in the cell

used to convert class counts into link counts.  A parameter set is
counted once per link: {u, w} unordered in family iii and {u, v, w}
unordered in family iv, since permuting those slots reproduces the same
closure.  Counting ordered tuples instead would double (respectively
sextuple) the family contributions and push link counts negative.
"""

from __future__ import annotations

import math
from itertools import count

from . import _value, quadforms  # braid3 and laurent load only where a braid word is built


def family_iii_word(u: int, v: int, w: int, k: int) -> braid3.BraidWord:
    """D^2k s1^-1 s2^u s1^-v s2^w."""
    from . import braid3
    return braid3.garside_power(2 * k) * braid3.BraidWord.parse(f"-1 2^{u} 1^{-v} 2^{w}")


def family_iv_word(u: int, v: int, w: int, k: int) -> braid3.BraidWord:
    """D^2k s1^-1 s2^u s1^-1 s2^v s1^-1 s2^w."""
    from . import braid3
    return braid3.garside_power(2 * k) * braid3.BraidWord.parse(f"-1 2^{u} -1 2^{v} -1 2^{w}")


def family_iii_trace_exp(u: int, v: int, w: int, k: int) -> tuple[int, int]:
    """Closed trace and exponent of the family-iii classes.

    trace = (-1)^k (2 + (u+w)(1+v) + uvw), exponent = u+w-v-1+6k;
    symmetric in u and w.
    """
    if min(u, v, w) < 1 or u == w or v < 2 or k not in (0, 1):
        raise ValueError(f"outside the family-iii domain: u={u} v={v} w={w} k={k}")
    sign = -1 if k % 2 else 1
    return (sign * (2 + (u + w) * (1 + v) + u * v * w), u + w - v - 1 + 6 * k)


def family_iv_trace_exp(u: int, v: int, w: int, k: int) -> tuple[int, int]:
    """Closed trace and exponent of the family-iv classes.

    In elementary symmetric functions e1, e2, e3 of (u, v, w) the trace
    is (-1)^k (2 + 3 e1 + 2 e2 + e3) and the exponent is e1 - 3 + 6k;
    fully symmetric.  The grouping was calibrated against direct
    matrix computation on the explicit words.
    """
    if min(u, v, w) < 1 or len({u, v, w}) != 3 or k not in (1, 2):
        raise ValueError(f"outside the family-iv domain: u={u} v={v} w={w} k={k}")
    e1 = u + v + w
    e2 = u * v + v * w + w * u
    e3 = u * v * w
    sign = -1 if k % 2 else 1
    return (sign * (2 + 3 * e1 + 2 * e2 + e3), e1 - 3 + 6 * k)


def _split(s: int, prod: int, m: int) -> tuple[int, int] | None:
    """The integers a < b with a + b = s and m ab = prod, or None."""
    disc = s * s - 4 * (prod // m)
    d = math.isqrt(max(disc, 0))
    return ((s - d) // 2, (s + d) // 2) if prod % m == 0 and d and d * d == disc else None


def _family_solutions(t: int, n: int) -> list[tuple[str, tuple[int, int, int, int]]]:
    """The normalized family parameter sets of cell (t, n), one per link.

    Family iii sets have u < w and come by k then v; family iv sets have
    u < v < w and come by k then u.  Both trace formulas give
    target = (-1)^k t - 2 as a sum of positive terms, and the exponent
    fixes a sum, so each loop step leaves the sum s and a multiple of the
    product of the last two powers:
    in iii, s = u + w = n + v + 1 - 6k and rest = target - s(1 + v) = v uw;
    in iv, e1 = n + 3 - 6k, s = v + w = e1 - u and
    rest = target - 3 e1 - 2us = (2 + u) vw.  A loop stops once rest is
    below its least value, 2v (uw >= 2) or (u + 1)(u + 2)^2 (w > v > u).
    Both tests are monotone: the bound rises with the loop variable and
    rest falls, as s >= 3 grows with v in iii and u(e1 - u) grows for
    u <= (e1 - 3) / 3 < e1 / 2 in iv.  So a cell takes O(sqrt|t|) steps.
    """
    quadforms._check_trace(t)
    sols = []
    for k in (0, 1):
        target = (t if k == 0 else -t) - 2  # (u+w)(1+v) + uvw
        for v in count(max(2, 2 - n + 6 * k)):  # from s = u + w >= 3
            s = n + v + 1 - 6 * k
            rest = target - s * (1 + v)
            if rest < 2 * v:
                break
            if uw := _split(s, rest, v):
                sols.append(("iii", (uw[0], v, uw[1], k)))
    for k in (1, 2):
        target = (-t if k == 1 else t) - 2  # 3 e1 + 2 e2 + e3
        e1 = n + 3 - 6 * k
        for u in range(1, (e1 - 3) // 3 + 1):
            rest = target - 3 * e1 - 2 * u * (e1 - u)
            if rest < (u + 1) * (u + 2) ** 2:
                break
            vw = _split(e1 - u, rest, 2 + u)
            if vw and vw[0] > u:
                sols.append(("iv", (u, *vw, k)))
    return sols


def shared_closure_count(t: int, n: int) -> int:
    """Number of links in cell (t, n) whose fiber is a pair of classes."""
    return len(_family_solutions(t, n))


def _low_index_bonus(t: int, n: int) -> int:
    # Conjugacy classes in the cell whose closure has braid index 1 or 2:
    # the class of s1^k s2^-1 at (t, t-3), k = t-2, and of s1^k s2 at
    # (t, 3-t), k = 2-t.  With |k| = 1 these are the three unknot classes
    # at (1, +-2) and (3, 0); otherwise they close to (2,k) torus links.
    return 1 if n in (t - 3, 3 - t) else 0


def class_excess(t: int, n: int) -> int:
    """The correction M: classes in cell (t, n) minus links in cell (t, n)."""
    return shared_closure_count(t, n) + _low_index_bonus(t, n)


class ExceptionalWitness(_value.Value):
    """One exceptional fiber in a cell: its words and shared invariants.

    The family is "unknot", "torus", "family-iii" or "family-iv".
    """

    __slots__ = ("family", "params", "words", "trace", "exponent")

    def to_json(self) -> dict:
        return {"family": self.family,
                "params": list(self.params),
                "words": [w.render() for w in self.words]}


def witnesses(t: int, n: int) -> list[ExceptionalWitness]:
    """Explicit braid words behind every unit counted in class_excess(t, n).

    A word that does not close in cell (t, n) raises AssertionError.
    """
    from . import braid3
    fibers = []
    for family, (u, v, w, k) in _family_solutions(t, n):
        words = ((family_iii_word(u, v, w, k), family_iii_word(w, v, u, k)) if family == "iii"
                 else (family_iv_word(u, v, w, k), family_iv_word(u, w, v, k)))
        fibers.append(("family-" + family, (u, v, w, k), words))
    if _low_index_bonus(t, n):
        k, last = (t - 2, -2) if n == t - 3 else (2 - t, 2)
        word = braid3.BraidWord.parse(f"1^{k} {last}")
        fibers.append(("unknot", (), (word,)) if abs(k) == 1 else ("torus", (k,), (word,)))
    for family, params, words in fibers:
        for word in words:
            if (braid3.trace_b3(word), braid3.exponent_sum(word)) != (t, n):
                raise AssertionError(f"{family} word {word.render()} lies outside cell ({t}, {n})")
    return [ExceptionalWitness(family, params, words, t, n) for family, params, words in fibers]
