"""Integral binary quadratic forms of discriminant t^2 - 4.

Covers the SL2(Z) substitution action, Gauss reduction (unique reduced
representative for definite forms, reduced cycles for indefinite ones),
class enumeration and class numbers, and the classical correspondence
between trace-t conjugacy classes and form classes of discriminant
t^2 - 4, in both directions, with the conjugacy test it gives.

For t != +-2 the discriminant t^2 - 4 is never zero or a perfect
square, so all forms in this pipeline have a != 0 and c != 0.  Both
definiteness signs are first-class citizens when the discriminant is
negative: a matrix of trace 0 may be conjugate to a rotation or its
inverse, and those two classes map to x^2 + y^2 and -x^2 - y^2.

The mirrors sigma (negate a and c) and rho (swap a and c) map reduced
cycles to reduced cycles, so one cycle walk finds an orbit of up to 4 classes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache

from . import _value, sl2z
from .sl2z import Mat2Z


class QForm(_value.Value):
    """The form a*x^2 + b*xy + c*y^2 with integer coefficients."""

    __slots__ = ("a", "b", "c")

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __neg__(self) -> "QForm":
        return QForm(-self.a, -self.b, -self.c)

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


class FormClassKey(_value.Value, defaults=(None,), compared=("disc", "rep")):
    """Canonical key of a form equivalence class.

    ``rep`` is the unique reduced representative for negative
    discriminant (sign of a preserved) and the lexicographically least
    member of the reduced cycle for positive discriminant.  Two keys
    are equal exactly when the underlying forms are equivalent; the
    cycle tuple is derived data and excluded from comparisons.
    """

    __slots__ = ("disc", "rep", "cycle")

    def rep_form(self) -> QForm:
        return QForm(*self.rep)

    def to_json(self) -> dict:
        out: dict = {"repr": list(self.rep), "discriminant": self.disc}
        if self.disc > 0:
            out["cycle"] = [list(f) for f in self.cycle or ()]
        return out


def act(m: Mat2Z, f: QForm) -> QForm:
    """Substitute (x, y) -> (a*x + b*y, c*x + d*y) into f.

    Composition order is act(M, act(N, f)) == act(N * M, f); the
    discriminant is preserved.
    """
    al, be, ga, de = m.a, m.b, m.c, m.d
    a, b, c = f.a, f.b, f.c
    return QForm(a * al * al + b * al * ga + c * ga * ga,
                 2 * a * al * be + b * (al * de + be * ga) + 2 * c * ga * de,
                 a * be * be + b * be * de + c * de * de)


def _check_trace(t: int) -> None:
    """Refuse t = +-2, where the discriminant t^2 - 4 is zero."""
    if t in (2, -2):
        raise _value.InputError("t = +-2 is excluded")


def _reduce_definite(a: int, b: int, c: int) -> tuple[int, int, int]:
    # Gauss reduction of s*(a, b, c), s the sign of a, to the positive
    # definite -a < b <= a <= c, b >= 0 if a == c; the result is s times it.
    s = 1 if a > 0 else -1
    a, b, c = s * a, s * b, s * c
    while True:
        k = (a - b) // (2 * a)  # (x, y) -> (x + ky, y) brings b into (-a, a]
        b, c = b + 2 * k * a, (a * k + b) * k + c
        if a <= c:
            return (s * a, s * (abs(b) if a == c else b), s * c)
        a, b, c = c, -b, a


def _is_reduced_indefinite(f: tuple[int, int, int], root: int) -> bool:
    a, b, _ = f
    return 0 < b <= root and root - b + 1 <= 2 * abs(a) <= root + b


def _steps(f: tuple[int, int, int], root: int) -> Iterator[tuple[int, int, int]]:
    """The forms after f under the step f -> f(-y, x + s*y) = (c, 2cs - b, a - bs + cs^2).

    s = sign(c) * floor((b + o) / 2|c|), with o = |c| if |c| > root and
    o = root otherwise, makes b' = 2cs - b the absolutely least value
    in (-|c|, |c|], or the largest value below sqrt(D), that is -b mod
    2|c|.  Iterating from any form of positive non-square discriminant
    reaches a reduced form, whose cycle the step walks.
    """
    a, b, c = f
    while True:
        if c > 0:
            s = (b + (c if c > root else root)) // (2 * c)
        else:
            s = -((b + (-c if -c > root else root)) // (-2 * c))
        a, b, c = c, 2 * c * s - b, a - (b - c * s) * s
        yield a, b, c


def _reduce_indefinite(f: tuple[int, int, int], root: int) -> tuple[int, int, int]:
    """The first reduced form that _steps reaches from f, or f if it is reduced."""
    steps = _steps(f, root)
    # While |c| > sqrt(D), |b'| <= |c| and D < c^2 give |c'| <= |c|/4; then a few steps reduce.
    g, limit = f, max(map(abs, f)).bit_length() + 4
    for _ in range(limit):
        if _is_reduced_indefinite(g, root):
            break
        g = next(steps)
    else:  # sizes, not values: int -> str refuses more than 4300 digits
        raise RuntimeError(f"reduction did not terminate in {limit} steps on a form of "
                           f"coefficient bit lengths {tuple(x.bit_length() for x in f)}")
    return g


def _cycle(g: tuple[int, int, int], root: int) -> list[tuple[int, int, int]]:
    """The reduced cycle of the reduced form g, from g."""
    cycle = [g]
    for h in _steps(g, root):
        if h == g:
            return cycle
        cycle.append(h)


def _rotated(cycle: list[tuple[int, int, int]],
             least: tuple[int, int, int]) -> tuple[tuple[int, int, int], ...]:
    """The cycle started at its least member, so that it is canonical."""
    start = cycle.index(least)
    return tuple(cycle[start:] + cycle[:start])


def reduce(f: QForm) -> FormClassKey:
    """Canonical class key of f.  Rejects square and zero discriminants."""
    disc = f.discriminant()
    if disc == 0:
        raise ValueError("zero discriminant is not supported")
    if disc < 0:
        return FormClassKey(disc, _reduce_definite(f.a, f.b, f.c))
    root = math.isqrt(disc)
    if root * root == disc:
        raise ValueError(f"square discriminant {disc} is not supported")
    cycle = _rotated(cycle := _cycle(_reduce_indefinite(f.triple(), root), root), min(cycle))
    return FormClassKey(disc, cycle[0], cycle)


def equivalent(f: QForm, g: QForm) -> bool:
    """Same SL2(Z) orbit test, via equality of class keys."""
    return reduce(f) == reduce(g)


def is_conjugate(m: Mat2Z, n: Mat2Z) -> bool:
    """Decide SL2(Z) conjugacy for matrices of shared trace t != +-2.

    Routes through the trace-t matrices <-> discriminant t^2-4 form
    classes correspondence: conjugate matrices yield equivalent forms
    and vice versa.
    """
    f, g = form_of_matrix(m), form_of_matrix(n)
    return m.trace() == n.trace() and equivalent(f, g)


def _sqrt_mod(n: int, p: int) -> int | None:
    """A square root of n modulo the odd prime p, or None (Tonelli-Shanks)."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, x, r = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while x != 1:
        i, x2 = 0, x
        while x2 != 1:
            x2 = x2 * x2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        x, r = x * c % p, r * b % p
    return r


def _reduced_indefinite_forms(t: int) -> Iterator[tuple[int, int, int]]:
    """Every reduced (x, b, -y) with u <= x <= y, of D = t^2 - 4, |t| >= 3.

    With T = |t|, isqrt(D) = T - 1 and b = T - 2u, the reduction
    conditions 0 < b < sqrt(D), ac = (b^2 - D)/4 and sqrt(D) - b < 2|a|
    < sqrt(D) + b say: the reduced forms are (x, b, -y) and (-x, b, y)
    with xy = u(T - u) - 1 and u <= x <= T - u - 1.  Each mirror orbit
    meets the forms yielded here, (x, b, -y) with u <= x <= y.  Those
    are reduced: u^2 <= xy < u(T - u) and x^2 <= xy < uv with v = T - u
    > u, so u < T/2 and x < v.  And every reduced form with 0 < a <= -c
    is one, as 2u - 1 < 2x.

    So u is the root of u^2 - Tu + 1 mod x in [1, x], and x^2 < u(T - u).
    A table holds the roots mod each such x.  A smallest-prime-factor
    sieve splits x into a prime power q and a coprime cofactor m, whose
    roots combine by the Chinese remainder theorem.  Mod an odd prime p
    the roots are (T +- sqrt(D)) / 2; mod 2 and mod p^e, e > 1, they are
    the lifts r + k p^(e-1), 0 <= k < p, of the roots r mod p^(e-1) that
    solve the equation.  The forms come in no particular order.
    """
    big = abs(t)
    disc = big * big - 4
    u = (big - 1) // 2  # u(T - u) is largest here
    top = math.isqrt(u * (big - u) - 1)
    spf = list(range(top + 1))
    for p in range(math.isqrt(top), 1, -1):  # the least p writes spf[x] last
        spf[p * p::p] = [p] * len(range(p * p, top + 1, p))
    roots: list[tuple[int, ...]] = [(), (0,)] + [()] * (top - 1)
    for x in range(2, top + 1):
        p = q = spf[x]
        if p < x and not (roots[p] and roots[x // p]):  # a root mod x is one mod p and x/p
            continue
        while x // q % p == 0:
            q *= p
        m = x // q
        if m > 1:
            k = pow(m, -1, q)
            roots[x] = tuple(s + m * ((r - s) * k % q) for r in roots[q] for s in roots[m])
        elif q > p or p == 2:
            low = q // p
            roots[x] = tuple(r for r0 in roots[low] for r in range(r0, q, low)
                             if (r * (r - big) + 1) % q == 0)
        elif (s := _sqrt_mod(disc, p)) is not None:
            half = (p + 1) // 2  # the inverse of 2 mod p
            roots[x] = tuple({(big + s) * half % p, (big - s) * half % p})
    for x in range(1, top + 1):
        for r in roots[x]:
            u = r or x
            prod = u * (big - u) - 1
            if x * x <= prod:
                yield x, big - 2 * u, -(prod // x)


def _mirrors(cycle: tuple[tuple[int, int, int], ...]) -> tuple[list[tuple[int, int, int]], ...]:
    """The sigma, rho and sigma-rho images of a reduced cycle, unrotated.

    sigma negates a and c; rho flips each member, in reverse order; sigma-rho is rho
    of the sigma image, whose negated integers it shares.  On reduced forms
    |c| < sqrt(D), so the step of _steps, (a, b, c) -> (c, 2cs - b, c'), takes
    s = sign(c) * floor((b + isqrt(D)) / 2|c|): b' = 2cs - b is the largest
    value below sqrt(D) that is -b mod 2|c|.  It depends on |c| alone, and on
    reduced forms 2|c| > sqrt(D) - b as for |a|, so b is that value for b':
    the step also takes rho(c, b', c') to rho(a, b, c).
    """
    sigma = [(-a, b, -c) for a, b, c in cycle]
    return sigma, [(c, b, a) for a, b, c in cycle[::-1]], [(c, b, a) for a, b, c in sigma[::-1]]


def _orbits(t: int) -> Iterator[dict[tuple[int, int, int], list[tuple[int, int, int]]]]:
    """Each mirror orbit of D = t^2 - 4, |t| >= 3: its distinct cycles, by least member.

    The cycle of each root-table form (_reduced_indefinite_forms) not yet seen is walked,
    and its mirror images (_mirrors) are the rest of its orbit.  Each reduced form has one
    image with 0 < a <= -c, in the root table, so seen keeps only those.  The cycles must
    partition the N reduced forms and have even lengths, else AssertionError at the end.
    """
    root = abs(t) - 1  # isqrt(D), as _reduced_indefinite_forms shows
    seen: set[tuple[int, int, int]] = set()
    listed, forms, odd = 0, 0, None
    for f in _reduced_indefinite_forms(t):
        forms += 2 if f[0] == -f[2] else 4  # f and its 3 mirror images, 2 distinct if x = y
        if f in seen:
            continue
        orbit = {}
        for cycle in (walked := _cycle(f, root), *_mirrors(walked)):
            if (rep := min(cycle)) not in orbit:  # a new class
                orbit[rep] = cycle
                for g in cycle:
                    if 0 < g[0] <= -g[2]:
                        seen.add(g)
                listed += len(cycle)
                odd = odd or len(cycle) % 2 and rep
        yield orbit
    if listed != forms:
        raise AssertionError(f"t={t}: the class cycles hold {listed} of {forms} reduced forms")
    if odd:
        raise AssertionError(f"t={t}: the class cycle of {odd} has odd length")


# Few entries: callers reuse one t (or t and -t) at a time, and at large
# |t| one entry takes megabytes.
@lru_cache(maxsize=4)
def enumerate_classes(t: int) -> tuple[FormClassKey, ...]:
    """All form classes of discriminant t^2 - 4, for t != +-2.

    Negative discriminant (|t| < 2): D is -3 or -4, of class number one, so the classes
    are those of x^2 + txy + y^2 and its negative, a separate negative definite class.
    Positive discriminant: the cycles _orbits yields, each rotated to start at its least
    member, which keys it, and sorted by it; _orbits checks them (AssertionError).
    """
    _check_trace(t)
    disc = t * t - 4
    if disc < 0:
        return (reduce(QForm(1, t, 1)), reduce(QForm(-1, -t, -1)))
    cycles = {rep: _rotated(cycle, rep) for orbit in _orbits(t) for rep, cycle in orbit.items()}
    return tuple(FormClassKey(disc, rep, cycles[rep]) for rep in sorted(cycles))


def _residues(t: int) -> tuple[tuple[FormClassKey, ...], dict[tuple[int, int, int], int]]:
    """The trace-t class keys, and the exponent residue mod 12 by rep.

    The residue is a class function, taken once per mirror orbit from the
    matrix M of its first key, of residue r (Zagier 1975; Barge-Ghys 1992).
    The sigma-image JMJ, J = diag(1, -1), sends S, T to S^-1, T^-1: -r; the
    rho-image JM^TJ reverses words, S, T to T^-1, S^-1: r; sigma-rho: -r.
    Each image class is named by the least member of its _mirrors cycle.
    Reduced forms have ac < 0 and the step makes a' = c, so along a key's
    cycle, of even length from its least member, a < 0 < c at even positions
    and c < 0 < a at odd ones.  Least members have a < 0: sigma's (-a, b, -c)
    and rho's (c, b, a) come from odd positions, sigma-rho's (-c, b, -a) from even.
    The Delta^2 rule: the classes of -t are those of t, each with residue
    6 - r.  A key K at -t is the class of -M = M (ST)^3, with M of form -K at
    t, of residue -r, and (ST)^3 = phi(Delta^2) of exponent 6.  Its tier-1
    home is tests/test_counts.py::TestTraceClasses::test_exact_residue_symmetries.
    """
    keys = enumerate_classes(t)
    residues: dict[tuple[int, int, int], int] = {}
    for key in keys:
        if key.rep not in residues:
            r = residues[key.rep] = sl2z.exponent_mod12(_matrix(key.rep, t))
            if key.cycle:  # indefinite: each image rep gets its residue, listed or not
                residues.setdefault(min([(-a, b, -c) for a, b, c in key.cycle[1::2]]), -r % 12)
                residues.setdefault(min([(c, b, a) for a, b, c in key.cycle[1::2]]), r)
                residues.setdefault(min([(-c, b, -a) for a, b, c in key.cycle[::2]]), -r % 12)
    return keys, residues


def class_number(t: int) -> int:
    """h(t), the number of form classes of discriminant t^2 - 4, for t != +-2.

    Counts the cycles of _orbits, with no class key, rotation or cache entry.
    """
    _check_trace(t)
    return 2 if abs(t) < 2 else sum(map(len, _orbits(t)))


def form_of_matrix(m: Mat2Z) -> QForm:
    """The form b*x^2 + (d-a)*xy - c*y^2 attached to [[a,b],[c,d]].

    Constant on conjugacy classes up to equivalence, with discriminant
    trace^2 - 4; defined for trace != +-2.
    """
    _check_trace(m.trace())
    return QForm(m.b, m.d - m.a, -m.c)


def matrix_of_form(f: QForm, t: int) -> Mat2Z:
    """A trace-t matrix mapping back to f under form_of_matrix.

    With f = (a, b, c) of discriminant t^2 - 4 the matrix is
    [[(t-b)/2, a], [-c, (t+b)/2]]: the parity b = t mod 2 is forced by
    the discriminant, the determinant is 1, and the round trip
    form_of_matrix(matrix_of_form(f, t)) == f is exact.
    """
    _check_trace(t)
    if f.discriminant() != t * t - 4:
        raise ValueError(f"discriminant {f.discriminant()} does not match t^2 - 4 = {t * t - 4}")
    return _matrix(f.triple(), t)


def _matrix(f: tuple[int, int, int], t: int) -> Mat2Z:
    """matrix_of_form without its checks, for a form of discriminant t^2 - 4."""
    return Mat2Z((t - f[1]) // 2, f[0], -f[2], (t + f[1]) // 2)
