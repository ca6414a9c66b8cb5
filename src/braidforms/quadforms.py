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

from . import _value
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


def _check_discriminant(disc: int) -> int:
    if disc == 0:
        raise ValueError("zero discriminant is not supported")
    if disc > 0:
        r = math.isqrt(disc)
        if r * r == disc:
            raise ValueError(f"square discriminant {disc} is not supported")
        return r
    return 0


def _reduce_definite(a: int, b: int, c: int) -> tuple[int, int, int]:
    # Positive definite Gauss reduction: -a < b <= a <= c, b >= 0 if a == c.
    while True:
        k = (a - b) // (2 * a)  # (x, y) -> (x + ky, y) brings b into (-a, a]
        b, c = b + 2 * k * a, (a * k + b) * k + c
        if a <= c:
            return (a, abs(b) if a == c else b, c)
        a, b, c = c, -b, a


def _is_reduced_indefinite(f: tuple[int, int, int], root: int) -> bool:
    a, b, _ = f
    if b < 1 or b > root:
        return False
    return root - b + 1 <= 2 * abs(a) <= root + b


def _neighbor(f: tuple[int, int, int], disc: int, root: int) -> tuple[int, int, int]:
    """One reduction step (a,b,c) -> (c,b',c') with b' = -b mod 2|c|.

    For |c| <= root the new middle coefficient is the largest value
    below sqrt(disc) in its residue class; otherwise it is the absolutely
    least one.  Iterating from any form of positive non-square
    discriminant reaches a reduced form, and on reduced forms this step
    walks the cycle.
    """
    _, b, c = f
    m = 2 * abs(c)
    if abs(c) > root:
        bp = (-b) % m
        if bp > abs(c):
            bp -= m
    else:
        bp = -b + m * ((root + b) // m)
    num = bp * bp - disc
    assert num % (4 * c) == 0
    return (c, bp, num // (4 * c))


def _indefinite_cycle(f: tuple[int, int, int], disc: int, root: int) -> tuple[tuple[int, int, int], ...]:
    g = f
    for _ in range(100000):
        if _is_reduced_indefinite(g, root):
            break
        g = _neighbor(g, disc, root)
    else:
        raise RuntimeError(f"reduction did not terminate on {f}")
    cycle = [g]
    h = _neighbor(g, disc, root)
    while h != g:
        cycle.append(h)
        h = _neighbor(h, disc, root)
    return _rotated(cycle)


def _rotated(cycle: list[tuple[int, int, int]]) -> tuple[tuple[int, int, int], ...]:
    """The cycle started at its least member, so that it is canonical."""
    start = cycle.index(min(cycle))
    return tuple(cycle[start:] + cycle[:start])


def reduce(f: QForm) -> FormClassKey:
    """Canonical class key of f.  Rejects square and zero discriminants."""
    disc = f.discriminant()
    root = _check_discriminant(disc)
    if disc < 0:
        if f.a > 0:
            rep = _reduce_definite(f.a, f.b, f.c)
        else:
            x, y, z = _reduce_definite(-f.a, -f.b, -f.c)
            rep = (-x, -y, -z)
        return FormClassKey(disc, rep)
    cycle = _indefinite_cycle(f.triple(), disc, root)
    return FormClassKey(disc, cycle[0], cycle)


def equivalent(f: QForm, g: QForm) -> bool:
    """Same SL2(Z) orbit test, via equality of class keys."""
    if f.discriminant() != g.discriminant():
        _check_discriminant(f.discriminant())
        _check_discriminant(g.discriminant())
        return False
    return reduce(f) == reduce(g)


def is_conjugate(m: Mat2Z, n: Mat2Z) -> bool:
    """Decide SL2(Z) conjugacy for matrices of shared trace t != +-2.

    Routes through the trace-t matrices <-> discriminant t^2-4 form
    classes correspondence: conjugate matrices yield equivalent forms
    and vice versa.
    """
    if m.trace() in (2, -2) or n.trace() in (2, -2):
        raise ValueError("trace +-2 (parabolic/central) is not supported")
    if m.trace() != n.trace():
        return False
    return equivalent(form_of_matrix(m), form_of_matrix(n))


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
    """One reduced form per mirror orbit, of discriminant D = t^2 - 4, |t| >= 3.

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
        while x // q % p == 0:
            q *= p
        m = x // q
        if m > 1 and roots[q] and roots[m]:
            k = pow(m, -1, q)
            roots[x] = tuple(s + m * ((r - s) * k % q) for r in roots[q] for s in roots[m])
        elif m == 1 and (q > p or p == 2):
            low = q // p
            roots[x] = tuple(r for r0 in roots[low] for r in range(r0, q, low)
                             if (r * (r - big) + 1) % q == 0)
        elif m == 1 and (s := _sqrt_mod(disc, p)) is not None:
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

    sigma negates a and c; rho flips each member, in reverse order.  The
    step (a, b, c) -> (c, b', c') picks b' as the largest value below
    sqrt(D) that is -b mod 2|c|.  It depends on |c| alone, and on
    reduced forms 2|c| > sqrt(D) - b as for |a|, so b is that value for
    b': the step also takes rho(c, b', c') to rho(a, b, c).
    """
    flipped = [(c, b, a) for a, b, c in reversed(cycle)]
    return [(-a, b, -c) for a, b, c in cycle], flipped, [(-a, b, -c) for a, b, c in flipped]


# Few entries: callers reuse one t (or t and -t) at a time, and at large
# |t| one entry takes megabytes.
@lru_cache(maxsize=4)
def enumerate_classes(t: int) -> tuple[FormClassKey, ...]:
    """All form classes of discriminant t^2 - 4, for t != +-2.

    Negative discriminant (|t| < 2): D is -3 or -4, of class number
    one, so the classes are those of x^2 + txy + y^2 and its negative,
    a separate negative definite class.
    Positive discriminant: the cycle of each form of
    _reduced_indefinite_forms not yet seen is walked, and its mirror
    images (_mirrors) are the other classes of its orbit; some may
    coincide with it.  Each cycle, started at its least member, is one
    class, and the classes are sorted by that representative.
    """
    if t in (2, -2):
        raise ValueError("t = +-2 is excluded (discriminant 0)")
    disc = t * t - 4
    root = _check_discriminant(disc)
    if disc < 0:
        return (reduce(QForm(1, t, 1)), reduce(QForm(-1, -t, -1)))
    seen: set[tuple[int, int, int]] = set()
    cycles = {}
    for f in _reduced_indefinite_forms(t):
        if f in seen:
            continue
        walked = _indefinite_cycle(f, disc, root)
        for cycle in (walked, *map(_rotated, _mirrors(walked))):
            if cycle[0] not in cycles:
                cycles[cycle[0]] = cycle
                seen.update(cycle)
    return tuple(FormClassKey(disc, rep, cycles[rep]) for rep in sorted(cycles))


def class_number(t: int) -> int:
    """h(t): the number of form classes of discriminant t^2 - 4."""
    return len(enumerate_classes(t))


def form_of_matrix(m: Mat2Z) -> QForm:
    """The form b*x^2 + (d-a)*xy - c*y^2 attached to [[a,b],[c,d]].

    Constant on conjugacy classes up to equivalence, with discriminant
    trace^2 - 4; defined for trace != +-2.
    """
    if m.trace() in (2, -2):
        raise ValueError("trace +-2 is excluded")
    return QForm(m.b, m.d - m.a, -m.c)


def matrix_of_form(f: QForm, t: int) -> Mat2Z:
    """A trace-t matrix mapping back to f under form_of_matrix.

    With f = (a, b, c) of discriminant t^2 - 4 the matrix is
    [[(t-b)/2, a], [-c, (t+b)/2]]: the parity b = t mod 2 is forced by
    the discriminant, the determinant is 1, and the round trip
    form_of_matrix(matrix_of_form(f, t)) == f is exact.
    """
    if t in (2, -2):
        raise ValueError("t = +-2 is excluded")
    if f.discriminant() != t * t - 4:
        raise ValueError(f"discriminant {f.discriminant()} does not match t^2 - 4 = {t * t - 4}")
    return Mat2Z((t - f.b) // 2, f.a, -f.c, (t + f.b) // 2)
