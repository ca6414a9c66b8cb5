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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .sl2z import Mat2Z


@dataclass(frozen=True)
class QForm:
    """The form a*x^2 + b*xy + c*y^2 with integer coefficients."""

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __neg__(self) -> "QForm":
        return QForm(-self.a, -self.b, -self.c)

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


@dataclass(frozen=True)
class FormClassKey:
    """Canonical key of a form equivalence class.

    ``rep`` is the unique reduced representative for negative
    discriminant (sign of a preserved) and the lexicographically least
    member of the reduced cycle for positive discriminant.  Two keys
    are equal exactly when the underlying forms are equivalent; the
    cycle tuple is derived data and excluded from comparisons.
    """

    disc: int
    rep: tuple[int, int, int]
    cycle: tuple[tuple[int, int, int], ...] | None = field(default=None, compare=False)

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
        if c < a:
            a, b, c = c, -b, a
        elif b > a or b <= -a:
            r = (b + a) % (2 * a)
            bp = r - a
            if bp == -a:
                bp = a
            k = (bp - b) // (2 * a)
            c = a * k * k + b * k + c
            b = bp
        else:
            if a == c and b < 0:
                b = -b
            return (a, b, c)


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
    # Rotate to start at the least member so the cycle is canonical.
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
    return FormClassKey(disc, min(cycle), cycle)


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


def _primes_upto(n: int) -> list[int]:
    """The primes p <= n, n >= 1, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(2, n + 1) if sieve[p]]


def _sqrt_mod(n: int, p: int) -> int | None:
    """A square root of n modulo the odd prime p, or None (Tonelli-Shanks)."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
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


def _reduced_indefinite_forms(t: int) -> list[tuple[int, int, int]]:
    """All reduced forms of discriminant D = t^2 - 4, |t| >= 3, sorted.

    With T = |t| the root isqrt(D) is T - 1, and writing b = T - 2u
    turns the reduction conditions 0 < b < sqrt(D), ac = (b^2 - D)/4 and
    sqrt(D) - b < 2|a| < sqrt(D) + b into: the reduced forms are
    exactly (x, T - 2u, -y) and (-x, T - 2u, y) for 1 <= u <= (T-1)/2,
    x * y = u(T - u) - 1 and u <= x <= T - u - 1.

    The values u(T - u) - 1 are factored all at once by a sieve: p
    divides the value at u exactly when u is a root of u^2 - Tu + 1
    mod p, that is u = (T +- sqrt(D)) / 2 mod p (for p = 2: T even and
    u odd).  Every prime p <= T/2 is sieved and divided out of each hit
    as often as it goes, so no root needs lifting mod p^k; the values
    are below (T/2)^2, so any cofactor left over is prime.  Each
    value's divisors in the window then give its forms.
    """
    big = abs(t)
    disc = big * big - 4
    top = (big - 1) // 2
    rest = [u * (big - u) - 1 for u in range(top + 1)]
    factors: list[list[tuple[int, int]]] = [[] for _ in range(top + 1)]
    for p in _primes_upto(big // 2):
        if p == 2:
            hits = (1,) if big % 2 == 0 else ()
        else:
            s = _sqrt_mod(disc, p)
            if s is None:
                continue
            half = (p + 1) // 2  # the inverse of 2 mod p
            hits = {(big + s) * half % p, (big - s) * half % p}
        for first in hits:
            for u in range(first, top + 1, p):
                v, e = rest[u] // p, 1
                while v % p == 0:
                    v //= p
                    e += 1
                rest[u] = v
                factors[u].append((p, e))
    out = []
    for u in range(1, top + 1):
        if rest[u] > 1:
            factors[u].append((rest[u], 1))
        divisors = [1]
        for p, e in factors[u]:
            power = divisors
            for _ in range(e):
                power = [d * p for d in power]
                divisors = divisors + power
        prod, b, hi = u * (big - u) - 1, big - 2 * u, big - u - 1
        for x in divisors:
            if u <= x <= hi:
                y = prod // x
                out.append((x, b, -y))
                out.append((-x, b, y))
    out.sort()
    return out


# Few entries: callers reuse one t (or t and -t) at a time, and at large
# |t| one entry takes megabytes.
@lru_cache(maxsize=4)
def enumerate_classes(t: int) -> tuple[FormClassKey, ...]:
    """All form classes of discriminant t^2 - 4, for t != +-2.

    Negative discriminant (|t| < 2): D is -3 or -4, of class number
    one, so the classes are those of x^2 + txy + y^2 and its negative,
    a separate negative definite class.
    Positive discriminant: the reduced forms come from a divisor sieve
    over the parametrisation b = |t| - 2u (see
    _reduced_indefinite_forms), and one pass over them in ascending
    order walks the neighbor-step cycle of each form not yet seen.
    Each cycle is one class; its first form met is its least member,
    so the classes come out ordered by representative.
    """
    if t in (2, -2):
        raise ValueError("t = +-2 is excluded (discriminant 0)")
    disc = t * t - 4
    root = _check_discriminant(disc)
    if disc < 0:
        return (reduce(QForm(1, t, 1)), reduce(QForm(-1, -t, -1)))
    seen: set[tuple[int, int, int]] = set()
    keys = []
    for f in _reduced_indefinite_forms(t):
        if f in seen:
            continue
        cycle = _indefinite_cycle(f, disc, root)
        seen.update(cycle)
        keys.append(FormClassKey(disc, min(cycle), cycle))
    return tuple(keys)


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
