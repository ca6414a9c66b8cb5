"""Exact arithmetic in the ring Z[sqrt(q), 1/sqrt(q)].

Elements are Laurent polynomials in the half-power variable s = sqrt(q),
stored densely: the s-exponent of the lowest term and the coefficients
from there up, with no zero at either end, so structural equality agrees
with mathematical equality and memory grows with the exponent span.  q
itself sits at s-exponent 2.  Coefficients are plain Python integers, so
there is no overflow to guard against.  The Burau kernel in braid3 shares
the layout and its addition, dense_add.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from operator import add, sub

from . import _value


class NonDivisibleError(ArithmeticError):
    """Raised by exact_div when the divisor does not divide exactly."""


class GaussInt(_value.Value):
    """A Gaussian integer re + im*i with exact integer parts."""

    __slots__ = ("re", "im")

    def __add__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        return f"{self.re}{self.im:+d}i"


# i^r for r = 0..3, as (re, im) multipliers.
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def i_power(n: int) -> GaussInt:
    """The Gaussian unit i**n for any integer n."""
    re, im = _I_POWERS[n % 4]
    return GaussInt(re, im)


def dense_add(a_off: int, a: Sequence[int], b_off: int, b: Sequence[int],
              sign: int = 1) -> tuple[int, list[int]]:
    """a + sign * b for dense polynomials stored as (offset, coefficients).

    The pair stands for sum(c * x**(offset + i)).  The result has no zero
    at either end, and zero is (0, []).  A sum whose ends do not cancel,
    the usual case, is returned at once; otherwise plain loops trim it.
    """
    if not b:
        return a_off, list(a)
    if not a:
        return b_off, list(b) if sign > 0 else [-c for c in b]
    a_end, b_end = a_off + len(a), b_off + len(b)
    lo = a_off if a_off < b_off else b_off
    out = [0] * ((a_end if a_end > b_end else b_end) - lo)
    out[a_off - lo:a_end - lo] = a
    j, k = b_off - lo, b_end - lo
    out[j:k] = map(add if sign > 0 else sub, out[j:k], b)
    if out[0] and out[-1]:
        return lo, out
    while out and not out[-1]:
        out.pop()
    start = 0
    while start < len(out) and not out[start]:
        start += 1
    return (lo + start if out else 0), out[start:]


class HalfLaurent:
    """An element of Z[sqrt(q), 1/sqrt(q)] in canonical dense form."""

    __slots__ = ("_off", "_coeffs")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        terms = {e: c for e, c in items if c != 0}
        self._off = min(terms, default=0)
        top = max(terms, default=-1)
        self._coeffs = tuple(terms.get(e, 0) for e in range(self._off, top + 1))

    @classmethod
    def from_dense(cls, offset: int, coeffs: Sequence[int]) -> "HalfLaurent":
        """Wrap coefficients from s-exponent offset up, with no zero at either end."""
        res = cls.__new__(cls)
        res._off, res._coeffs = offset if coeffs else 0, tuple(coeffs)
        return res

    @classmethod
    def from_int(cls, n: int) -> "HalfLaurent":
        return cls({0: n})

    @classmethod
    def q_power(cls, k: int) -> "HalfLaurent":
        """The monomial q**k (stored at s-exponent 2k)."""
        return cls({2 * k: 1})

    def items(self) -> Iterator[tuple[int, int]]:
        """Coefficients as (s-exponent, coefficient) pairs, exponent-sorted."""
        return ((e, c) for e, c in enumerate(self._coeffs, self._off) if c)

    def coefficient(self, s_exponent: int) -> int:
        i = s_exponent - self._off
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else 0

    def is_zero(self) -> bool:
        return not self._coeffs

    def support(self) -> list[int]:
        return [e for e, _ in self.items()]

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HalfLaurent):
            return self._off == other._off and self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ((other,) if other else ()) and self._off == 0
        return NotImplemented

    def __hash__(self) -> int:
        if self._off == 0 and len(self._coeffs) <= 1:
            # A constant hashes as the int it equals.
            return hash(self.coefficient(0))
        return hash(tuple(self.items()))

    def __neg__(self) -> "HalfLaurent":
        return HalfLaurent.from_dense(self._off, [-c for c in self._coeffs])

    def __add__(self, other: "HalfLaurent | int", sign: int = 1) -> "HalfLaurent":
        if isinstance(other, int):
            other = HalfLaurent.from_int(other)
        return HalfLaurent.from_dense(*dense_add(self._off, self._coeffs,
                                                 other._off, other._coeffs, sign))

    __radd__ = __add__

    def __sub__(self, other: "HalfLaurent | int") -> "HalfLaurent":
        return self.__add__(other, -1)

    def __rsub__(self, other: int) -> "HalfLaurent":
        return HalfLaurent.from_int(other) - self

    def __mul__(self, other: "HalfLaurent | int") -> "HalfLaurent":
        if isinstance(other, int):
            other = HalfLaurent.from_int(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return ZERO
        # One shifted, scaled copy of the longer operand per term of the
        # shorter; the end coefficients are products of nonzero integers.
        out = [0] * (len(a) + len(b) - 1)
        for j, c in enumerate(b):
            if c:
                out[j:j + len(a)] = [x + c * y for x, y in zip(out[j:j + len(a)], a)]
        return HalfLaurent.from_dense(self._off + other._off, out)

    __rmul__ = __mul__

    def exact_div(self, divisor: "HalfLaurent") -> "HalfLaurent":
        """Divide exactly by a nonzero divisor, or raise NonDivisibleError.

        Long division runs down a copy of the dividend's coefficients from
        the top, so each quotient term costs one pass over the divisor's
        terms and takes the slot of the dividend term it cancels.  Every
        leading-coefficient division must be exact, and the remainder left
        below the divisor's degree must be zero.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self._coeffs)
        *lower, d_lead = divisor._coeffs
        d_deg = len(lower)
        den = [(e, v) for e, v in enumerate(lower) if v]
        for shift in range(len(rem) - 1 - d_deg, -1, -1):
            c, r = divmod(rem[shift + d_deg], d_lead)
            if r:
                raise NonDivisibleError("leading coefficient does not divide")
            rem[shift + d_deg] = c
            if c:
                for e, v in den:
                    rem[e + shift] -= c * v
        if any(rem[:d_deg]):
            raise NonDivisibleError("remainder of lower degree than divisor")
        return HalfLaurent.from_dense(self._off - divisor._off, rem[d_deg:])

    def at_q_minus_one(self) -> GaussInt:
        """Evaluate at q = -1, i.e. substitute s = i."""
        # sums[r]: the coefficients at s-exponents congruent to r mod 4.
        sums = [sum(self._coeffs[(r - self._off) % 4::4]) for r in range(4)]
        return GaussInt(sums[0] - sums[2], sums[1] - sums[3])

    def render(self) -> str:
        """Render with q-exponents, lowest term first.

        Integral exponents print as integers, half-integral ones as k/2,
        and the constant term prints bare, e.g. "-1*q^-1 + 2 + 1*q^3/2".
        """
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self.items():
            if e == 0:
                parts.append(str(c))
            elif e % 2 == 0:
                parts.append(f"{c}*q^{e // 2}")
            else:
                parts.append(f"{c}*q^{e}/2")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"HalfLaurent({dict(self.items())!r})"


ZERO = HalfLaurent()
ONE = HalfLaurent({0: 1})
Q = HalfLaurent({2: 1})
SQRT_Q = HalfLaurent({1: 1})
NEG_SQRT_Q = HalfLaurent({1: -1})
NEG_Q = HalfLaurent({2: -1})
NEG_INV_SQRT_Q = HalfLaurent({-1: -1})
#: 1 + q + q^2, the fixed denominator of the braid-closure Alexander formula.
CYCLOTOMIC3 = HalfLaurent({0: 1, 2: 1, 4: 1})


def monomial_pow(base: HalfLaurent, n: int) -> HalfLaurent:
    """base**n for a unit monomial base (single term, coefficient +-1).

    Negative n is allowed; unit monomials are invertible in the Laurent
    ring.  Covers the prefactors (+-sqrt(q))**n and (-q)**n exactly.
    """
    if len(base._coeffs) != 1 or base._coeffs[0] not in (1, -1):
        raise ValueError(f"not a unit monomial: {base!r}")
    coeff = 1 if (base._coeffs[0] == 1 or n % 2 == 0) else -1
    return HalfLaurent.from_dense(base._off * n, (coeff,))
