"""Exact arithmetic in the ring Z[sqrt(q), 1/sqrt(q)].

Elements are sparse Laurent polynomials in the half-power variable
s = sqrt(q), stored as a map from integer s-exponent to integer
coefficient; q itself sits at s-exponent 2.  Coefficients are plain
Python integers, so there is no overflow to guard against.  Zero
coefficients are never stored, which makes structural equality agree
with mathematical equality.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass


class NonDivisibleError(ArithmeticError):
    """Raised by exact_div when the divisor does not divide exactly."""


@dataclass(frozen=True)
class GaussInt:
    """A Gaussian integer re + im*i with exact integer parts."""

    re: int
    im: int

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


class HalfLaurent:
    """An element of Z[sqrt(q), 1/sqrt(q)] in canonical sparse form."""

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        self._coeffs = {e: c for e, c in items if c != 0}
        self._hash = None

    @classmethod
    def from_int(cls, n: int) -> "HalfLaurent":
        return cls({0: n})

    @classmethod
    def q_power(cls, k: int) -> "HalfLaurent":
        """The monomial q**k (stored at s-exponent 2k)."""
        return cls({2 * k: 1})

    def items(self) -> Iterator[tuple[int, int]]:
        """Coefficients as (s-exponent, coefficient) pairs, exponent-sorted."""
        return iter(sorted(self._coeffs.items()))

    def coefficient(self, s_exponent: int) -> int:
        return self._coeffs.get(s_exponent, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def support(self) -> list[int]:
        return sorted(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HalfLaurent):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._coeffs.items())))
        return self._hash

    def __neg__(self) -> "HalfLaurent":
        return HalfLaurent({e: -c for e, c in self._coeffs.items()})

    def __add__(self, other: "HalfLaurent | int") -> "HalfLaurent":
        if isinstance(other, int):
            other = HalfLaurent.from_int(other)
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        res = HalfLaurent.__new__(HalfLaurent)
        res._coeffs = out
        res._hash = None
        return res

    __radd__ = __add__

    def __sub__(self, other: "HalfLaurent | int") -> "HalfLaurent":
        return self + (-other)

    def __rsub__(self, other: int) -> "HalfLaurent":
        return HalfLaurent.from_int(other) + (-self)

    def __mul__(self, other: "HalfLaurent | int") -> "HalfLaurent":
        if isinstance(other, int):
            other = HalfLaurent.from_int(other)
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return _ZERO
        # Single-term operands cover the generator matrices, so shift fast.
        if len(a) == 1:
            (e1, c1), = a.items()
            out = {e1 + e: c1 * c for e, c in b.items()}
        elif len(b) == 1:
            (e1, c1), = b.items()
            out = {e1 + e: c1 * c for e, c in a.items()}
        else:
            out = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    v = out.get(e, 0) + c1 * c2
                    if v:
                        out[e] = v
                    else:
                        del out[e]
        res = HalfLaurent.__new__(HalfLaurent)
        res._coeffs = out
        res._hash = None
        return res

    __rmul__ = __mul__

    def exact_div(self, divisor: "HalfLaurent") -> "HalfLaurent":
        """Divide exactly by a nonzero divisor, or raise NonDivisibleError.

        Division is carried out in the integer Laurent ring in s: both
        operands are shifted to ordinary polynomials, the dividend is laid
        out as a dense coefficient list, and long division runs down it
        from the top degree, so each quotient term costs one pass over the
        divisor's terms.  Every leading-coefficient division must be exact,
        and the remainder left below the divisor's degree must be zero.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return _ZERO
        p_shift = min(self._coeffs)
        d_shift = min(divisor._coeffs)
        rem = [0] * (max(self._coeffs) - p_shift + 1)
        for e, c in self._coeffs.items():
            rem[e - p_shift] = c
        den = [(e - d_shift, c) for e, c in divisor._coeffs.items()]
        d_deg = max(divisor._coeffs) - d_shift
        d_lead = divisor._coeffs[d_deg + d_shift]
        quot: dict[int, int] = {}
        for shift in range(len(rem) - 1 - d_deg, -1, -1):
            c, r = divmod(rem[shift + d_deg], d_lead)
            if r:
                raise NonDivisibleError("leading coefficient does not divide")
            if c:
                quot[shift + p_shift - d_shift] = c
                for e, v in den:
                    rem[e + shift] -= c * v
        if any(rem[:d_deg]):
            raise NonDivisibleError("remainder of lower degree than divisor")
        return HalfLaurent(quot)

    def at_q_minus_one(self) -> GaussInt:
        """Evaluate at q = -1, i.e. substitute s = i."""
        re = im = 0
        for e, c in self._coeffs.items():
            r = e % 4
            if r == 0:
                re += c
            elif r == 1:
                im += c
            elif r == 2:
                re -= c
            else:
                im -= c
        return GaussInt(re, im)

    def render(self) -> str:
        """Render with q-exponents, lowest term first.

        Integral exponents print as integers, half-integral ones as k/2,
        and the constant term prints bare, e.g. "-1*q^-1 + 2 + 1*q^3/2".
        """
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in sorted(self._coeffs.items()):
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
        return f"HalfLaurent({dict(sorted(self._coeffs.items()))!r})"


_ZERO = HalfLaurent()

ZERO = _ZERO
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
    items = list(base._coeffs.items())
    if len(items) != 1 or items[0][1] not in (1, -1):
        raise ValueError(f"not a unit monomial: {base!r}")
    e, c = items[0]
    coeff = 1 if (c == 1 or n % 2 == 0) else -1
    return HalfLaurent({e * n: coeff})
