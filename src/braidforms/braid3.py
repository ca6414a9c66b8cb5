"""Braid words in B3 and the invariants of their closures.

B3 has Artin generators s1, s2 with s1 s2 s1 = s2 s1 s2 and Garside
element D = s1 s2 s1.  Words are plain letter sequences; no normal
form is computed.  Three compatible measurements are taken along a
word: the exponent sum (abelianization), the reduced Burau matrix over
Z[q^{+-1}], and the integer matrix image under s1 -> S, s2 -> T, which
is the Burau matrix specialized at q = -1.  The Alexander and Jones
polynomials of the braid closure are closed functions of the Burau
trace and the exponent sum.

Both matrix images are taken syllable by syllable: a maximal run of one
letter is multiplied in as one closed-form generator power, so the Burau
product costs time linear in the degree per syllable rather than per
letter.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, groupby
from operator import neg, sub

from . import _value, sl2z
from .laurent import (CYCLOTOMIC3, GaussInt, HalfLaurent, NEG_INV_SQRT_Q,
                      NEG_Q, ONE, SQRT_Q, dense_add, i_power, monomial_pow)

#: Letters are +-1 and +-2: the generator index, negated for inverses.
VALID_LETTERS = tuple(sl2z.LETTERS)


class BraidParseError(_value.InputError):
    """Syntax error in a braid word, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BraidWord(_value.Value, defaults=((),)):
    """A finite word in the generators of B3 and their inverses."""

    __slots__ = ("letters", "__dict__")

    def __post_init__(self) -> None:
        for letter in self.letters:
            if letter not in VALID_LETTERS:
                raise ValueError(f"invalid letter {letter}; use +-1, +-2")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return BraidWord(self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(tuple(-x for x in reversed(self.letters)))

    @classmethod
    def parse(cls, text: str) -> "BraidWord":
        """Parse the whitespace-separated token grammar.

        A token is a signed generator index 1 or 2 with an optional
        integer power, e.g. "1 2 -1" or "1^-1 2^3".  Negative powers
        invert the letter; a power of zero contributes nothing.
        """
        letters: list[int] = []
        for letter, count in parse_syllables(text):
            letters += [letter] * count
        return cls(tuple(letters))

    # Derived once, on first use, into the instance dict of the immutable
    # word; equality, hash and repr read only `letters`.
    @cached_property
    def _runs(self) -> tuple[tuple[int, int], ...]:
        return tuple((letter, len(list(run))) for letter, run in groupby(self.letters))

    @cached_property
    def _burau(self) -> BurauMat:
        return _burau_product(self._runs)

    @cached_property
    def _eps(self) -> int:
        return len(self.letters) - 2 * (self.letters.count(-1) + self.letters.count(-2))

    @cached_property
    def _phi(self) -> sl2z.Mat2Z:
        return sl2z.st_product([(gen, p * n) for letter, n in self._runs
                                for gen, p in [sl2z.LETTERS[letter]]])

    def syllables(self) -> list[tuple[int, int]]:
        """The maximal runs of one letter, as (letter, count) pairs."""
        return list(self._runs)

    def render(self) -> str:
        """Inverse of parse on its image: runs collapse to powers."""
        return " ".join(str(letter) if count == 1 else f"{letter}^{count}"
                        for letter, count in self._runs)

    def __str__(self) -> str:
        return self.render()


def parse_syllables(text: str) -> list[tuple[int, int]]:
    """Read the token grammar of BraidWord.parse into (letter, count) runs.

    Counts are positive and neighbouring runs have different letters, as
    in BraidWord.syllables.  Nothing is expanded, so the size of a word
    can be read before its letters are built.
    """
    runs: list[tuple[int, int]] = []
    pos = 0
    for token in text.split():
        pos = text.index(token, pos)
        base, _, power_text = token.partition("^")
        try:
            letter = int(base)
        except ValueError:
            raise BraidParseError(f"malformed generator {base!r}", pos) from None
        if letter not in VALID_LETTERS:
            raise BraidParseError(f"generator index out of range for B3: {base}", pos)
        power = 1
        if "^" in token:
            try:
                power = int(power_text)
            except ValueError:
                raise BraidParseError(f"malformed power {power_text!r}", pos) from None
        if power < 0:
            letter, power = -letter, -power
        if runs and runs[-1][0] == letter:
            runs[-1] = (letter, runs[-1][1] + power)
        elif power:
            runs.append((letter, power))
        pos += len(token)
    return runs


def exponent_sum(w: BraidWord) -> int:
    """The abelianization B3 -> Z: signed letter count, kept on the word."""
    return w._eps


def garside_power(k: int) -> BraidWord:
    """The word (s1 s2 s1)**k, or its inverse (-1 -2 -1)**-k for k < 0; exponent sum 3k."""
    s = 1 if k >= 0 else -1
    return BraidWord((s, 2 * s, s) * abs(k))


class BurauMat(_value.Value):
    """A 2x2 matrix over Z[q^{+-1}], row-major entries."""

    __slots__ = ("e11", "e12", "e21", "e22", "__dict__")

    def __mul__(self, other: "BurauMat") -> "BurauMat":
        return BurauMat(self.e11 * other.e11 + self.e12 * other.e21,
                        self.e11 * other.e12 + self.e12 * other.e22,
                        self.e21 * other.e11 + self.e22 * other.e21,
                        self.e21 * other.e12 + self.e22 * other.e22)

    # Summed once, on first use, into the instance dict: alexander and jones both read it.
    @cached_property
    def _trace(self) -> HalfLaurent:
        return self.e11 + self.e22

    def trace(self) -> HalfLaurent:
        return self._trace

    def det(self) -> HalfLaurent:
        return self.e11 * self.e22 - self.e12 * self.e21

    def entries(self) -> tuple[HalfLaurent, HalfLaurent, HalfLaurent, HalfLaurent]:
        return (self.e11, self.e12, self.e21, self.e22)

    def at_q_minus_one(self) -> sl2z.Mat2Z:
        """Entrywise evaluation at q = -1; the result is integral."""
        values = []
        for entry in self.entries():
            g = entry.at_q_minus_one()
            if g.im != 0:
                raise ArithmeticError(f"non-integer specialization {g} of {entry}")
            values.append(g.re)
        return sl2z.Mat2Z(*values)


# Inside burau the entries are dense polynomials in r = -q, in the
# (offset, coefficients) layout of laurent.dense_add.  With
# G_n(r) = 1 + r + ... + r**(n-1) and n > 0, the generator powers are,
# in r and in q:
#   s1^n  = [[1, r G_n(r)], [0, r^n]]          = [[1, -q G_n(-q)], [0, (-q)^n]]
#   s1^-n = [[1, -r^(1-n) G_n(r)], [0, r^-n]]  = [[1, -G_n(-1/q)], [0, (-1/q)^n]]
#   s2^n  = [[r^n, 0], [-G_n(r), 1]]           = [[(-q)^n, 0], [-G_n(-q), 1]]
#   s2^-n = [[r^-n, 0], [r^-n G_n(r), 1]]      = [[(-1/q)^n, 0], [-G_n(-1/q)/q, 1]]
# A power of s1 rescales column 2 by r^p (p = +-n) and adds column 1
# times its G term; a power of s2 does the same with the columns swapped.


def _syllable_entry(keep: tuple[int, list[int]], moved: tuple[int, list[int]],
                    letter: int, n: int) -> tuple[int, list[int]]:
    """r^p * keep + (G term of letter^n) * moved, one entry of M * letter^n.

    keep is the entry in the column that letter^n rescales, moved the
    entry beside it in the other column.  Multiplying by G_n(r) is one
    running sum, y_k = x_k - x_(k-n) + y_(k-1), so the cost is linear in
    the degree plus n.
    """
    p = n if letter > 0 else -n
    k_off, k = keep
    m_off, m = moved
    if not m:
        return k_off + p, k
    m_off += (letter in (1, -1)) + (p if p < 0 else 0)
    if n > 1:
        m = list(accumulate(map(sub, m + [0] * (n - 1), [0] * n + m[:-1])))
    return dense_add(k_off + p, k, m_off, m, 1 if letter in (1, -2) else -1)


def _r_to_laurent(entry: tuple[int, list[int]]) -> HalfLaurent:
    """A dense polynomial in r = -q as an element of Z[sqrt(q), 1/sqrt(q)].

    r^e goes to s-exponent 2e; the odd powers of r, every fourth slot from
    0 or 2 by the parity of the offset, change sign in one slice.
    """
    off, coeffs = entry
    s_coeffs = [0] * (2 * len(coeffs) - 1)
    s_coeffs[::2] = coeffs
    odd = slice(0 if off & 1 else 2, None, 4)
    s_coeffs[odd] = map(neg, s_coeffs[odd])
    return HalfLaurent.from_dense(2 * off, s_coeffs)


def burau(w: BraidWord) -> BurauMat:
    """The reduced Burau matrix of w: the ordered product of generator images.

    The product is taken one syllable at a time, by the closed forms of
    the generator powers above, on dense coefficient lists; a syllable
    costs time linear in the degree so far plus its length.  It is taken
    once per word and kept on the word.
    """
    return w._burau


def _burau_product(runs: tuple[tuple[int, int], ...]) -> BurauMat:
    m11, m12, m21, m22 = (0, [1]), (0, []), (0, []), (0, [1])
    for letter, n in runs:
        if letter in (1, -1):
            m12 = _syllable_entry(m12, m11, letter, n)
            m22 = _syllable_entry(m22, m21, letter, n)
        else:
            m11 = _syllable_entry(m11, m12, letter, n)
            m21 = _syllable_entry(m21, m22, letter, n)
    return BurauMat(*map(_r_to_laurent, (m11, m12, m21, m22)))


def phi(w: BraidWord) -> sl2z.Mat2Z:
    """The integer matrix image of w under s1 -> S, s2 -> T, one syllable at a time.

    Each run is one S or T power of sl2z.LETTERS, folded by sl2z.st_product.
    It is taken once per word and kept on the word.
    """
    return w._phi


def trace_b3(w: BraidWord) -> int:
    """Trace of phi(w); a class function on B3."""
    return phi(w).trace()


def alexander(w: BraidWord) -> HalfLaurent:
    """Alexander polynomial of the closure of w.

    Computed as (-1/sqrt(q))^(eps-2) * (1 - tr Burau + (-q)^eps) / (1+q+q^2);
    the division is exact for every braid word.
    """
    eps = exponent_sum(w)
    numerator = ONE - burau(w).trace() + monomial_pow(NEG_Q, eps)
    quotient = numerator.exact_div(CYCLOTOMIC3)
    return monomial_pow(NEG_INV_SQRT_Q, eps - 2) * quotient


def jones(w: BraidWord) -> HalfLaurent:
    """Jones polynomial of the closure of w: sqrt(q)^eps * (q + 1/q + tr Burau)."""
    eps = exponent_sum(w)
    ring_part = HalfLaurent({2: 1, -2: 1}) + burau(w).trace()
    return monomial_pow(SQRT_Q, eps) * ring_part


def special_value(w: BraidWord) -> GaussInt:
    """i^eps * (trace - 2): the shared value of Alexander and Jones at q = -1."""
    return i_power(exponent_sum(w)) * GaussInt(trace_b3(w) - 2, 0)
