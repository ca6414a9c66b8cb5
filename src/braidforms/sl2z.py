"""Exact SL2(Z) arithmetic and generator decomposition.

The group is generated by S = [[1,1],[0,1]] and T = [[1,0],[-1,1]],
subject to STS = TST and (ST)^6 = I.  Abelianizing that presentation
identifies S and T and kills 12 times the generator, so the total
power sum of any S/T decomposition of a matrix is well defined modulo
12.  That residue is the exponent class function computed here.
"""

from __future__ import annotations

from . import _value

#: An S/T word: pairs (generator, power) with generator "S" or "T",
#: multiplied left to right.
STWord = list[tuple[str, int]]


class Mat2Z(_value.Value):
    """A 2x2 integer matrix [[a,b],[c,d]] of determinant +1."""

    __slots__ = ("a", "b", "c", "d")

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant is not 1: {self.as_rows()}")

    def __mul__(self, other: "Mat2Z") -> "Mat2Z":
        return Mat2Z(self.a * other.a + self.b * other.c,
                     self.a * other.b + self.b * other.d,
                     self.c * other.a + self.d * other.c,
                     self.c * other.b + self.d * other.d)

    def inverse(self) -> "Mat2Z":
        return Mat2Z(self.d, -self.b, -self.c, self.a)

    def trace(self) -> int:
        return self.a + self.d

    def as_rows(self) -> list[list[int]]:
        """Row-major nested lists, the JSON rendering of a matrix."""
        return [[self.a, self.b], [self.c, self.d]]

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


IDENTITY = Mat2Z(1, 0, 0, 1)
S = Mat2Z(1, 1, 0, 1)
T = Mat2Z(1, 0, -1, 1)


def gen_power(gen: str, p: int) -> Mat2Z:
    """S**p or T**p in closed form."""
    if gen == "S":
        return Mat2Z(1, p, 0, 1)
    if gen == "T":
        return Mat2Z(1, 0, -p, 1)
    raise ValueError(f"unknown generator {gen!r}")


def st_product(word: STWord) -> Mat2Z:
    """Multiply out an S/T word."""
    m = IDENTITY
    for gen, p in word:
        m = m * gen_power(gen, p)
    return m


def decompose_st(m: Mat2Z) -> STWord:
    """Write m as a word in S and T powers.

    The first column is reduced by the nearest-integer Euclidean
    algorithm.  Each step takes the S power k = round(a/c), less one
    when a = kc so that a stays nonzero, and then the T power that
    leaves |c| <= |a|/2.  Once c is 0 what is left is +-S^b, and -I is
    written (ST)^3.  Only the first and the last S power can be zero;
    dropping them keeps the generators alternating.  The output word is
    not canonical; its defining property is st_product(decompose_st(m)) == m.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    word: STWord = []  # product(word) == m * current^-1
    while c:
        k = (2 * a + c) // (2 * c)  # round(a/c), ties toward +infinity
        if a == k * c:
            k -= 1
        a, b = a - k * c, b - k * d
        word.append(("S", k))
        p = (2 * c + a) // (2 * a)
        c, d = c - p * a, d - p * b
        word.append(("T", -p))
    if a == -1:
        word += [("S", 1), ("T", 1)] * 3
        a, b, d = 1, -b, 1
    assert (a, c, d) == (1, 0, 1)
    word.append(("S", b))
    return [(gen, p) for gen, p in word if p]


def exponent_mod12(m: Mat2Z) -> int:
    """Total S/T power sum of m, modulo 12.

    This is a class function and a homomorphism onto Z/12; on images
    of braid words it reduces the braid exponent sum mod 12.
    """
    return sum(p for _, p in decompose_st(m)) % 12
