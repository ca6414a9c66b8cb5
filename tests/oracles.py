"""Brute-force oracles, and the one copy of each helper the test modules share.

Every oracle here is deliberately dumb: bounded exhaustive searches,
direct substitutions, trial division and textbook closed forms that are
independent of the library's reduction, enumeration and decomposition
algorithms.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from itertools import product
from pathlib import Path

from braidforms import counts, quadforms, sl2z
from braidforms.braid3 import (VALID_LETTERS, BraidWord, BurauMat, exponent_sum,
                               garside_power, trace_b3)
from braidforms.laurent import (NEG_Q, ONE, ZERO, GaussInt, HalfLaurent,
                                NonDivisibleError)
from braidforms.quadforms import FormClassKey, QForm
from braidforms.sl2z import Mat2Z

SRC = Path(__file__).resolve().parents[1] / "src"

# The traces |t| <= 8 but +-2, where the census and the bounded matrix
# oracles reach every class.
CENSUS_TRACES = tuple(t for t in range(-8, 9) if t not in (-2, 2))
# The large traces whose whole class lists the tests check against the
# completeness certificate, the cycle sum and the normal-form words.
CERTIFICATE_TRACES = (4999, -10**4, 30030, -99999, 10**5)
_KEPT: dict[int, tuple[counts.ClassWithExponent, ...]] = {}


def session_classes(t: int) -> tuple[counts.ClassWithExponent, ...]:
    """counts.trace_classes(t), kept for the whole session at CERTIFICATE_TRACES.

    The package's caches hold 4 traces, so tests that read the large class
    lists in turn would each enumerate them again.
    """
    if t not in CERTIFICATE_TRACES:
        return counts.trace_classes(t)
    if t not in _KEPT:
        _KEPT[t] = counts.trace_classes(t)
    return _KEPT[t]


def class_digest(traces: Iterable[int]) -> str:
    """sha256 over repr((t, rep, cycle, residue)) of every trace-t class, t in order."""
    digest = hashlib.sha256()
    for t in traces:
        for cls in counts.trace_classes(t):
            digest.update(repr((t, cls.key.rep, cls.key.cycle, cls.residue)).encode())
    return digest.hexdigest()


def random_st_matrix(rng: random.Random, syllables: int = 5, max_power: int = 4) -> Mat2Z:
    """The st_product of a random word of at most `syllables` nonzero S/T powers."""
    word = []
    for _ in range(rng.randrange(0, syllables + 1)):
        power = rng.choice([p for p in range(-max_power, max_power + 1) if p])
        word.append((rng.choice("ST"), power))
    return sl2z.st_product(word)


def words_up_to(max_len: int) -> Iterator[BraidWord]:
    """Every braid word of at most max_len letters, shortest first."""
    for length in range(max_len + 1):
        yield from (BraidWord(w) for w in product(VALID_LETTERS, repeat=length))


def direct(word: BraidWord) -> tuple[int, int]:
    """The (trace, exponent sum) cell of a word, computed from its letters."""
    return trace_b3(word), exponent_sum(word)


# The generators S, S^-1, T and T^-1, each as (matrix as (a, b, c, d),
# exponent step, letter id, inverse letter id).
_GEN_STEPS = (
    ((1, 1, 0, 1), 1, 0, 1),
    ((1, -1, 0, 1), -1, 1, 0),
    ((1, 0, -1, 1), 1, 2, 3),
    ((1, 0, 1, 1), -1, 3, 2),
)


def tmul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def trace_t_matrices(t: int, bound: int) -> list[tuple[int, int, int, int]]:
    """All SL2(Z) matrices of trace t with entries in [-bound, bound]."""
    out = set()
    for a in range(-bound, bound + 1):
        d = t - a
        if abs(d) > bound:
            continue
        need = a * d - 1  # b * c
        if need == 0:
            for k in range(-bound, bound + 1):
                out.add((a, 0, k, d))
                out.add((a, k, 0, d))
            continue
        for b in range(-bound, bound + 1):
            if b == 0 or need % b:
                continue
            c = need // b
            if abs(c) <= bound:
                out.add((a, b, c, d))
    return sorted(out)


def conjugacy_components(mats, work_bound: int) -> list[set]:
    """Partition matrices by conjugation-reachability.

    Repeatedly conjugates by the four generator matrices, allowing
    intermediate entries up to work_bound, and groups matrices that
    land in a common reachability component.
    """
    todo = set(mats)
    components = []
    while todo:
        seed = todo.pop()
        seen = {seed}
        frontier = [seed]
        while frontier:
            m = frontier.pop()
            for g, *_ in _GEN_STEPS:
                gi = (g[3], -g[1], -g[2], g[0])
                n = tmul(g, tmul(m, gi))
                if n in seen or max(abs(x) for x in n) > work_bound:
                    continue
                seen.add(n)
                frontier.append(n)
        component = {m for m in mats if m in seen}
        todo -= component
        components.append(component)
    return components


def sl2_ball(radius: int) -> list[Mat2Z]:
    """All distinct products of at most `radius` generator letters."""
    seen = {(1, 0, 0, 1)}
    frontier = [(1, 0, 0, 1)]
    for _ in range(radius):
        nxt = []
        for m in frontier:
            for g, *_ in _GEN_STEPS:
                n = tmul(m, g)
                if n not in seen:
                    seen.add(n)
                    nxt.append(n)
        frontier = nxt
    return [Mat2Z(*m) for m in sorted(seen)]


def substitute(f: QForm, m: Mat2Z, x: int, y: int) -> int:
    """Evaluate f(a*x + b*y, c*x + d*y) pointwise, no expansion."""
    u = m.a * x + m.b * y
    v = m.c * x + m.d * y
    return f.a * u * u + f.b * u * v + f.c * v * v


def evaluate(f: QForm, x: int, y: int) -> int:
    return f.a * x * x + f.b * x * y + f.c * y * y


def forms_with_bounded_coeffs(disc: int, bound: int) -> list[QForm]:
    """All forms of the given discriminant with |a|, |b|, |c| <= bound."""
    out = []
    for a, b, c in product(range(-bound, bound + 1), repeat=3):
        if b * b - 4 * a * c == disc:
            out.append(QForm(a, b, c))
    return out


def trial_division_reduced_forms(disc: int, root: int) -> list[tuple[int, int, int]]:
    """All reduced indefinite forms of disc, root = isqrt(disc), sorted.

    Trial division: for every middle coefficient b, every divisor of
    (disc - b^2)/4 up to its square root is tried.  Theta(disc) work.
    """
    # All reduced forms: 0 < b < sqrt(disc), ac = (b^2 - disc)/4 < 0,
    # and sqrt(disc) - b < 2|a| < sqrt(disc) + b.
    out = []
    for b in range(1, root + 1):
        if (disc - b * b) % 4:
            continue
        prod = (disc - b * b) // 4  # |a| * |c|
        for aa in range(1, math.isqrt(prod) + 1):
            if prod % aa:
                continue
            for mag in {aa, prod // aa}:
                if root - b + 1 <= 2 * mag <= root + b:
                    cc = prod // mag
                    out.append((mag, b, -cc))
                    out.append((-mag, b, cc))
    return sorted(set(out))


def reduced_cycle_step(f: tuple[int, int, int], disc: int) -> tuple[int, int, int]:
    """The form after the reduced indefinite form f in its cycle: (c, b', c').

    b' is the largest integer below sqrt(disc) that is -b mod 2|c|, and
    the last coefficient is the exact division c' = (b'^2 - disc) / 4c,
    not the library's substitution f(-y, x + s*y).
    """
    _, b, c = f
    m = 2 * abs(c)
    b = (math.isqrt(disc) + b) // m * m - b
    num = b * b - disc
    assert num % (4 * c) == 0, (f, disc)
    return c, b, num // (4 * c)


def primes_upto(n: int) -> list[int]:
    """The primes p <= n, n >= 1, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(2, n + 1) if sieve[p]]


def odd_prime_count(n: int) -> int:
    """The number of odd primes dividing n != 0, by trial division."""
    n, count, p = abs(n), 0, 3
    while n % 2 == 0:
        n //= 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 2
    return count + (n > 1)


def genus_mu(disc: int) -> int:
    """mu of a discriminant disc > 0, disc = 0 or 1 mod 4: its primitive forms have
    2^(mu - 1) genera and as many ambiguous classes, those of order at most 2.

    With r the odd primes dividing disc: mu = r if disc = 1 mod 4; else, with
    n = disc/4, r if n = 1 mod 4, r + 1 if n = 2 or 3 mod 4 or n = 4 mod 8,
    and r + 2 if n = 0 mod 8 (Gauss, Disquisitiones Art. 257-258; Cox,
    Primes of the form x^2 + ny^2, Prop. 3.11 and Thm. 3.15).
    """
    r = odd_prime_count(disc)
    if disc % 4 == 1 or disc // 4 % 4 == 1:
        return r
    return r + 2 if disc // 4 % 8 == 0 else r + 1


def sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n modulo the odd prime p, or None.

    The (p + 1)/4 power when p = 3 mod 4.  Otherwise Cipolla's method:
    with a^2 - n a non-residue, (a + w)^((p + 1)/2) in F_p[w]/(w^2 - a^2
    + n) lies in F_p and squares to n.  It shares no code with the
    library's Tonelli-Shanks root.
    """
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    a = 1
    while pow(a * a - n, (p - 1) // 2, p) != p - 1:
        a += 1
    w2 = (a * a - n) % p
    x, y, bx, by, e = 1, 0, a, 1, (p + 1) // 2
    while e:
        if e & 1:
            x, y = (x * bx + y * by * w2) % p, (x * by + y * bx) % p
        bx, by = (bx * bx + by * by * w2) % p, 2 * bx * by % p
        e >>= 1
    return x


def divisor_sieve_reduced_forms(t: int) -> list[tuple[int, int, int]]:
    """All reduced forms of discriminant D = t^2 - 4, |t| >= 3, sorted.

    With T = |t| and b = T - 2u the reduced forms are exactly
    (x, T - 2u, -y) and (-x, T - 2u, y) for 1 <= u <= (T-1)/2,
    x * y = u(T - u) - 1 and u <= x <= T - u - 1.  The values
    u(T - u) - 1 are factored all at once by a sieve: p divides the
    value at u exactly when u = (T +- sqrt(D)) / 2 mod p (for p = 2: T
    even and u odd).  Every prime p <= T/2 is divided out of each hit
    as often as it goes; the values are below (T/2)^2, so any cofactor
    left over is prime.  Each value's divisors in the window give its
    forms.  Theta(T log T) divisors, most of them outside the window.
    """
    big = abs(t)
    disc = big * big - 4
    top = (big - 1) // 2
    rest = [u * (big - u) - 1 for u in range(top + 1)]
    factors: list[list[tuple[int, int]]] = [[] for _ in range(top + 1)]
    for p in primes_upto(big // 2):
        if p == 2:
            hits = (1,) if big % 2 == 0 else ()
        else:
            s = sqrt_mod_prime(disc, p)
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


def progression_quarters(t_max: int) -> dict[int, list[tuple[int, int, int]]]:
    """One reduced form per mirror orbit, for every trace 3 <= T <= t_max, sorted.

    The forms of divisor_sieve_reduced_forms with 0 < x <= y: (x, T - 2u,
    -y), u <= x <= y and xy = u(T - u) - 1.  Read with x and u fixed, x
    divides u(T - u) - 1 exactly when gcd(u, x) = 1 and T = u + u^-1 mod
    x, and y >= x exactly when u(T - u) >= x^2 + 1.  So each pair (x, u)
    gives one arithmetic progression of T, with no primes, square roots
    or divisor lists.  Then u < T - u and x < T/2, so x <= t_max // 2.
    """
    quarters: dict[int, list[tuple[int, int, int]]] = {big: [] for big in range(3, t_max + 1)}
    for x in range(1, t_max // 2 + 1):
        for u in range(1, x + 1):
            if math.gcd(u, x) != 1:
                continue
            low = max(3, u - (-(x * x + 1) // u))  # the least T with u(T - u) >= x^2 + 1
            start = low + (u + pow(u, -1, x) - low) % x
            for big in range(start, t_max + 1, x):
                quarters[big].append((x, big - 2 * u, -((u * (big - u) - 1) // x)))
    for forms in quarters.values():
        forms.sort()
    return quarters


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) for k > 0 and gcd(h, k) = 1, by the reciprocity law

    s(h, k) + s(k, h) = (h^2 + k^2 + 1) / (12hk) - 1/4.
    """
    total, sign = Fraction(0), 1
    h %= k
    while k > 1:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        sign = -sign
        h, k = k % h, h
    return total


def rademacher_residue(m: Mat2Z) -> int:
    """Exponent residue mod 12 of m in closed form, via Rademacher's function.

    For c != 0: (a + d)/c - 12 sign(c) s(d, |c|) + 9 sign(c) (mod 12);
    for c == 0 (so d = +-1): b/d + 6 [d < 0] (mod 12).  Independent of
    any S/T decomposition.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    if c == 0:
        return (b * d + (6 if d < 0 else 0)) % 12
    sign = 1 if c > 0 else -1
    phi = Fraction(a + d, c) - 12 * sign * dedekind_sum(d, abs(c))
    assert phi.denominator == 1, f"Rademacher function not integral at {m}"
    return (int(phi) + 9 * sign) % 12


def cycle_sum_residue(cycle: tuple[tuple[int, int, int], ...], t: int) -> int:
    """Exponent residue mod 12 of a trace-t class, from its reduced cycle alone.

    The step from (a_i, b_i, c_i) to the next member has the partial
    quotient k_i = (b_i + b_(i+1)) / (2|c_i|); s sums sign(a_i) k_i over
    one period (Zagier's reading of Rademacher's function).  For a form
    of content g > 1 the trace-|t| automorph is the m-th power of the
    fundamental one of f/g, whose u_0^2 - (D/g^2) v_0^2 = 4 has the least
    v_0 | g, and m is the index with V_m(u_0) = |t| in the Lucas
    sequence V_0 = 2, V_1 = u_0, V_(j+1) = u_0 V_j - V_(j-1); else m = 1.
    The residue is m s for t > 0 and 6 - m s for t < 0, mod 12.
    Independent of any S/T decomposition and of Dedekind sums.
    """
    s = 0
    for (a, b, c), (_, b_next, _) in zip(cycle, cycle[1:] + cycle[:1]):
        k, rem = divmod(b + b_next, 2 * abs(c))
        assert rem == 0, cycle
        s += k if a > 0 else -k
    g, m = math.gcd(*cycle[0]), 1
    if g > 1:
        disc = (t * t - 4) // (g * g)
        v0 = next(v for v in range(1, g + 1)
                  if g % v == 0 and math.isqrt(disc * v * v + 4) ** 2 == disc * v * v + 4)
        u0 = math.isqrt(disc * v0 * v0 + 4)
        prev, cur = 2, u0
        while cur != abs(t):
            prev, cur = cur, u0 * cur - prev
            m += 1
    return (m * s if t > 0 else 6 - m * s) % 12


def necklace_histogram(t: int) -> list[int]:
    """Trace-t conjugacy classes by exponent residue mod 12, from braid words.

    For |t| > 2 each class of trace |t| holds the positive words in
    R = [[1, 1], [0, 1]] and L = [[1, 0], [1, 1]] with both letters and
    trace |t|, one cyclic word (necklace) per class.  Such a word is
    R^a1 L^b1 ... R^ak L^bk up to a rotation of its blocks, and
    R^a L^b = [[1 + ab, a], [b, 1]].  R is the image of s1 and L that of
    s2^-1, so the residue is (#R - #L) mod 12; the classes of trace -|t|
    are the negatives, -I = (s1 s2)^3 adding 6.  Every block raises the
    trace of a product of nonnegative matrices, so a depth-first walk
    over block sequences of trace at most |t| finds every word, and a
    sequence is counted when it is the least rotation of its blocks.
    """
    big, hist = abs(t), [0] * 12
    assert big > 2

    def walk(blocks: tuple, m: tuple, shift: int) -> None:
        a = 1
        while True:
            b = 1
            while True:
                p = tmul(m, (1 + a * b, a, b, 1))
                if p[0] + p[3] > big:
                    break
                seq = blocks + ((a, b),)
                if p[0] + p[3] < big:
                    walk(seq, p, shift + a - b)
                elif seq == min(seq[i:] + seq[:i] for i in range(len(seq))):
                    hist[(shift + a - b + (6 if t < 0 else 0)) % 12] += 1
                b += 1
            if b == 1:
                return
            a += 1

    walk((), (1, 0, 0, 1), 0)
    return hist


def normal_form_word(key: FormClassKey, t: int) -> BraidWord:
    """One braid word of the trace-t class of key, |t| > 2, read off its cycle.

    A member f = (a, b, c) with a > 0 of the reduced cycle of a class of
    trace T > 2 has the matrix [[(T - b)/2, a], [-c, (T + b)/2]] of
    form_of_matrix, with nonnegative entries; a nonnegative matrix of
    determinant 1 is a unique product of R = [[1, 1], [0, 1]] and
    L = [[1, 0], [1, 1]]: a power of R comes off the left while the first
    row is at least the second, a power of L while the second row is.
    R is the image of s1 and L that of s2^-1.  For t < -2 a member f with
    a < 0 is taken: the matrix of -f at |t| is nonnegative, its word is w,
    and phi(Delta^2) = -I takes it to the matrix of f at t, so the word is
    Delta^2 w.
    """
    sign = 1 if t > 0 else -1
    a, b, c = next(f for f in key.cycle if sign * f[0] > 0)
    m = quadforms.matrix_of_form(QForm(sign * a, sign * b, sign * c), abs(t))
    p, q, r, s = m.a, m.b, m.c, m.d
    letters: list[int] = []
    while (p, q, r, s) != (1, 0, 0, 1):
        if p >= r and q >= s:
            k = min(p // r, q // s) if r else q
            letters += [1] * k
            p, q = p - k * r, q - k * s
        else:
            k = min(r // p, s // q) if q else r
            letters += [-2] * k
            r, s = r - k * p, s - k * q
    word = BraidWord(tuple(letters))
    return word if t > 0 else garside_power(2) * word


def random_word(rng: random.Random, max_len: int) -> tuple[int, ...]:
    return tuple(rng.choice(VALID_LETTERS)
                 for _ in range(rng.randrange(0, max_len + 1)))


# Letter-by-letter Burau and integer matrix images: the generator images,
# their exact symbolic inverses, and one sparse matrix product per letter.
BURAU_IDENTITY = BurauMat(ONE, ZERO, ZERO, ONE)

BURAU_GEN = {
    1: BurauMat(ONE, NEG_Q, ZERO, NEG_Q),
    -1: BurauMat(ONE, HalfLaurent({0: -1}), ZERO, HalfLaurent({-2: -1})),
    2: BurauMat(NEG_Q, ZERO, HalfLaurent({0: -1}), ONE),
    -2: BurauMat(HalfLaurent({-2: -1}), ZERO, HalfLaurent({-2: -1}), ONE),
}

PHI_GEN = {
    1: sl2z.S,
    -1: sl2z.S.inverse(),
    2: sl2z.T,
    -2: sl2z.T.inverse(),
}


def burau(w: BraidWord) -> BurauMat:
    """The reduced Burau matrix of w: the ordered product of generator images."""
    m = BURAU_IDENTITY
    for letter in w.letters:
        m = m * BURAU_GEN[letter]
    return m


def phi(w: BraidWord) -> sl2z.Mat2Z:
    """The integer matrix image of w under s1 -> S, s2 -> T."""
    m = sl2z.IDENTITY
    for letter in w.letters:
        m = m * PHI_GEN[letter]
    return m


# Word-by-word census: every freely reduced word up to max_len, walked
# recursively over _GEN_STEPS.  Class keys come from quadforms.reduce, uncached.
def _matrix_class_key(m: tuple[int, int, int, int]) -> FormClassKey:
    a, b, c, d = m
    return quadforms.reduce(QForm(b, d - a, -c))


def word_census_table(max_len: int, trace_bound: int,
                      exponent_bound: int) -> dict[tuple[int, int], int]:
    """Distinct-class counts per (t, n) cell from words up to max_len.

    Walks all freely reduced words (a letter never follows its inverse;
    free reduction preserves the group element, so nothing reachable is
    missed) and collects the class key of the integer matrix image
    together with the exact exponent sum.  Cells with |t| or |n| above
    the bounds, or t = +-2, are not tracked.
    """
    cells: dict[tuple[int, int], set[FormClassKey]] = {}

    def visit(m: tuple[int, int, int, int], eps: int, depth: int, last: int) -> None:
        t = m[0] + m[3]
        if abs(t) <= trace_bound and abs(eps) <= exponent_bound and t not in (2, -2):
            cells.setdefault((t, eps), set()).add(_matrix_class_key(m))
        if depth == max_len:
            return
        a, b, c, d = m
        for (e, f, g, h), step, letter, inverse in _GEN_STEPS:
            if inverse == last:
                continue
            visit((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h),
                  eps + step, depth + 1, letter)

    visit((1, 0, 0, 1), 0, 0, -1)
    return {cell: len(keys) for cell, keys in cells.items()}


def filtered_family_solutions(t: int) -> tuple[tuple[str, tuple[int, int, int, int], int], ...]:
    """The family parameter sets of trace t with their exponents, by filtering.

    The loops run over the whole trace until its rest is used up and keep
    only the normalized solutions: u < w in family iii, u < v < w in
    family iv.  Grouped by exponent n, in order, they are what
    birman_menasco._family_solutions(t, n) returns.
    """
    sols = []
    for k in (0, 1):
        target = (t if k == 0 else -t) - 2  # (u+w)(1+v) + uvw
        if target < 2:
            continue
        for v in range(2, target + 1):
            for u in range(1, target + 1):
                rest = target - u * (1 + v)
                if rest <= 0:
                    break
                den = 1 + v + u * v
                if rest % den:
                    continue
                w = rest // den
                if w > u:
                    sols.append(("iii", (u, v, w, k), u + w - v - 1 + 6 * k))
    for k in (1, 2):
        target = (-t if k == 1 else t) - 2  # 3 e1 + 2 e2 + e3
        if target < 2:
            continue
        for u in range(1, target + 1):
            if 3 * u > target:
                break
            for v in range(u + 1, target + 1):
                rest = target - 3 * (u + v) - 2 * u * v
                if rest <= 0:
                    break
                den = 3 + 2 * (u + v) + u * v
                if rest % den:
                    continue
                w = rest // den
                if w > v:
                    sols.append(("iv", (u, v, w, k), u + v + w - 3 + 6 * k))
    return tuple(sols)


# laurent.HalfLaurent stored sparsely, as a map from s-exponent to
# coefficient: the reference the dense class must agree with on every
# operation, error messages, repr and hash included.
class SparseHalfLaurent:
    """An element of Z[sqrt(q), 1/sqrt(q)] in canonical sparse form."""

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        self._coeffs = {e: c for e, c in items if c != 0}
        self._hash = None

    @classmethod
    def from_int(cls, n: int) -> "SparseHalfLaurent":
        return cls({0: n})

    @classmethod
    def q_power(cls, k: int) -> "SparseHalfLaurent":
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
        if isinstance(other, SparseHalfLaurent):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            if set(self._coeffs) <= {0}:
                # A constant hashes as the int it equals.
                self._hash = hash(self.coefficient(0))
            else:
                self._hash = hash(tuple(sorted(self._coeffs.items())))
        return self._hash

    def __neg__(self) -> "SparseHalfLaurent":
        return SparseHalfLaurent({e: -c for e, c in self._coeffs.items()})

    def __add__(self, other: "SparseHalfLaurent | int") -> "SparseHalfLaurent":
        if isinstance(other, int):
            other = SparseHalfLaurent.from_int(other)
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        res = SparseHalfLaurent.__new__(SparseHalfLaurent)
        res._coeffs = out
        res._hash = None
        return res

    __radd__ = __add__

    def __sub__(self, other: "SparseHalfLaurent | int") -> "SparseHalfLaurent":
        return self + (-other)

    def __rsub__(self, other: int) -> "SparseHalfLaurent":
        return SparseHalfLaurent.from_int(other) + (-self)

    def __mul__(self, other: "SparseHalfLaurent | int") -> "SparseHalfLaurent":
        if isinstance(other, int):
            other = SparseHalfLaurent.from_int(other)
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return _SPARSE_ZERO
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
        res = SparseHalfLaurent.__new__(SparseHalfLaurent)
        res._coeffs = out
        res._hash = None
        return res

    __rmul__ = __mul__

    def exact_div(self, divisor: "SparseHalfLaurent") -> "SparseHalfLaurent":
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
            return _SPARSE_ZERO
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
        return SparseHalfLaurent(quot)

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


_SPARSE_ZERO = SparseHalfLaurent()
