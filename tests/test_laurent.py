"""Tests for exact half-power Laurent arithmetic."""

import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidforms.laurent import (CYCLOTOMIC3, GaussInt, HalfLaurent,
                                NEG_Q, NEG_SQRT_Q, NonDivisibleError, ONE, Q,
                                SQRT_Q, ZERO, dense_add, i_power, monomial_pow)
from oracles import SparseHalfLaurent

polys = st.builds(
    HalfLaurent,
    st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=6))

nonzero_polys = polys.filter(lambda p: not p.is_zero())


def hl(d):
    return HalfLaurent(d)


class TestAdd:
    def test_additive_inverse(self):
        assert Q + (-Q) == ZERO

    def test_coefficient_addition(self):
        assert (ONE + Q) + Q == hl({0: 1, 2: 2})

    def test_disjoint_support(self):
        inv_sqrt = hl({-1: 1})
        assert SQRT_Q + inv_sqrt == hl({1: 1, -1: 1})

    def test_int_mixing(self):
        assert Q + 1 == hl({0: 1, 2: 1})
        assert 1 + Q == hl({0: 1, 2: 1})
        assert (Q - 1) + 1 == Q


class TestMul:
    def test_exponent_addition(self):
        assert SQRT_Q * SQRT_Q == Q

    def test_inverse_monomials(self):
        assert SQRT_Q * hl({-1: 1}) == ONE

    def test_difference_of_squares(self):
        assert (ONE + Q) * (ONE - Q) == ONE - HalfLaurent.q_power(2)


class TestMonomialPow:
    def test_zeroth_power(self):
        assert monomial_pow(NEG_SQRT_Q, 0) == ONE

    def test_sign_cancellation(self):
        assert monomial_pow(NEG_Q, 2) == HalfLaurent.q_power(2)

    def test_odd_power_sign(self):
        assert monomial_pow(NEG_SQRT_Q, 3) == hl({3: -1})

    def test_negative_power(self):
        assert monomial_pow(NEG_Q, -1) * NEG_Q == ONE

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            monomial_pow(ONE + Q, 2)
        with pytest.raises(ValueError):
            monomial_pow(hl({1: 2}), 2)


class TestExactDiv:
    def test_cube_factorization(self):
        p = ONE - HalfLaurent.q_power(3)
        assert p.exact_div(CYCLOTOMIC3) == ONE - Q

    def test_zero_dividend(self):
        assert ZERO.exact_div(CYCLOTOMIC3) == ZERO

    def test_multiply_then_divide(self):
        factor = ONE - NEG_Q + monomial_pow(NEG_Q, 2)
        assert (factor * CYCLOTOMIC3).exact_div(CYCLOTOMIC3) == factor
        assert factor == CYCLOTOMIC3  # 1 + q + q^2 both ways

    def test_non_divisible(self):
        with pytest.raises(NonDivisibleError):
            (ONE + Q).exact_div(CYCLOTOMIC3)

    def test_leading_coefficient_does_not_divide(self):
        with pytest.raises(NonDivisibleError, match="leading coefficient"):
            (ONE + Q).exact_div(ONE + 2 * Q)

    def test_remainder_only_below_divisor_degree(self):
        # (1 + q + q^2) q^2 + 1: every leading term divides, remainder 1.
        with pytest.raises(NonDivisibleError, match="lower degree"):
            (CYCLOTOMIC3 * HalfLaurent.q_power(2) + ONE).exact_div(CYCLOTOMIC3)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            ONE.exact_div(ZERO)


class TestEvalQMinusOne:
    def test_q(self):
        assert Q.at_q_minus_one() == GaussInt(-1, 0)

    def test_sqrt_q(self):
        assert SQRT_Q.at_q_minus_one() == GaussInt(0, 1)

    def test_cyclotomic(self):
        assert CYCLOTOMIC3.at_q_minus_one() == GaussInt(1, 0)


class TestRender:
    def test_contract_string(self):
        assert hl({-2: -1, 0: 2, 3: 1}).render() == "-1*q^-1 + 2 + 1*q^3/2"
        assert str(hl({-2: -1, 0: 2, 3: 1})) == "-1*q^-1 + 2 + 1*q^3/2"

    def test_zero(self):
        assert ZERO.render() == "0"

    def test_negative_half_exponent(self):
        assert hl({-3: 1}).render() == "1*q^-3/2"

    def test_increasing_order(self):
        assert hl({4: 1, -4: 1}).render() == "1*q^-2 + 1*q^2"


class TestCanonicalForm:
    def test_zero_coefficients_dropped(self):
        assert hl({3: 0, 1: 2}) == hl({1: 2})
        assert not hl({5: 0})

    def test_equality_is_structural(self):
        assert hl({1: 1, 2: 0}) == hl({1: 1})
        assert hash(hl({1: 1, 2: 0})) == hash(hl({1: 1}))

    def test_int_equality(self):
        assert ONE == 1
        assert ZERO == 0
        assert not ONE == "1"  # neither side knows the other: identity decides

    def test_constant_hashes_as_its_int(self):
        for n in (5, 1, 0, -3):
            assert hash(HalfLaurent.from_int(n)) == hash(n)
            assert hash(SparseHalfLaurent.from_int(n)) == hash(n)
        assert len({HalfLaurent.from_int(5), 5}) == 1
        assert {ZERO: "zero"}[0] == "zero"
        assert Q != 1


@given(polys, polys, polys)
def test_ring_axioms(p, r, s):
    assert p + r == r + p
    assert (p + r) + s == p + (r + s)
    assert p * r == r * p
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s
    assert p * ONE == p
    assert p + ZERO == p


@given(polys, nonzero_polys)
def test_exact_div_inverts_mul(p, d):
    assert (p * d).exact_div(d) == p


@settings(max_examples=200)
@given(polys, polys)
def test_eval_is_ring_homomorphism(p, r):
    assert (p * r).at_q_minus_one() == p.at_q_minus_one() * r.at_q_minus_one()
    assert (p + r).at_q_minus_one() == p.at_q_minus_one() + r.at_q_minus_one()


def test_i_power_cycle():
    assert [i_power(k) for k in range(4)] == [
        GaussInt(1, 0), GaussInt(0, 1), GaussInt(-1, 0), GaussInt(0, -1)]
    assert i_power(-1) == GaussInt(0, -1)
    assert str(GaussInt(3, -2)) == "3-2i"
    assert str(GaussInt(0, 2)) == "2i"
    assert str(GaussInt(-4, 0)) == "-4"
    assert -GaussInt(3, -2) == GaussInt(-3, 2)


# --- agreement with the sparse oracle ----------------------------------------
#
# Term lists spread over s-exponents -60..60 with gaps, zero coefficients
# and repeated exponents, so the constructor's rules are exercised too.
term_lists = st.lists(st.tuples(st.integers(-60, 60), st.integers(-4, 4)), max_size=10)
INTS = (-3, 0, 1, 2)


def assert_agree(dense, sparse):
    items = list(sparse.items())
    assert list(dense.items()) == items
    assert dense == HalfLaurent(items)  # canonical: no zero at either end
    assert dense.support() == sparse.support()
    assert all(dense.coefficient(e) == sparse.coefficient(e) for e in range(-130, 131))
    assert dense.render() == sparse.render() and repr(dense) == repr(sparse)
    assert hash(dense) == hash(sparse)
    assert dense.at_q_minus_one() == sparse.at_q_minus_one()
    assert bool(dense) == bool(sparse) and dense.is_zero() == sparse.is_zero()
    assert [dense == k for k in INTS] == [sparse == k for k in INTS]


def division_outcome(p, d):
    try:
        return p.exact_div(d)
    except (NonDivisibleError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("build", [list, dict, iter])
@given(term_lists)
def test_constructor_matches_sparse(build, pairs):
    assert_agree(HalfLaurent(build(pairs)), SparseHalfLaurent(build(pairs)))


def test_constructor_edge_cases():
    # Zeros are dropped before repeated exponents are resolved.
    assert HalfLaurent([(1, 2), (1, 0)]) == hl({1: 2})
    assert HalfLaurent([(1, 2), (1, 3)]) == hl({1: 3})
    assert HalfLaurent({1: 0, -7: 0}) == ZERO
    assert hash(HalfLaurent([(9, 0)])) == hash(ZERO)
    assert HalfLaurent.from_dense(9, []) == ZERO
    assert HalfLaurent((e, 1) for e in (5, -5)) == hl({-5: 1, 5: 1})


@given(term_lists, term_lists)
# Products by a unit monomial +-s^k, a shift, on either side and with zero.
@example([(-3, 1)], [(5, 2), (-7, -1), (0, 3)])
@example([(5, 2), (-7, -1)], [(0, -1)])
@example([(2, -1)], [(-7, 3), (1, -4)])
@example([(4, 1), (-2, 3), (9, -2)], [(2, 1)])
@example([(-3, -1)], [])
@example([], [(0, 1)])
def test_ring_operations_match_sparse(p, r):
    dp, dr = HalfLaurent(p), HalfLaurent(r)
    sp, sr = SparseHalfLaurent(p), SparseHalfLaurent(r)
    for op in (operator.add, operator.sub, operator.mul):
        assert_agree(op(dp, dr), op(sp, sr))
        for k in INTS:
            assert_agree(op(dp, k), op(sp, k))
            assert_agree(op(k, dp), op(k, sp))
    assert_agree(-dp, -sp)


@given(term_lists, term_lists, term_lists)
# The monic 1 + q + q^2, and divisors led by -1 and by 2.
@example([(-5, 2), (0, -1), (3, 4)], list(CYCLOTOMIC3.items()), [(1, 1), (6, -2)])
@example([(1, 3), (4, -1)], [(0, 2), (3, -1)], [(-2, 1), (7, 3)])
@example([(1, 3), (4, -1)], [(-1, 1), (2, 2)], [(5, 1)])
def test_exact_div_matches_sparse(p, d, r):
    dp, dd, dr = HalfLaurent(p), HalfLaurent(d), HalfLaurent(r)
    sp, sd, sr = SparseHalfLaurent(p), SparseHalfLaurent(d), SparseHalfLaurent(r)
    # Exact quotients, near misses, and mostly non-divisible pairs.
    for dense, sparse in ((dp * dd, sp * sd), (dp * dd + dr, sp * sd + sr), (dp, sp)):
        got, want = division_outcome(dense, dd), division_outcome(sparse, sd)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_agree(got, want)


def as_dense(sparse) -> tuple[int, list[int]]:
    """The (offset, coefficients) pair of laurent.dense_add for a sparse element."""
    items = list(sparse.items())
    if not items:
        return 0, []
    lo, hi = items[0][0], items[-1][0]
    return lo, [sparse.coefficient(e) for e in range(lo, hi + 1)]


# What a + sign * b should come to: b itself, a window of a's exponents
# (so b cancels a above it, below it, or everywhere when the window is
# empty), or the other term list.
SUM_TARGETS = st.one_of(st.just("free"), st.tuples(st.integers(-61, 61), st.integers(-61, 61)),
                        st.just("other"))


@settings(max_examples=300)
@given(term_lists, term_lists, st.sampled_from([1, -1]), SUM_TARGETS)
@example([], [], 1, "free")
@example([(-5, 2)], [], -1, "free")
@example([], [(7, -3), (9, 1)], -1, "free")
@example([(-9, 1), (3, 2)], [], 1, (1, 0))  # cancelled everywhere
@example([(-9, 1), (3, 2)], [], 1, (-9, 2))  # top cancelled
@example([(-9, 1), (3, 2)], [], -1, (-8, 3))  # bottom cancelled
@example([(-9, 1), (-6, 2), (-2, -3), (1, 1), (4, 2), (8, -1)], [], 1, (0, 61))  # lower half
@example([(-9, 1), (-6, 2), (-2, -3), (1, 1), (4, 2), (8, -1)], [], -1, (1, 0))  # all of it
def test_dense_add_matches_sparse(p, r, sign, target):
    sa = SparseHalfLaurent(p)
    if target == "free":
        sb = SparseHalfLaurent(r)
    else:
        want = (SparseHalfLaurent(r) if target == "other" else
                SparseHalfLaurent((e, c) for e, c in sa.items() if target[0] <= e <= target[1]))
        sb = (want - sa) * sign  # a + sign * b == want
    (a_off, a), (b_off, b) = as_dense(sa), as_dense(sb)
    a_copy, b_copy = list(a), list(b)
    off, out = dense_add(a_off, a, b_off, b, sign)
    assert (off, out) == as_dense(sa + sb * sign)
    assert (a, b) == (a_copy, b_copy)
