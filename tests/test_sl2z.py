"""Tests for SL2(Z) arithmetic, decomposition, and conjugacy."""

import random

import pytest

from braidforms import braid3
from braidforms.quadforms import enumerate_classes, is_conjugate, matrix_of_form
from braidforms.sl2z import (IDENTITY, Mat2Z, S, T, decompose_st,
                             exponent_mod12, st_product)
from oracles import (CENSUS_TRACES, conjugacy_components, rademacher_residue,
                     random_word, session_classes, sl2_ball, trace_t_matrices,
                     words_up_to)

NEG_I = Mat2Z(-1, 0, 0, -1)


def random_matrix(rng, syllables=6, max_power=5):
    """The product of a random S/T word, each power folded into four integers.

    Kept apart from oracles.random_st_matrix, which calls st_product: this
    fold is written out by hand because the tests here check st_product.
    """
    powers = [p for p in range(-max_power, max_power + 1) if p]
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randrange(0, syllables + 1)):
        power = rng.choice(powers)
        if rng.choice("ST") == "S":
            b, d = b + power * a, d + power * c
        else:
            a, c = a - power * b, c - power * d
    return Mat2Z(a, b, c, d)


def check_decomposition(m):
    """Roundtrip, nonzero powers, alternating generators, exact residue."""
    word = decompose_st(m)
    assert st_product(word) == m
    assert all(p != 0 for _, p in word), m
    gens = [gen for gen, _ in word]
    assert all(x != y for x, y in zip(gens, gens[1:])), m
    assert exponent_mod12(m) == rademacher_residue(m), m


class TestMat2Z:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            Mat2Z(1, 0, 0, 2)
        with pytest.raises(ValueError):
            Mat2Z(0, 0, 0, 0)

    def test_product_examples(self):
        assert S * T == Mat2Z(0, 1, -1, 1)
        m = Mat2Z(3, 2, 4, 3)
        assert m * m.inverse() == IDENTITY

    def test_st_order_six(self):
        st = S * T
        power = IDENTITY
        for _ in range(6):
            power = power * st
        assert power == IDENTITY
        # and (ST)^3 is the central involution
        cube = st * st * st
        assert cube == NEG_I

    def test_braid_relation(self):
        assert S * T * S == T * S * T

    def test_json_rows(self):
        assert Mat2Z(1, 2, 3, 7).as_rows() == [[1, 2], [3, 7]]


class TestDecompose:
    def test_identity_gives_empty_word(self):
        assert decompose_st(IDENTITY) == []

    def test_single_generator(self):
        assert decompose_st(S) == [("S", 1)]

    def test_negative_identity_remultiplies(self):
        word = decompose_st(NEG_I)
        assert st_product(word) == NEG_I

    def test_powers_are_nonzero(self):
        rng = random.Random(11)
        for _ in range(500):
            word = decompose_st(random_matrix(rng))
            assert all(p != 0 for _, p in word)

    def test_adjacent_generators_differ(self):
        mats = sl2_ball(6) + [NEG_I, S * S.inverse(), T * T * T]
        rng = random.Random(12)
        mats += [random_matrix(rng, syllables=12) for _ in range(500)]
        for m in mats:
            gens = [gen for gen, _ in decompose_st(m)]
            assert all(x != y for x, y in zip(gens, gens[1:])), m

    def test_roundtrip_bulk(self):
        # 10^5 randomized matrices from short S/T words, remultiplied.
        rng = random.Random(2024)
        for _ in range(100_000):
            m = random_matrix(rng, syllables=5, max_power=6)
            assert st_product(decompose_st(m)) == m

    def test_every_class_matrix_to_trace_50(self):
        for t in [t for t in range(-50, 51) if t not in (2, -2)]:
            for key in enumerate_classes(t):
                check_decomposition(matrix_of_form(key.rep_form(), t))

    def test_orbit_matrices_at_large_traces(self):
        # The matrices the verify path decomposes: one class per mirror
        # orbit (a, b, c) -> (-a, b, -c), (c, b, a), (-c, b, -a).
        for t in (4999, -10000, 10**5):
            seen = set()
            for key in (cls.key for cls in session_classes(t)):
                if key.rep not in seen:
                    seen.update(f for a, b, c in key.cycle
                                for f in ((-a, b, -c), (c, b, a), (-c, b, -a)))
                    check_decomposition(matrix_of_form(key.rep_form(), t))


class TestExponentMod12:
    def test_class_function(self):
        rng = random.Random(5)
        for _ in range(300):
            m = random_matrix(rng)
            p = random_matrix(rng)
            assert exponent_mod12(p * m * p.inverse()) == exponent_mod12(m)

    def test_homomorphism(self):
        rng = random.Random(6)
        for _ in range(300):
            m, n = random_matrix(rng), random_matrix(rng)
            assert exponent_mod12(m * n) == (exponent_mod12(m) + exponent_mod12(n)) % 12

    def test_matches_braid_exponent_exhaustively(self):
        for w in words_up_to(7):
            assert exponent_mod12(braid3.phi(w)) == braid3.exponent_sum(w) % 12

    def test_matches_braid_exponent_random_long(self):
        rng = random.Random(7)
        for _ in range(10_000):
            w = braid3.BraidWord(random_word(rng, 30))
            assert exponent_mod12(braid3.phi(w)) == braid3.exponent_sum(w) % 12

    def test_matches_rademacher_closed_form_on_ball(self):
        ball = sl2_ball(7)
        assert len(ball) == 1132
        for m in ball:
            assert exponent_mod12(m) == rademacher_residue(m)


class TestIsConjugate:
    def test_reflexive(self):
        m = st_product([("S", 2), ("T", -1)])
        assert m.trace() not in (2, -2)
        assert is_conjugate(m, m)

    def test_conjugates(self):
        rng = random.Random(8)
        done = 0
        while done < 100:
            m = random_matrix(rng)
            if m.trace() in (2, -2):
                continue
            p = random_matrix(rng)
            assert is_conjugate(m, p * m * p.inverse())
            done += 1

    def test_inverse_rotations_are_distinct(self):
        j = Mat2Z(0, 1, -1, 0)
        assert not is_conjugate(j, j.inverse())
        # cross-check by brute force: trace-0 matrices fall in 2 components
        comps = conjugacy_components(trace_t_matrices(0, 8), 50)
        assert len(comps) == 2

    def test_different_traces(self):
        m = st_product([("S", 1), ("T", -1)])   # trace 3
        n = st_product([("S", 1), ("T", 1)])    # trace 1
        assert not is_conjugate(m, n)

    def test_agrees_with_component_oracle(self):
        # Partition small matrices per trace two ways and compare.
        for t in CENSUS_TRACES:
            mats = trace_t_matrices(t, 8)
            components = conjugacy_components(mats, 50)
            by_oracle = {frozenset(c) for c in components}
            buckets = {}
            for m in mats:
                from braidforms.quadforms import form_of_matrix, reduce
                key = reduce(form_of_matrix(Mat2Z(*m)))
                buckets.setdefault(key, set()).add(m)
            assert {frozenset(b) for b in buckets.values()} == by_oracle


def test_st_product_matches_generator_products():
    # st_product is the one fold, phi's included; this checks it against
    # plain Mat2Z products, one generator matrix per unit of power.
    rng = random.Random(1717)
    units = {"S": (S, S.inverse()), "T": (T, T.inverse())}
    for _ in range(300):
        word = [(rng.choice("ST"), rng.choice([0, rng.randint(-50, 50)]))
                for _ in range(rng.randrange(0, 8))]
        expected = IDENTITY
        for gen, p in word:
            for _ in range(abs(p)):
                expected = expected * units[gen][p < 0]
        assert st_product(word) == expected, word
        with pytest.raises(ValueError, match="^unknown generator 'U'$"):
            st_product(word + [("U", 1), ("S", 1)])

