"""Tests for braid words, the Burau representation, and closure invariants."""

import random

import pytest

import oracles
from braidforms.braid3 import (VALID_LETTERS, BraidParseError, BraidWord, BurauMat,
                               alexander, burau, exponent_sum, garside_power, jones,
                               parse_syllables, phi, special_value, trace_b3)
from braidforms.laurent import (CYCLOTOMIC3, GaussInt, HalfLaurent,
                                NEG_INV_SQRT_Q, NEG_Q, ONE, SQRT_Q, ZERO, monomial_pow)
from braidforms.sl2z import IDENTITY, Mat2Z
from oracles import random_word

DELTA = BraidWord((1, 2, 1))


class TestParse:
    def test_plain_tokens(self):
        assert BraidWord.parse("1 2 -1") == BraidWord((1, 2, -1))

    def test_power_expansion(self):
        assert BraidWord.parse("1^3 2") == BraidWord((1, 1, 1, 2))

    def test_negative_powers(self):
        assert BraidWord.parse("1^-1 2^3 1^-2 2^5") == BraidWord(
            (-1, 2, 2, 2, -1, -1, 2, 2, 2, 2, 2))

    def test_signed_base_with_power(self):
        assert BraidWord.parse("-2^2") == BraidWord((-2, -2))
        assert BraidWord.parse("-1^-2") == BraidWord((1, 1))

    def test_zero_power(self):
        assert BraidWord.parse("1^0 2") == BraidWord((2,))

    def test_empty(self):
        assert BraidWord.parse("") == BraidWord(())
        assert BraidWord.parse("   ") == BraidWord(())

    def test_index_out_of_range(self):
        with pytest.raises(BraidParseError) as err:
            BraidWord.parse("3")
        assert err.value.position == 0
        assert "out of range" in str(err.value)

    def test_error_position(self):
        with pytest.raises(BraidParseError) as err:
            BraidWord.parse("1 2 x")
        assert err.value.position == 4

    def test_malformed_power(self):
        with pytest.raises(BraidParseError):
            BraidWord.parse("1^x")
        with pytest.raises(BraidParseError):
            BraidWord.parse("1^")

    def test_parse_render_roundtrip(self):
        rng = random.Random(1)
        for _ in range(300):
            w = BraidWord(random_word(rng, 12))
            assert BraidWord.parse(w.render()) == w
        assert BraidWord((1, 1, 1, 2)).render() == "1^3 2"
        assert str(BraidWord((1, 1, 1, 2))) == "1^3 2"
        assert list(BraidWord((1, -2, 1))) == [1, -2, 1]

    def test_syllables_merge_neighbours(self):
        assert parse_syllables("1 1^2 2^0 1 -2^-3 2") == [(1, 4), (2, 4)]
        assert parse_syllables("1^0 -1^-2 2^0") == [(1, 2)]
        rng = random.Random(2)
        for _ in range(300):
            w = BraidWord(random_word(rng, 20))
            assert parse_syllables(w.render()) == w.syllables()
            assert sum(count for _, count in w.syllables()) == len(w)

    def test_letter_validation(self):
        with pytest.raises(ValueError):
            BraidWord((3,))
        with pytest.raises(ValueError):
            BraidWord((0,))


class TestExponentSum:
    def test_empty(self):
        assert exponent_sum(BraidWord(())) == 0

    def test_garside(self):
        assert exponent_sum(DELTA) == 3

    def test_signed_count(self):
        assert exponent_sum(BraidWord.parse("1^-1 2^3")) == 2


class TestGarsidePower:
    def test_zero(self):
        assert garside_power(0) == BraidWord(())

    def test_one(self):
        assert garside_power(1) == DELTA
        assert exponent_sum(garside_power(1)) == 3

    def test_fourth_power_is_phi_trivial(self):
        w = garside_power(4)
        assert len(w) == 12
        assert phi(w) == IDENTITY

    def test_negative_is_inverse(self):
        for k in range(6):
            assert garside_power(-k) == garside_power(k).inverse()
            assert exponent_sum(garside_power(-k)) == -3 * k


class TestBurau:
    def test_braid_relation(self):
        assert burau(BraidWord((1, 2, 1))) == burau(BraidWord((2, 1, 2)))


class TestPhi:
    def test_center(self):
        assert phi(garside_power(2)) == Mat2Z(-1, 0, 0, -1)
        assert phi(garside_power(4)) == IDENTITY
        assert exponent_sum(garside_power(2)) == 6
        assert exponent_sum(garside_power(4)) == 12

    def test_braid_relation(self):
        assert phi(BraidWord((1, 2, 1))) == phi(BraidWord((2, 1, 2)))

    def test_non_integral_specialization_raises(self):
        # q^(1/2) at q = -1 is i, so this matrix has no integral image.
        with pytest.raises(ArithmeticError, match="non-integer specialization"):
            BurauMat(SQRT_Q, ZERO, ZERO, ONE).at_q_minus_one()


def _geometric(x: HalfLaurent, n: int) -> HalfLaurent:
    """G_n(x) = 1 + x + ... + x^(n-1) for a unit monomial x."""
    total = ZERO
    for j in range(n):
        total = total + monomial_pow(x, j)
    return total


NEG_INV_Q = HalfLaurent({-2: -1})


class TestDerivedData:
    """Runs and matrix images are kept on the word without changing it."""

    def test_syllables_returns_a_fresh_list(self):
        w = BraidWord.parse("1^3 -2 2^-2 1")
        runs, mat = w.syllables(), burau(w)
        runs.append((2, 5))
        runs[0] = (-1, 1)
        assert w.syllables() == [(1, 3), (-2, 3), (1, 1)]
        assert w.render() == "1^3 -2^3 1"
        assert burau(w) == mat == burau(BraidWord(w.letters))

    def test_equal_words_built_apart(self):
        parsed, built = BraidWord.parse("1^3 2"), BraidWord((1, 1, 1, 2))
        for f in (burau, phi, alexander, jones):
            assert f(parsed) == f(built), f.__name__
        assert parsed == built and hash(parsed) == hash(built)
        assert repr(parsed) == repr(built) == "BraidWord(letters=(1, 1, 1, 2))"
        assert repr(BraidWord()) == "BraidWord(letters=())"


class TestSyllableKernel:
    """The syllable Burau and phi products against the letter-by-letter oracles."""

    def test_closed_form_generator_powers(self):
        for n in range(1, 51):
            g_pos, g_neg = _geometric(NEG_Q, n), _geometric(NEG_INV_Q, n)
            pos, neg = monomial_pow(NEG_Q, n), monomial_pow(NEG_INV_Q, n)
            expected = {
                1: BurauMat(ONE, NEG_Q * g_pos, ZERO, pos),
                -1: BurauMat(ONE, -g_neg, ZERO, neg),
                2: BurauMat(pos, ZERO, -g_pos, ONE),
                -2: BurauMat(neg, ZERO, NEG_INV_Q * g_neg, ONE),
            }
            for letter, mat in expected.items():
                w = BraidWord((letter,) * n)
                assert burau(w) == mat == oracles.burau(w), (letter, n)

    def test_all_words_up_to_seven_letters(self):
        # Each word's oracle images are its parent prefix's times one
        # generator image: the left-to-right product of oracles.burau and
        # oracles.phi, taken once per prefix.
        level, checked = {(): (oracles.BURAU_IDENTITY, IDENTITY)}, 0
        for length in range(8):
            children = {}
            for letters, (bur, mat) in level.items():
                w = BraidWord(letters)
                assert burau(w) == bur, w
                assert phi(w) == mat, w
                checked += 1
                if length < 7:
                    for letter in VALID_LETTERS:
                        children[letters + (letter,)] = (bur * oracles.BURAU_GEN[letter],
                                                         mat * oracles.PHI_GEN[letter])
            level = children
        assert checked == sum(4 ** n for n in range(8)) == 21845

    def test_random_words(self):
        rng = random.Random(20261018)
        for _ in range(2000):
            w = BraidWord(random_word(rng, 40))
            assert burau(w) == oracles.burau(w), w
            assert phi(w) == oracles.phi(w), w

    def test_run_heavy_words(self):
        rng = random.Random(7)
        words = [BraidWord.parse(text) for text in
                 ("1^200 -2^200", "-1^200 2^200", "2^200 -1^3 1^0 -2^199")]
        for _ in range(30):
            tokens = [f"{rng.choice(VALID_LETTERS)}^{rng.randint(1, 200)}"
                      for _ in range(rng.randint(2, 4))]
            words.append(BraidWord.parse(" ".join(tokens)))
        for w in words:
            assert burau(w) == oracles.burau(w), w.render()
            assert phi(w) == oracles.phi(w), w.render()


class TestTrace:
    def test_values(self):
        assert trace_b3(BraidWord((1, 2))) == 1
        assert trace_b3(BraidWord((1, -2))) == 3
        assert trace_b3(BraidWord(())) == 2

    def test_class_function(self):
        rng = random.Random(3)
        for _ in range(200):
            w = BraidWord(random_word(rng, 10))
            u = BraidWord(random_word(rng, 6))
            assert trace_b3(u * w * u.inverse()) == trace_b3(w)


class TestAlexander:
    def test_unknot(self):
        assert alexander(BraidWord((1, 2))) == ONE

    def test_trefoil(self):
        # q^-1 - 1 + q: the knot-table trefoil value on the nose.
        assert alexander(BraidWord((1, 1, 1, 2))) == HalfLaurent({-2: 1, 0: -1, 2: 1})

    def test_central_shift_re_derivation(self):
        # Multiplying by the full twist scales the Burau matrix by q^6 and
        # shifts the exponent by 12; re-derive the output from those parts.
        q6 = HalfLaurent.q_power(6)
        assert burau(garside_power(4)) == BurauMat(q6, ZERO, ZERO, q6)
        rng = random.Random(4)
        for _ in range(40):
            w = BraidWord(random_word(rng, 8))
            eps = exponent_sum(w)
            shifted = garside_power(4) * w
            numerator = ONE - q6 * burau(w).trace() + monomial_pow(NEG_Q, eps + 12)
            expected = monomial_pow(NEG_INV_SQRT_Q, eps + 10) \
                * numerator.exact_div(CYCLOTOMIC3)
            assert alexander(shifted) == expected

    def test_conjugation_invariance(self):
        rng = random.Random(5)
        for _ in range(100):
            w = BraidWord(random_word(rng, 8))
            u = BraidWord(random_word(rng, 6))
            assert alexander(u * w * u.inverse()) == alexander(w)


class TestJones:
    def test_unknot(self):
        assert jones(BraidWord((1, 2))) == ONE

    def test_trefoil_vs_table_up_to_mirror(self):
        value = jones(BraidWord((1, 1, 1, 2)))
        table = HalfLaurent({-8: -1, -6: 1, -2: 1})  # -q^-4 + q^-3 + q^-1
        mirrored = HalfLaurent({-e: c for e, c in value.items()})
        assert mirrored == table

    def test_three_component_unlink(self):
        assert jones(BraidWord(())) == HalfLaurent({-2: 1, 0: 2, 2: 1})

    def test_conjugation_invariance(self):
        rng = random.Random(6)
        for _ in range(100):
            w = BraidWord(random_word(rng, 8))
            u = BraidWord(random_word(rng, 6))
            assert jones(u * w * u.inverse()) == jones(w)


class TestSpecialValue:
    def test_examples(self):
        assert special_value(BraidWord((1, 2))) == GaussInt(1, 0)
        assert special_value(BraidWord((1, -2))) == GaussInt(1, 0)
        assert special_value(BraidWord(())) == GaussInt(0, 0)
