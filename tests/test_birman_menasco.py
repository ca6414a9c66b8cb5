"""Tests for the exceptional-fiber families and the correction counts."""

from collections import defaultdict

import pytest

from braidforms import braid3, counts, quadforms
from braidforms._value import InputError
from braidforms.birman_menasco import (_family_solutions, class_excess,
                                       family_iii_trace_exp, family_iii_word,
                                       family_iv_trace_exp, family_iv_word,
                                       shared_closure_count, witnesses)
from braidforms.braid3 import BraidWord
from braidforms.counts import default_sweep_exponent
from braidforms.sl2z import S, Mat2Z
from oracles import direct, filtered_family_solutions, normal_form_word


class TestFamilyIII:
    def test_symmetric_in_outer_powers(self):
        assert family_iii_trace_exp(3, 2, 1, 0) == family_iii_trace_exp(1, 2, 3, 0)

    def test_word_example(self):
        assert family_iii_word(1, 2, 3, 0) == BraidWord.parse("-1 2 -1^2 2^3")

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            family_iii_trace_exp(1, 1, 3, 0)  # v < 2
        with pytest.raises(ValueError):
            family_iii_trace_exp(2, 2, 2, 0)  # u == w
        with pytest.raises(ValueError):
            family_iii_trace_exp(1, 2, 3, 2)  # k out of range
        with pytest.raises(ValueError):
            family_iii_trace_exp(0, 2, 3, 0)  # nonpositive


class TestFamilyIV:
    def test_matches_direct_computation_example(self):
        word = BraidWord.parse("1 2 1 1 2 1 -1 2 -1 2^2 -1 2^3")
        assert direct(word) == family_iv_trace_exp(1, 2, 3, 1)
        assert family_iv_trace_exp(1, 2, 3, 1) == (-48, 9)

    def test_k_values_differ_by_sign_and_shift(self):
        t1, n1 = family_iv_trace_exp(1, 2, 3, 1)
        t2, n2 = family_iv_trace_exp(1, 2, 3, 2)
        assert t2 == -t1
        assert n2 == n1 + 6

    def test_fully_symmetric(self):
        base = family_iv_trace_exp(1, 2, 3, 1)
        for perm in ((2, 3, 1), (3, 1, 2), (2, 1, 3), (3, 2, 1), (1, 3, 2)):
            assert family_iv_trace_exp(*perm, 1) == base

    def test_cyclic_words_share_invariants(self):
        for k in (1, 2):
            words = [family_iv_word(1, 2, 4, k), family_iv_word(2, 4, 1, k),
                     family_iv_word(4, 1, 2, k)]
            values = {direct(w) for w in words}
            assert len(values) == 1

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            family_iv_trace_exp(1, 2, 2, 1)  # repeated power
        with pytest.raises(ValueError):
            family_iv_trace_exp(1, 2, 3, 0)  # k out of range
        with pytest.raises(ValueError):
            family_iv_trace_exp(-1, 2, 3, 1)


@pytest.mark.parametrize("trace_exp, word, params, error", [
    (family_iii_trace_exp, family_iii_word, (2, 2, 2, 0), "iii"),   # u == w
    (family_iii_trace_exp, family_iii_word, (1, 1, 3, 0), "iii"),   # v < 2
    (family_iii_trace_exp, family_iii_word, (1, 2, 3, -1), "iii"),  # k < 0
    (family_iii_trace_exp, family_iii_word, (1, 2, 3, 2), "iii"),   # k > 1
    (family_iii_trace_exp, family_iii_word, (1, 2, 0, 1), "iii"),   # zero power
    (family_iii_trace_exp, family_iii_word, (1, 2, 2, 1), None),    # least v, k = 1
    (family_iv_trace_exp, family_iv_word, (3, 1, 3, 1), "iv"),      # repeated power
    (family_iv_trace_exp, family_iv_word, (1, 2, 3, 0), "iv"),      # k < 1
    (family_iv_trace_exp, family_iv_word, (1, 2, 3, 3), "iv"),      # k > 2
    (family_iv_trace_exp, family_iv_word, (1, 0, 3, 2), "iv"),      # zero power
    (family_iv_trace_exp, family_iv_word, (3, 1, 2, 2), None),      # least powers, k = 2
])
def test_family_domains(trace_exp, word, params, error):
    if error is None:
        assert trace_exp(*params) == direct(word(*params))
    else:
        with pytest.raises(ValueError, match=f"outside the family-{error} domain"):
            trace_exp(*params)


class TestSharedClosureCount:
    def test_empty_at_small_trace(self):
        assert shared_closure_count(3, 0) == 0

    def test_first_family_iii_cell(self):
        assert shared_closure_count(20, 1) == 1

    def test_one_count_per_unordered_parameter_set(self):
        # (1,2,3,0) and (3,2,1,0) describe the same closure, counted once.
        t, n = family_iii_trace_exp(1, 2, 3, 0)
        wits = [w for w in witnesses(t, n) if w.family == "family-iii"]
        assert len(wits) == 1
        assert wits[0].params in ((1, 2, 3, 0), (3, 2, 1, 0))

    def test_family_iv_cell(self):
        t, n = family_iv_trace_exp(1, 2, 3, 1)
        assert shared_closure_count(t, n) >= 1
        sets = [w.params for w in witnesses(t, n) if w.family == "family-iv"]
        assert (1, 2, 3, 1) in sets


class TestFamilySolutions:
    # The solver takes one cell and stops at the least value of the rest;
    # the oracle runs over the whole trace and filters, so grouped by
    # exponent both must list the same tuples in the same order.
    @pytest.mark.parametrize("ts", [range(-1000, 1001), (4999, -4999, 10**5, -10**5)])
    def test_matches_filtered_loops(self, ts):
        closed = {"iii": family_iii_trace_exp, "iv": family_iv_trace_exp}
        for t in ts:
            if t in (2, -2):
                continue
            by_exponent = defaultdict(list)
            for family, params, n in filtered_family_solutions(t):
                by_exponent[n].append((family, params))
            cells = {n + d for n in by_exponent for d in (-1, 0, 1)}
            if abs(t) <= 200:
                cells |= set(range(-abs(t) - 13, abs(t) + 14))
            for n in cells:
                sols = _family_solutions(t, n)
                assert sols == by_exponent.get(n, []), (t, n)
                for family, params in sols:
                    assert closed[family](*params) == (t, n)
            start = default_sweep_exponent(t)
            assert all(_family_solutions(t, start + j) == [] for j in range(12))


class TestExcludedTrace:
    # Every library entry point that refuses t = +-2 raises this one
    # error, from quadforms._check_trace.
    MESSAGE = ("t = +-2 is excluded",)

    def assert_refused(self, call, *args):
        with pytest.raises(InputError) as info:
            call(*args)
        assert type(info.value) is InputError and info.value.args == self.MESSAGE

    @pytest.mark.parametrize("function", [
        quadforms.enumerate_classes, quadforms.class_number, quadforms.matrix_of_form,
        counts.trace_classes, counts.class_count, counts.counts_row, counts.link_count,
        counts.check_main_identity, counts.check_window_symmetry, counts.braid_census,
        shared_closure_count, class_excess, witnesses])
    @pytest.mark.parametrize("t", [2, -2])
    def test_rejects_t_plus_minus_2(self, function, t):
        args = {quadforms.enumerate_classes: (t,), quadforms.class_number: (t,),
                quadforms.matrix_of_form: (quadforms.QForm(1, 1, -1), t),
                counts.trace_classes: (t,), counts.braid_census: (t, 0, 3)}
        self.assert_refused(function, *args.get(function, (t, 0)))

    @pytest.mark.parametrize("m", [S, Mat2Z(-1, -1, 0, -1)], ids=["S", "-S"])
    def test_rejects_matrices_of_trace_plus_minus_2(self, m):
        partner = Mat2Z(2, 1, 1, 1)  # trace 3, so a trace mismatch cannot answer first
        self.assert_refused(quadforms.form_of_matrix, m)
        self.assert_refused(quadforms.is_conjugate, m, partner)
        self.assert_refused(quadforms.is_conjugate, partner, m)


class TestClassExcess:
    def test_unknot_cells(self):
        assert class_excess(3, 0) == 1
        assert class_excess(1, 2) == shared_closure_count(1, 2) + 1
        assert class_excess(1, -2) == 1

    def test_torus_cells(self):
        assert class_excess(5, 2) == 1    # s1^3 s2^-1
        assert class_excess(5, -2) == 1   # s1^-3 s2
        assert class_excess(-1, 4) == 1
        assert class_excess(0, 3) == 1
        assert class_excess(0, -3) == 1

    def test_plain_cells_are_zero(self):
        assert class_excess(3, 5) == 0
        assert class_excess(7, 0) == 0


class TestWitnesses:
    def test_unknot_witness(self):
        wits = witnesses(3, 0)
        assert len(wits) == 1
        assert wits[0].family == "unknot"
        assert wits[0].words == (BraidWord((1, -2)),)
        assert (wits[0].trace, wits[0].exponent) == (3, 0)

    def test_unknot_witness_positive(self):
        wits = witnesses(1, 2)
        assert [w.family for w in wits] == ["unknot"]
        assert wits[0].words == (BraidWord((1, 2)),)

    def test_torus_witness_words(self):
        (wit,) = witnesses(7, 4)
        assert wit.family == "torus"
        assert wit.params == (5,)
        assert wit.words == (BraidWord((1, 1, 1, 1, 1, -2)),)

    def test_witness_count_matches_excess(self):
        for t in [t for t in range(-60, 61) if t not in (-2, 2)]:
            for n in range(-10, 11):
                assert len(witnesses(t, n)) == class_excess(t, n)

    def test_family_witnesses_live_in_their_cell(self):
        for t, n in ((20, 1), (-20, 7), (-48, 9), (48, 15)):
            for wit in witnesses(t, n):
                assert (wit.trace, wit.exponent) == (t, n)
                for word in wit.words:
                    assert direct(word) == (t, n)

    def test_fiber_pairs_have_two_words(self):
        (wit,) = [w for w in witnesses(20, 1) if w.family == "family-iii"]
        assert len(wit.words) == 2
        assert wit.words[0] != wit.words[1]


def assert_distinct_classes_same_closure(a, b):
    # A fiber pair: one (trace, exponent) cell, two conjugacy classes (their
    # phi images give inequivalent forms), one link (equal closure invariants).
    assert direct(a) == direct(b)
    assert (quadforms.reduce(quadforms.form_of_matrix(braid3.phi(a)))
            != quadforms.reduce(quadforms.form_of_matrix(braid3.phi(b))))
    assert braid3.jones(a) == braid3.jones(b)
    assert braid3.alexander(a) == braid3.alexander(b)


class TestFiberPairs:
    def test_family_pairs_are_two_classes_of_one_link(self):
        pairs = [(family_iii_word(u, v, w, k), family_iii_word(w, v, u, k))
                 for u in range(1, 9) for w in range(u + 1, 9) for v in range(2, 9)
                 for k in (0, 1)]
        pairs += [(family_iv_word(u, v, w, k), family_iv_word(u, w, v, k))
                  for v in range(1, 9) for w in range(v + 1, 9) for u in range(1, 9)
                  if u not in (v, w) for k in (1, 2)]
        assert len(pairs) == 728
        for a, b in pairs:
            assert_distinct_classes_same_closure(a, b)

    def test_family_witnesses_are_two_classes_of_one_link(self):
        pairs = [wit.words for t in range(-60, 61) if t not in (-2, 2)
                 for n in range(-70, 71) for wit in witnesses(t, n)
                 if wit.family.startswith("family-")]
        assert len(pairs) == 88
        for a, b in pairs:
            assert_distinct_classes_same_closure(a, b)

    def test_shared_closures_fit_the_invariant_bound(self):
        # The classes of a shared closure are one link, so they share Jones
        # and Alexander: shared_closure_count(t, n) <= x_count - #distinct
        # (Jones, Alexander) over the cell's class words, each lifted to
        # exponent n by Delta^4j (phi image I, exponent 12j).  class_excess
        # also counts braid-index-1 and -2 closures, which this bound
        # leaves out.  Every family cell of 3 <= |t| <= 60 lies in
        # |n| <= 3|t| + 30; elsewhere the count is 0 and the bound holds
        # for any invariants.
        cells = 0
        for t in [s * t for t in range(3, 61) for s in (1, -1)]:
            words = [(cls.residue, normal_form_word(cls.key, t)) for cls in counts.trace_classes(t)]
            for n in range(-3 * abs(t) - 30, 3 * abs(t) + 31):
                if shared := shared_closure_count(t, n):
                    lifted = [w * braid3.garside_power(4 * ((n - braid3.exponent_sum(w)) // 12))
                              for residue, w in words if residue == n % 12]
                    invariants = {(braid3.jones(w), braid3.alexander(w)) for w in lifted}
                    assert shared <= counts.class_count(t, n) - len(invariants), (t, n)
                    cells += 1
        assert cells == 87
