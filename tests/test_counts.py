"""Tests for class/link counts, the counting identity, and the census."""

import random

import pytest

from braidforms import birman_menasco, quadforms, sl2z
from braidforms.braid3 import BraidWord, alexander, exponent_sum, jones, phi, special_value
from braidforms.counts import (_STEPS, CountsRow, LinkCountError, braid_census,
                               census_table, check_main_identity,
                               check_window_symmetry, class_count, counts_row,
                               default_sweep_exponent, link_count,
                               trace_classes)
from braidforms.quadforms import QForm
from oracles import (CENSUS_TRACES, CERTIFICATE_TRACES, class_digest, cycle_sum_residue,
                     necklace_histogram, normal_form_word, rademacher_residue,
                     random_st_matrix, session_classes, word_census_table)


def rotated(cycle):
    start = cycle.index(min(cycle))
    return tuple(cycle[start:] + cycle[:start])


def mirror_images(cycle):
    """Cycles of (-a, b, -c), of (c, b, a) in reverse order, and of both."""
    flipped = [(c, b, a) for a, b, c in reversed(cycle)]
    return (rotated([(-a, b, -c) for a, b, c in cycle]), rotated(flipped),
            rotated([(-a, b, -c) for a, b, c in flipped]))


class TestTraceClasses:
    def test_small_traces(self):
        assert len(trace_classes(3)) == 1
        assert len(trace_classes(0)) == 2
        assert trace_classes(3)[0].residue == 0

    def test_residue_independent_of_representative(self):
        rng = random.Random(1)
        for t in (0, 1, 3, 5, 8, -7):
            for cls in trace_classes(t):
                rep = quadforms.matrix_of_form(cls.key.rep_form(), t)
                for _ in range(5):
                    p = random_st_matrix(rng)
                    conj = p * rep * p.inverse()
                    assert sl2z.exponent_mod12(conj) == cls.residue

    @pytest.mark.parametrize("t", [7, -13, 250, 4999, -10**4, -99999])
    def test_exact_residue_symmetries(self, t):
        residues = {cls.key: cls.residue for cls in session_classes(t)}
        # -f is the class of the inverse matrix: residue -r.
        for key, r in residues.items():
            assert residues[quadforms.reduce(-key.rep_form())] == -r % 12, key.rep
            # The opposite form (c, b, a) is the class of J M^T J: residue r.
            a, b, c = key.rep
            assert residues[quadforms.reduce(QForm(c, b, a))] == r, key.rep
        # -M = M (ST)^3 with (ST)^3 of exponent 6: same keys, residue 6 - r.
        assert {cls.key: cls.residue for cls in session_classes(-t)} == \
            {key: (6 - r) % 12 for key, r in residues.items()}

    @pytest.mark.parametrize("t", [7, -13, 250, 4999, 30030, -99999])
    def test_classes_closed_under_mirrors(self, t):
        cycles = {cls.key.rep: cls.key.cycle for cls in session_classes(t)}
        for cycle in cycles.values():
            for image in mirror_images(cycle):
                assert cycles[image[0]] == image, cycle

    @pytest.mark.parametrize("t, sizes", [(3, [1]), (4, [2]), (7, [1, 2]), (-18, [1, 1, 2, 2, 2]),
                                          (20, [2, 2, 2, 4])])
    def test_mirror_orbit_sizes(self, t, sizes):
        # Orbits of one or two classes, where the mirrors fix a class,
        # are counted once each.
        orbits = {frozenset(image[0] for image in (key.cycle, *mirror_images(key.cycle)))
                  for key in quadforms.enumerate_classes(t)}
        assert sorted(map(len, orbits)) == sizes
        assert sum(map(len, orbits)) == len(trace_classes(t))

    def test_residues_match_rademacher_closed_form(self):
        # Reaches traces far beyond the brute-force conjugacy oracles.
        traces = [t for t in range(-100, 101) if t not in (2, -2)] + [4999, -10000]
        for t in traces:
            for cls in session_classes(t):
                rep = quadforms.matrix_of_form(cls.key.rep_form(), t)
                assert cls.residue == rademacher_residue(rep), (t, cls.key.rep)

    def test_classes_and_residues_digest(self):
        # Pins every class, cycle order and residue of |t| <= 300; CI checks
        # the same digest over |t| <= 2500 and five larger traces.
        traces = [t for t in range(-300, 301) if t not in (2, -2)]
        assert class_digest(traces) == \
            "c830d6d7b0cc1569cc952052e66dcd552cabc9d9ad5f4197818a5edda81b111f"

    def test_residues_match_cycle_sum(self):
        # The residue read off the reduced cycle, on every class; 4,252 of
        # the 28,506 classes are imprimitive.
        traces = [s * t for t in range(3, 201) for s in (1, -1)]
        for t in traces + list(CERTIFICATE_TRACES):
            for cls in session_classes(t):
                assert cls.residue == cycle_sum_residue(cls.key.cycle, t), (t, cls.key.rep)


def residue_histogram(t):
    hist = [0] * 12
    for cls in session_classes(t):
        hist[cls.residue] += 1
    return hist


class TestResidueHistogram:
    def test_identity_rows_are_the_public_cells(self):
        # check_main_identity tallies the residues once; its rows must be
        # the cells counts_row gives, and its x_counts the histogram of
        # trace_classes, over every residue of the window.
        traces = [s * t for t in range(3, 301) for s in (1, -1)] + [-1, 0, 1, 4999, -10000]
        for t in traces:
            hist = residue_histogram(t)
            assert sum(hist) == quadforms.class_number(t), t
            for n in (default_sweep_exponent(t), 0):
                report = check_main_identity(t, n)
                assert report.rows == tuple(counts_row(t, n + j) for j in range(12)), (t, n)
                assert [row.x_count for row in report.rows] == \
                    [hist[(n + j) % 12] for j in range(12)], (t, n)
                assert report.h == sum(hist), (t, n)

    def test_matches_braid_word_necklaces(self):
        # The classes of trace t read off the positive R/L words (about 1 s).
        for t in [s * t for t in range(3, 181) for s in (1, -1)]:
            hist = residue_histogram(t)
            assert necklace_histogram(t) == hist, t
            assert sum(hist) == quadforms.class_number(t), t

    def test_normal_form_words_carry_their_classes(self):
        # One positive R/L word per class, times Delta^2 for t < 0, read off
        # its reduced cycle.  Its phi image reduces to the class key, its
        # exponent sum is the residue, and Alexander and Jones at q = -1 are
        # its special value.  For |t| <= 40 the words' residues are the
        # necklaces', so no class is missing.  Every class of
        # 3 <= |t| <= 200, and 40 of each large t, whose words run to
        # 5,007 letters (about 3 s).
        rng = random.Random(20)
        cases = [(t, trace_classes(t)) for t in [s * t for t in range(3, 201) for s in (1, -1)]]
        cases += [(t, rng.sample(session_classes(t), 40)) for t in CERTIFICATE_TRACES]
        for t, classes in cases:
            hist = [0] * 12
            for cls in classes:
                w = normal_form_word(cls.key, t)
                assert quadforms.reduce(quadforms.form_of_matrix(phi(w))) == cls.key, (t, cls.key.rep)
                hist[exponent_sum(w) % 12] += 1
                assert exponent_sum(w) % 12 == cls.residue, (t, cls.key.rep)
                sv = special_value(w)
                assert alexander(w).at_q_minus_one() == sv == jones(w).at_q_minus_one(), (t, cls.key.rep)
            if abs(t) <= 40:
                assert hist == necklace_histogram(t), t


class TestClassCount:
    def test_trace_three_residue(self):
        assert class_count(3, 0) == 1
        for j in range(1, 12):
            assert class_count(3, j) == 0

    def test_period_twelve(self):
        for t in (0, 3, 5, -9, 14):
            for n in range(-6, 6):
                assert class_count(t, n) == class_count(t, n + 12)

    def test_window_sums_to_class_number(self):
        for t in (0, 1, 3, 4, 5, 10, -17, 30):
            for n in (-40, -3, 0, 7):
                window = sum(class_count(t, n + j) for j in range(12))
                assert window == quadforms.class_number(t)


class TestLinkCount:
    def test_unknot_cell(self):
        assert link_count(3, 0) == 0

    def test_window_sum_bounded_over_wide_range(self):
        # Finiteness in checkable form: the bound holds uniformly in n.
        for t in (3, -7, 16):
            h = quadforms.class_number(t)
            for n in range(-500, 501):
                assert sum(link_count(t, n + j) for j in range(12)) <= h

    def test_counts_row_fields(self):
        row = counts_row(3, 0)
        assert row == CountsRow(3, 0, 1, 1, 0)
        assert row.to_json() == {"t": 3, "n": 0, "x_count": 1, "m": 1, "p": 0}

    def test_error_carries_cell(self):
        err = LinkCountError(5, 2, 1, 3)
        assert isinstance(err, ValueError)
        assert err.cell == (5, 2)
        assert "m=3" in str(err)

    def test_negative_p_raises(self, monkeypatch):
        monkeypatch.setattr(birman_menasco, "class_excess", lambda t, n: 5)
        with pytest.raises(LinkCountError) as info:
            link_count(3, 0)
        assert info.value.cell == (3, 0)
        assert (info.value.x_count, info.value.m) == (1, 5)


class TestMainIdentity:
    def test_cell_with_unknot(self):
        report = check_main_identity(3, 0)
        assert report.ok
        assert report.h == 1 and report.window_total == 1
        assert report.rows[0] == CountsRow(3, 0, 1, 1, 0)

    def test_deep_negative_window(self):
        report = check_main_identity(3, -100)
        assert report.ok
        assert report.h == 1
        assert all(row.m == 0 for row in report.rows)

    def test_lost_mirror_class_fails(self, monkeypatch):
        # t = 20 has one orbit of four classes.  A class list that lost one
        # of them, not the orbit's least but its sigma, rho or sigma-rho
        # image, still gives the lost class a residue from its orbit, so the
        # window counts one class over h.
        t = 20
        orbit = max((sorted({key.rep, *(image[0] for image in mirror_images(key.cycle))})
                     for key in quadforms.enumerate_classes(t)), key=len)
        assert len(orbit) == 4
        listed = quadforms.enumerate_classes
        for lost in orbit[1:]:
            monkeypatch.setattr(quadforms, "enumerate_classes",
                                lambda s, lost=lost: tuple(k for k in listed(s) if k.rep != lost))
            report = check_main_identity(t, default_sweep_exponent(t))
            assert not report.ok, lost
            assert (report.h, report.window_total) == (9, 10), lost


class TestWindowSymmetry:
    def test_examples(self):
        assert check_window_symmetry(3, -30).ok
        assert check_window_symmetry(5, -40).ok
        assert check_window_symmetry(3, -30).to_json() == {
            "t": 3, "n": -30, "lhs": 1, "rhs": 1, "pass": True}

    def test_equal_sums_with_unequal_cells(self):
        # Both windows sum to 13, but p is 4, 4, 2, 3 at n = -6, -3, 0, 3 for
        # t = -30 and 4, 3, 2, 4 six further on for t = 30.
        report = check_window_symmetry(-30, -8)
        assert (report.lhs, report.rhs, report.ok) == (13, 13, False)


def box(trace_bound: int, exponent_bound: int) -> tuple[range, range]:
    """The census windows |t| <= trace_bound, |n| <= exponent_bound."""
    return range(-trace_bound, trace_bound + 1), range(-exponent_bound, exponent_bound + 1)


class TestCensus:
    def test_matches_word_walk(self):
        assert census_table(0, *box(8, 8)) == {}
        for bounds in ((8, 8), (0, 0), (3, 20), (60, 5), (10**5, 8)):
            for max_len in range(10):
                assert census_table(max_len, *box(*bounds)) == word_census_table(max_len, *bounds)

    def test_single_cell_windows_match_word_walk(self):
        # The exponent window prunes the walk hardest around one cell.
        for max_len in range(10):
            words = word_census_table(max_len, 8, 9)
            for t in CENSUS_TRACES:
                for n in range(-9, 10):
                    expected = {(t, n): words[t, n]} if (t, n) in words else {}
                    assert census_table(max_len, range(t, t + 1), range(n, n + 1)) == expected

    def test_single_cell_box_matches_full_table(self):
        table = census_table(10, *box(8, 8))
        for t in CENSUS_TRACES:
            for n in range(-8, 9):
                assert braid_census(t, n, 10) == table.get((t, n), 0), (t, n)

    def test_mirror_symmetry(self):
        # s_i -> s_i^-1 conjugates the matrix image by diag(1, -1): the
        # trace stays and the exponent changes sign, at every length.
        for t in CENSUS_TRACES:
            for n in range(1, 9):
                assert braid_census(t, n, 11) == braid_census(t, -n, 11), (t, n)

    def test_delta_conjugation_permutes_the_steps(self):
        # The walk keeps one state of each pair (a, b, c, d, eps), (d, -c, -b, a, eps):
        # conjugation by phi(D) = [[0, 1], [-1, 0]] maps each letter's step to another
        # letter's step of the same exponent.
        delta = phi(BraidWord((1, 2, 1)))
        assert delta.as_rows() == [[0, 1], [-1, 0]]
        steps = dict(_STEPS)
        images = {}
        for (a, b, c, d), eps in _STEPS:
            assert delta * sl2z.Mat2Z(a, b, c, d) * delta.inverse() == sl2z.Mat2Z(d, -c, -b, a)
            images[d, -c, -b, a] = eps
        assert len(steps) == 4 and images == steps

    def test_returned_table_is_not_shared(self):
        census_table(6, *box(8, 8)).clear()
        assert braid_census(3, 0, 6) == 1
        assert census_table(6, *box(8, 8)) == word_census_table(6, 8, 8)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="^max_len must be at least 1$"):
            braid_census(3, 0, 0)


def test_default_sweep_exponent_is_below_thresholds():
    for t in (-50, -3, 0, 1, 3, 50):
        n = default_sweep_exponent(t)
        assert n + 11 < -abs(t - 3) - 11
        assert n < -abs(t - 3) - 12
