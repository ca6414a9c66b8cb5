"""End-to-end verification sweeps.

Every check here is an exact integer or polynomial equality (zero
tolerance).  Each test prints one PASS/FAIL line; run with `pytest -s`
to see them as they complete.

Each sweep is the one home of the property it sweeps: no unit test
repeats a sweep's assertion on a subset of its inputs.  To check a
property over more inputs, widen its sweep here.
"""

import random
from itertools import product

from braidforms import birman_menasco, braid3, counts, quadforms
from braidforms.braid3 import BraidWord
from braidforms.laurent import (CYCLOTOMIC3, HalfLaurent, NEG_Q, NEG_SQRT_Q, SQRT_Q,
                                monomial_pow)
from oracles import (CENSUS_TRACES, conjugacy_components, direct, random_word,
                     trace_t_matrices, words_up_to)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{name}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _sweep_traces(bound: int) -> list[int]:
    return [t for t in range(-bound, bound + 1) if t not in (-2, 2)]


def test_01_main_identity_full_sweep():
    failures = []
    for t in _sweep_traces(200):
        n = -abs(t - 3) - 24
        report = counts.check_main_identity(t, n)
        if not report.ok:
            failures.append((t, n, report.h, report.window_total))
    _report("1 main identity, |t| <= 200", not failures,
            f"{len(_sweep_traces(200))} traces" if not failures else str(failures[:5]))


def test_02_window_independence():
    failures = []
    cells = 0
    for t in _sweep_traces(50):
        h = quadforms.class_number(t)
        for n in range(-40, 41):
            report = counts.check_main_identity(t, n)
            cells += 1
            if not report.ok or report.window_total != h:
                failures.append((t, n))
    _report("2 window independence, |t| <= 50, n in [-40, 40]", not failures,
            f"{cells} windows" if not failures else str(failures[:5]))


def test_03_periodicity_of_link_counts():
    failures = []
    checked = 0
    for t in _sweep_traces(100):
        base = -abs(t - 3) - 40
        for n in range(base, base + 22):
            checked += 1
            if counts.link_count(t, n) != counts.link_count(t, n + 12):
                failures.append((t, n))
    _report("3 periodicity p(t, n) = p(t, n+12)", not failures,
            f"{checked} cells" if not failures else str(failures[:5]))


def test_04_window_symmetry():
    failures = []
    for t in _sweep_traces(100):
        n = -abs(t + 3) - 40
        report = counts.check_window_symmetry(t, n)
        if not report.ok:
            failures.append((t, n, report.lhs, report.rhs))
    _report("4 symmetry of window sums under t -> -t", not failures,
            "" if not failures else str(failures[:5]))


def test_05_window_sum_never_exceeds_class_number():
    failures = []
    for t in _sweep_traces(50):
        h = quadforms.class_number(t)
        for n in range(-40, 41):
            total = sum(counts.link_count(t, n + j) for j in range(12))
            if total > h:
                failures.append((t, n, total, h))
    _report("5 h(t) >= sum of p over every window", not failures,
            "" if not failures else str(failures[:5]))


Q_PLUS_ONE_PLUS_INV_Q = HalfLaurent({2: 1, 0: 1, -2: 1})


def _check_specializations(w: BraidWord) -> bool:
    eps = braid3.exponent_sum(w)
    bur = braid3.burau(w)
    mat = braid3.phi(w)
    if bur.at_q_minus_one() != mat:
        return False
    if bur.det() != monomial_pow(NEG_Q, eps):
        return False
    sv = braid3.special_value(w)
    jon = braid3.jones(w)
    alex = braid3.alexander(w)
    if jon.at_q_minus_one() != sv or alex.at_q_minus_one() != sv:
        return False
    inner = Q_PLUS_ONE_PLUS_INV_Q + monomial_pow(NEG_Q, eps) \
        - monomial_pow(NEG_SQRT_Q, eps - 2) * CYCLOTOMIC3 * alex
    return jon == monomial_pow(SQRT_Q, eps) * inner


def test_06_polynomial_specializations():
    bad = []
    total = 0
    for w in words_up_to(7):
        total += 1
        if not _check_specializations(w):
            bad.append(w.letters)
    rng = random.Random(20240313)
    for _ in range(10_000):
        total += 1
        w = BraidWord(random_word(rng, 40))
        if not _check_specializations(w):
            bad.append(w.letters)
    _report("6 Burau/Jones/Alexander specializations", not bad,
            f"{total} words" if not bad else str(bad[:3]))


def test_07_closed_trace_exponent_formulas():
    bad = []
    # unknot fiber words
    for word, expected in (
            (BraidWord((1, 2)), (1, 2)),
            (BraidWord((1, -2)), (3, 0)),
            (BraidWord((-1, -2)), (1, -2))):
        if direct(word) != expected:
            bad.append(("unknot", word.letters))
    # torus fiber words
    for k in range(-30, 31):
        head = tuple([1] * k if k >= 0 else [-1] * (-k))
        if direct(BraidWord(head + (2,))) != (2 - k, k + 1):
            bad.append(("torus+", k))
        if direct(BraidWord(head + (-2,))) != (2 + k, k - 1):
            bad.append(("torus-", k))
    # parametrized families against their explicit words
    for u, v, w in product(range(1, 9), repeat=3):
        if u != w and v >= 2:
            for k in (0, 1):
                if birman_menasco.family_iii_trace_exp(u, v, w, k) != \
                        direct(birman_menasco.family_iii_word(u, v, w, k)):
                    bad.append(("iii", (u, v, w, k)))
        if len({u, v, w}) == 3:
            for k in (1, 2):
                if birman_menasco.family_iv_trace_exp(u, v, w, k) != \
                        direct(birman_menasco.family_iv_word(u, v, w, k)):
                    bad.append(("iv", (u, v, w, k)))
    _report("7 closed trace/exponent formulas vs direct computation", not bad,
            "" if not bad else str(bad[:5]))


def test_08_excess_vanishes_below_threshold():
    bad = []
    for t in _sweep_traces(200):
        threshold = -abs(t - 3)
        for n in range(threshold - 50, threshold):
            if birman_menasco.class_excess(t, n) != 0:
                bad.append((t, n))
    _report("8 vanishing of corrections for n < -|t-3|", not bad,
            "" if not bad else str(bad[:5]))


def test_09_form_matrix_round_trip():
    bad = []
    for t in _sweep_traces(50):
        for key in quadforms.enumerate_classes(t):
            f = key.rep_form()
            m = quadforms.matrix_of_form(f, t)
            if m.trace() != t or quadforms.form_of_matrix(m) != f:
                bad.append((t, key.rep))
    rng = random.Random(99)
    pairs = 0
    while pairs < 200:
        w = BraidWord(random_word(rng, 12))
        m = braid3.phi(w)
        if m.trace() in (2, -2):
            continue
        p = braid3.phi(BraidWord(random_word(rng, 10)))
        conj = p * m * p.inverse()
        pairs += 1
        if not quadforms.equivalent(quadforms.form_of_matrix(m),
                                    quadforms.form_of_matrix(conj)):
            bad.append(("conjugate-pair", m.as_rows()))
    _report("9 matrix <-> form round trip on classes", not bad,
            "" if not bad else str(bad[:5]))


def test_10_brute_force_concordance():
    table = counts.census_table(12, range(-8, 9), range(-8, 9))
    unsound = []
    gaps = []
    for t in CENSUS_TRACES:
        for n in range(-8, 9):
            census = table.get((t, n), 0)
            exact = counts.class_count(t, n)
            if census > exact:
                unsound.append((t, n, census, exact))
            elif census < exact:
                gaps.append((t, n, exact - census))
    _report("10a census soundness (census <= x_count)", not unsound,
            "" if not unsound else str(unsound[:5]))
    _report("10b census reaches x_count at length 12", not gaps,
            "289 cells" if not gaps else f"residual gaps: {gaps}")
    mismatches = []
    for t in CENSUS_TRACES:
        comps = conjugacy_components(trace_t_matrices(t, 12), 50)
        if len(comps) != quadforms.class_number(t):
            mismatches.append((t, len(comps), quadforms.class_number(t)))
    _report("10c bounded conjugacy oracle matches h(t)", not mismatches,
            "" if not mismatches else str(mismatches))
