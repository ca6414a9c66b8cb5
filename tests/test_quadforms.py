"""Tests for form reduction, class enumeration, and the matrix correspondence."""

import ast
import itertools
import math
import random
from pathlib import Path

import pytest

from braidforms.quadforms import (FormClassKey, QForm,
                                  _reduced_indefinite_forms, _sqrt_mod, act,
                                  class_number, enumerate_classes, equivalent,
                                  form_of_matrix, matrix_of_form, reduce)
from braidforms.sl2z import IDENTITY, Mat2Z, S, T, st_product
import oracles
from oracles import (CERTIFICATE_TRACES, conjugacy_components,
                     divisor_sieve_reduced_forms, evaluate, forms_with_bounded_coeffs,
                     genus_mu, primes_upto, progression_quarters, random_st_matrix,
                     reduced_cycle_step, session_classes, sl2_ball, sqrt_mod_prime,
                     substitute, trace_t_matrices, trial_division_reduced_forms)


def quarter(forms):
    """The forms with 0 < a <= -c, sorted: one per mirror orbit."""
    return sorted(f for f in forms if 0 < f[0] <= -f[2])


def mirror_closure(forms):
    """The forms with their sigma, rho and sigma-rho images: from a quarter, every reduced form."""
    return {g for a, b, c in forms for g in ((a, b, c), (-a, b, -c), (c, b, a), (-c, b, -a))}


@pytest.fixture(scope="module")
def sieve_quarters():
    """The divisor sieve's quarter at large traces, for the root table and the certificate."""
    return {big: quarter(divisor_sieve_reduced_forms(big))
            for big in (4096, 4999, 10**4, 30030, 99999, 10**5)}


@pytest.fixture(scope="module")
def dense_quarters():
    """The progressions' quarter for every 3 <= t <= 2000, for the root table and the count."""
    return progression_quarters(2000)


def random_form(rng):
    while True:
        f = QForm(rng.randrange(-9, 10), rng.randrange(-9, 10), rng.randrange(-9, 10))
        if f.discriminant() != 0:
            return f


class TestDiscriminant:
    def test_examples(self):
        assert QForm(1, 0, 1).discriminant() == -4
        assert QForm(1, 1, -1).discriminant() == 5
        assert QForm(2, 3, 1).discriminant() == 1  # total even off-pipeline

    def test_str(self):
        assert str(QForm(1, -3, -1)) == "(1, -3, -1)"


class TestAct:
    def test_identity(self):
        f = QForm(3, -2, 5)
        assert act(IDENTITY, f) == f

    def test_discriminant_invariance(self):
        rng = random.Random(1)
        for _ in range(300):
            m, f = random_st_matrix(rng), random_form(rng)
            assert act(m, f).discriminant() == f.discriminant()

    def test_shear_example(self):
        # f(x + y, y) for f = x^2 + xy - y^2
        assert act(S, QForm(1, 1, -1)) == QForm(1, 3, 1)

    def test_matches_pointwise_substitution(self):
        rng = random.Random(2)
        for _ in range(200):
            m, f = random_st_matrix(rng), random_form(rng)
            g = act(m, f)
            for x, y in ((1, 0), (0, 1), (1, 1), (2, -3)):
                assert evaluate(g, x, y) == substitute(f, m, x, y)

    def test_composition_order(self):
        # act(M, act(N, f)) == act(N * M, f): pins the group action order.
        rng = random.Random(3)
        for _ in range(200):
            m, n, f = random_st_matrix(rng), random_st_matrix(rng), random_form(rng)
            assert act(m, act(n, f)) == act(n * m, f)


class TestReduce:
    def test_already_reduced_definite(self):
        key = reduce(QForm(1, 0, 1))
        assert key.rep == (1, 0, 1)
        assert key.disc == -4

    def test_orbit_invariance(self):
        rng = random.Random(4)
        for _ in range(300):
            f = random_form(rng)
            disc = f.discriminant()
            if disc > 0 and int(disc ** 0.5) ** 2 == disc:
                continue
            m = random_st_matrix(rng)
            assert reduce(act(m, f)) == reduce(f)

    def test_every_reduced_definite_form_to_disc_minus_400(self):
        # Each reduced form |b| <= a <= c, b >= 0 if |b| = a or a = c, and
        # its negative, is its own key, and substitutions keep that key.
        rng = random.Random(13)
        pool = [random_st_matrix(rng) for _ in range(100)]
        count = 0
        for disc in [d for d in range(-400, 0) if d % 4 in (0, 1)]:
            for a in range(1, math.isqrt(-disc // 3) + 1):
                for b in range(1 - a, a + 1):
                    c, rem = divmod(b * b - disc, 4 * a)
                    if rem or c < a or (a == c and b < 0):
                        continue
                    for f in (QForm(a, b, c), QForm(-a, -b, -c)):
                        key = reduce(f)
                        assert key.rep == f.triple()
                        for m in rng.sample(pool, 20):
                            assert reduce(act(m, f)) == key, f
                        count += 1
        assert count == 2 * 1320  # the class numbers h(D), -400 <= D < 0, sum to 1320

    def test_disc_five_single_class(self):
        keys = {reduce(f) for f in forms_with_bounded_coeffs(5, 10)}
        assert len(keys) == 1

    def test_definite_signs_distinct(self):
        assert reduce(QForm(1, 0, 1)) != reduce(QForm(-1, 0, -1))
        assert reduce(QForm(-1, 0, -1)).rep == (-1, 0, -1)

    def test_key_of_representative_is_stable(self):
        rng = random.Random(5)
        for _ in range(100):
            f = random_form(rng)
            disc = f.discriminant()
            if disc > 0 and int(disc ** 0.5) ** 2 == disc:
                continue
            key = reduce(f)
            assert reduce(key.rep_form()) == key

    def test_cycle_attached_for_positive_disc(self):
        key = reduce(QForm(1, 1, -1))
        assert key.disc == 5
        assert key.cycle is not None
        assert key.rep == min(key.cycle)
        assert set(key.cycle) == {(1, 1, -1), (-1, 1, 1)}

    def test_rejects_square_and_zero_disc(self):
        with pytest.raises(ValueError, match="^square discriminant 1 is not supported$"):
            reduce(QForm(2, 3, 1))  # disc 1
        with pytest.raises(ValueError, match="^zero discriminant is not supported$"):
            reduce(QForm(1, 2, 1))  # disc 0
        with pytest.raises(ValueError, match="^square discriminant 9 is not supported$"):
            reduce(QForm(0, 3, 0))  # disc 9

    def test_step_guard_names_sizes_not_values(self, monkeypatch):
        # A step that never reaches a reduced form trips the step limit.
        # Its message must not format coefficients: int -> str refuses
        # more than 4,300 digits, which would raise ValueError instead.
        def stuck(f, root):
            while True:
                yield f

        monkeypatch.setattr("braidforms.quadforms._steps", stuck)
        # The limit is the largest coefficient's bit length plus 4.
        for f, limit, bits in ((QForm(10**5000, 1, -1), 16614, "(16610, 1, 1)"),
                               (QForm(1, 0, -3), 6, "(1, 0, 2)")):
            with pytest.raises(RuntimeError) as raised:
                reduce(f)
            assert str(raised.value) == (f"reduction did not terminate in {limit} steps on a form "
                                         f"of coefficient bit lengths {bits}")

    def test_large_form_reduces_to_its_key(self):
        # A step that divides the big coefficients makes this cubic: 5.8 s
        # against about 0.1 s for the translation step, on 2 CPUs.
        f = act(st_product([("S", 1), ("T", -1)] * 8000), QForm(1, 3, -1))
        assert max(map(abs, f.triple())).bit_length() == 22217
        assert reduce(f).rep == (-1, 3, 1)
        assert equivalent(f, QForm(1, 3, -1))

    def test_steps_to_a_reduced_form_fit_the_guard(self):
        # The guard allows the largest coefficient's bit length plus 4
        # steps; reduction must need at most half that bit length plus 2.
        from braidforms.quadforms import _is_reduced_indefinite, _steps

        forms = [act(st_product([("S", 1), ("T", -1)] * k), QForm(1, 3, -1)).triple()
                 for k in (1, 10, 100, 1000, 3000)]
        rng = random.Random(27)
        while len(forms) < 1000:
            size = 10 ** rng.randrange(1, 201)
            f = tuple(rng.randint(-size, size) for _ in range(3))
            disc = f[1] * f[1] - 4 * f[0] * f[2]
            if disc > 0 and math.isqrt(disc) ** 2 != disc:
                forms.append(f)
        for f in forms:
            root = math.isqrt(f[1] * f[1] - 4 * f[0] * f[2])
            walk = itertools.islice(_steps(f, root), max(map(abs, f)).bit_length() // 2 + 2)
            assert any(_is_reduced_indefinite(g, root) for g in itertools.chain([f], walk)), f


class TestEquivalent:
    def test_reflexive(self):
        f = QForm(2, 1, -2)
        assert equivalent(f, f)

    def test_opposite_definite_signs(self):
        assert not equivalent(QForm(1, 0, 1), QForm(-1, 0, -1))
        # bounded conjugator search agrees: no image ever flips the sign
        f = QForm(1, 0, 1)
        assert all(act(m, f) != QForm(-1, 0, -1) for m in sl2_ball(6))

    def test_orbit_members(self):
        rng = random.Random(6)
        for _ in range(200):
            f = random_form(rng)
            disc = f.discriminant()
            if disc > 0 and int(disc ** 0.5) ** 2 == disc:
                continue
            assert equivalent(f, act(random_st_matrix(rng), f))

    def test_different_discriminants(self):
        assert not equivalent(QForm(1, 0, 1), QForm(1, 1, -1))
        assert not equivalent(QForm(1, 3, -1), QForm(1, 1, -1))  # 13 and 5
        # A zero or square discriminant on either side raises reduce's error;
        # with both sides invalid, the first side's message wins.
        zero = (QForm(1, 2, 1), "^zero discriminant is not supported$")
        square = (QForm(0, 3, 0), "^square discriminant 9 is not supported$")
        for (bad, message), other in [(zero, square), (square, zero)]:
            for pair in [(bad, QForm(1, 0, 1)), (QForm(1, 3, -1), bad), (bad, other[0])]:
                with pytest.raises(ValueError, match=message):
                    equivalent(*pair)


class TestEnumerateClasses:
    def test_small_counts(self):
        assert class_number(3) == 1
        assert class_number(0) == 2
        assert class_number(1) == 2
        assert class_number(-3) == class_number(3)

    def test_definite_classes_exactly(self):
        # D = -3 and D = -4 have one positive and one negative class.
        for t, reps in ((-1, ((1, 1, 1), (-1, -1, -1))),
                        (0, ((1, 0, 1), (-1, 0, -1))),
                        (1, ((1, 1, 1), (-1, -1, -1)))):
            assert enumerate_classes(t) == tuple(FormClassKey(t * t - 4, r) for r in reps)

    def test_class_number_counts_the_listed_classes(self):
        # class_number walks the orbits on its own, with no class key and no
        # cache entry; its count is the length of the uncached class list.
        # At the large traces the session's lists serve.
        for t in [*range(-600, -2), -1, 0, 1, *range(3, 601), *CERTIFICATE_TRACES]:
            cached = enumerate_classes.cache_info()
            h = class_number(t)
            assert enumerate_classes.cache_info() == cached, t
            listed = session_classes(t) if t in CERTIFICATE_TRACES else \
                enumerate_classes.__wrapped__(t)
            assert h == len(listed), t

    def test_keys_are_distinct_and_self_consistent(self):
        for t in (0, 1, 3, 5, 12, 30):
            keys = enumerate_classes(t)
            assert len(set(keys)) == len(keys)
            for key in keys:
                assert key.rep_form().discriminant() == t * t - 4
                assert reduce(key.rep_form()) == key

    def test_truncated_oracle_is_a_lower_bound(self):
        # Larger traces may lack representatives with entries <= 12, so
        # the component count can only fall short, never exceed.
        for t in list(range(9, 51)) + list(range(-50, -8)):
            comps = conjugacy_components(trace_t_matrices(t, 12), 50)
            assert len(comps) <= class_number(t)

    def test_exhaustive_forms_land_in_enumerated_classes(self):
        for t in (0, 3, 4, 6):
            keys = set(enumerate_classes(t))
            seen = {reduce(f) for f in forms_with_bounded_coeffs(t * t - 4, 12)}
            assert seen == keys

    def test_sieve_matches_trial_division_oracle(self):
        # Dense small traces, then primes, highly composite values and
        # powers of two +- 1, where the root table's special cases bite.
        for t in [*range(3, 401), 997, 1000, 2310, 4097, 4999]:
            disc = t * t - 4
            expected = trial_division_reduced_forms(disc, t - 1)
            assert expected
            for signed in (t, -t):
                forms = sorted(_reduced_indefinite_forms(signed))
                assert forms == quarter(expected), signed
            # The sigma and rho images of the quarter are every reduced form.
            assert sorted(mirror_closure(forms)) == expected, t
            for a, b, c in forms:
                assert b * b - 4 * a * c == disc
                # 0 < b < sqrt(disc) and sqrt(disc) - b < 2|a| < sqrt(disc) + b,
                # squared out (disc is not a square).
                assert 0 < b and b * b < disc
                assert (2 * abs(a) + b) ** 2 > disc
                assert 2 * abs(a) < b or (2 * abs(a) - b) ** 2 < disc

    def test_root_table_matches_divisor_sieve_oracle(self, dense_quarters, sieve_quarters):
        # The dense range from one pass over progressions, the large
        # traces from the divisor sieve.
        for t in [*range(3, 2001), *sieve_quarters]:
            expected = dense_quarters[t] if t in dense_quarters else sieve_quarters[t]
            assert sorted(_reduced_indefinite_forms(t)) == expected, t

    def test_cycles_hold_every_reduced_form(self, dense_quarters):
        # Between the necklace oracle (|t| <= 180) and the certificate's
        # large traces: a class list that loses a whole mirror orbit
        # holds fewer cycle members than there are reduced forms.
        for t in range(181, 601):
            assert sum(len(key.cycle) for key in enumerate_classes(t)) == \
                len(mirror_closure(dense_quarters[t])), t

    def test_completeness_certificate(self, sieve_quarters):
        # Each class has exactly one reduced cycle.  So the class list is
        # complete and free of duplicates when its cycles are pairwise
        # disjoint, each closes under the oracle's step, and together they
        # hold every reduced form: the sigma and rho images of the quarter.
        for t in CERTIFICATE_TRACES:
            disc = t * t - 4
            members, total = set(), 0
            for key in (cls.key for cls in session_classes(t)):
                cycle = key.cycle
                assert key.rep == cycle[0] == min(cycle), key.rep
                assert [reduced_cycle_step(f, disc) for f in cycle] == [*cycle[1:], cycle[0]], key.rep
                members.update(cycle)
                total += len(cycle)
            assert len(members) == total, t
            assert members == mirror_closure(sieve_quarters[abs(t)]), t

    def test_rho_fixed_classes_match_the_genus_count(self):
        # rho: (a, b, c) -> (c, b, a) is inversion in the class group, so the
        # rho-fixed classes are the ambiguous ones: 2^(mu - 1) per content g,
        # g^2 | D with D/g^2 a discriminant.  A closed form at any t, which a
        # lost orbit or a lost ambiguous class breaks.
        for t in [10**5, 30030, 4999, *range(3, 601)]:
            disc = t * t - 4
            fixed = 0
            keys = [cls.key for cls in session_classes(t)] if t in CERTIFICATE_TRACES else \
                enumerate_classes(t)
            for key in keys:
                flipped = [(c, b, a) for a, b, c in reversed(key.cycle)]
                start = flipped.index(min(flipped))
                fixed += tuple(flipped[start:] + flipped[:start]) == key.cycle
            assert fixed == sum(2 ** (genus_mu(disc // (g * g)) - 1)
                                for g in range(1, math.isqrt(disc) + 1)
                                if disc % (g * g) == 0 and disc // (g * g) % 4 < 2), t

    @pytest.mark.parametrize("mutant, expected", [
        ("_cycle", {20: "the class cycles hold 36 of 28 reduced forms",
                    -30: "the class cycles hold 48 of 44 reduced forms",
                    101: "the class cycles hold 36 of 28 reduced forms"}),
        ("_mirrors", {20: "the class cycles hold 24 of 28 reduced forms",
                      -30: "the class cycles hold 40 of 44 reduced forms",
                      101: "the class cycles hold 24 of 28 reduced forms"}),
        ("_steps", {5: "the class cycle of (1, 3, -3) has odd length",
                    -30: "the class cycle of (1, 28, -28) has odd length",
                    101: "the class cycle of (1, 99, -99) has odd length"}),
    ])
    def test_run_time_certificate_catches_a_broken_walk(self, monkeypatch, mutant, expected):
        # The orbit walker counts the reduced forms as it reads the root
        # table and requires its cycles to hold them all, each with even
        # length, on both of its paths.  Mutants: _cycle drops its last
        # member, so some root-table forms stay unseen and their orbits are
        # walked again; _mirrors returns sigma's image for sigma-rho's;
        # _steps repeats its form, so that every cycle holds one form and the
        # count still matches.
        from braidforms import quadforms

        cycle, mirrors = quadforms._cycle, quadforms._mirrors
        monkeypatch.setattr(quadforms, mutant, {
            "_cycle": lambda g, root: cycle(g, root)[:-1],
            "_mirrors": lambda walked: (lambda s, r, _: (s, r, s))(*mirrors(walked)),
            "_steps": lambda f, root: itertools.repeat(f)}[mutant])
        for t, message in expected.items():
            for count in (enumerate_classes.__wrapped__, class_number):  # past the cache
                with pytest.raises(AssertionError) as raised:
                    count(t)
                assert str(raised.value) == f"t={t}: {message}"

    def test_sqrt_mod(self):
        # The library's root and the divisor-sieve oracle's own: every n
        # below 400 mod each odd prime, 65537 = 1 mod 4 (the Tonelli-Shanks
        # or Cipolla loop) and 99991 = 3 mod 4; None only on Euler's
        # criterion for a non-residue.
        for sqrt_mod in (_sqrt_mod, sqrt_mod_prime):
            for p in primes_upto(400)[1:] + [65537, 99991]:
                for n in range(min(p, 400)):
                    r = sqrt_mod(n, p)
                    if r is None:
                        assert pow(n, (p - 1) // 2, p) == p - 1, (n, p)
                    else:
                        assert r * r % p == n, (n, p)

    def test_oracles_use_no_private_library_names(self):
        # An oracle that calls the library's private helpers shares their
        # faults, so tests/oracles.py may reach braidforms only through
        # public names.
        tree = ast.parse(Path(oracles.__file__).read_text())
        modules, private = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((a.asname or a.name).split(".")[0]
                               for a in node.names if a.name.startswith("braidforms"))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("braidforms"):
                private += [a.name for a in node.names if a.name.startswith("_")]
                modules.update(a.asname or a.name for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                base = node.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in modules:
                    private.append(f"{ast.unparse(node)} (line {node.lineno})")
        assert not private

    def test_cycles_close_under_steps(self):
        import math

        from braidforms.quadforms import _is_reduced_indefinite, _steps

        for t in (6, 10, 23, -17):
            root = math.isqrt(t * t - 4)
            for key in enumerate_classes(t):
                cycle = key.cycle
                assert cycle is not None and len(cycle) % 2 == 0
                for i, member in enumerate(cycle):
                    assert _is_reduced_indefinite(member, root)
                    assert next(_steps(member, root)) == cycle[(i + 1) % len(cycle)]

    def test_residues_read_each_mirror_rep_from_one_parity_of_the_cycle(self):
        # a alternates in sign along a reduced cycle, from its least member,
        # of a < 0, so each mirror image's least member has one parity.  An
        # orbit's head, its first listed class, gives its sigma, rho and
        # sigma-rho images -r, r and -r.  The enumeration reads t only as
        # |t|: the classes of -t are those of t.
        from braidforms.quadforms import _mirrors, _residues

        for t in [*range(3, 301), 4999, -10**4, 30030]:
            keys, residues = _residues(t)
            reps, done = set(), set()
            for key in keys:
                cycle = key.cycle
                assert len(cycle) % 2 == 0, (t, key.rep)
                assert all(a < 0 < c for a, _, c in cycle[::2]), (t, key.rep)
                assert all(c < 0 < a for a, _, c in cycle[1::2]), (t, key.rep)
                images = [min(image) for image in _mirrors(cycle)]
                reps.update([min(cycle), *images])
                if key.rep not in done:
                    r = residues[key.rep]
                    signed = [residues[rep] for rep in images]
                    assert signed == [-r % 12, r, -r % 12], (t, key.rep)
                    done.update([key.rep, *images])
            assert residues.keys() == reps, t


class TestCorrespondence:
    def test_form_of_matrix_examples(self):
        assert form_of_matrix(Mat2Z(0, 1, -1, 0)) == QForm(1, 0, 1)
        assert form_of_matrix(S * T) == QForm(1, 1, 1)

    def test_form_of_matrix_rejects_parabolic(self):
        with pytest.raises(ValueError):
            form_of_matrix(S)

    def test_matrix_of_form_examples(self):
        assert matrix_of_form(QForm(1, 0, 1), 0) == Mat2Z(0, 1, -1, 0)
        assert matrix_of_form(QForm(1, 1, 1), 1) == Mat2Z(0, 1, -1, 1)

    def test_matrix_of_form_validation(self):
        with pytest.raises(ValueError):
            matrix_of_form(QForm(1, 0, 1), 4)  # wrong discriminant
        with pytest.raises(ValueError):
            matrix_of_form(QForm(1, 2, 1), 2)

    def test_conjugate_matrices_give_equivalent_forms(self):
        rng = random.Random(7)
        done = 0
        while done < 200:
            m = random_st_matrix(rng)
            if m.trace() in (2, -2):
                continue
            p = random_st_matrix(rng)
            f = form_of_matrix(m)
            g = form_of_matrix(p * m * p.inverse())
            assert equivalent(f, g)
            done += 1


def test_class_key_json():
    key = reduce(QForm(1, 1, -1))
    assert key.to_json() == {"repr": [-1, 1, 1], "discriminant": 5,
                             "cycle": [[-1, 1, 1], [1, 1, -1]]}
    neg = reduce(QForm(-1, 0, -1))
    assert neg.to_json() == {"repr": [-1, 0, -1], "discriminant": -4}


def test_class_key_equality_ignores_cycle_field():
    a = FormClassKey(5, (-1, 1, 1), ((-1, 1, 1), (1, 1, -1)))
    b = FormClassKey(5, (-1, 1, 1), None)
    assert a == b and hash(a) == hash(b)
