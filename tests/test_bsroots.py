"""Root-set formulas, symmetry checks, and the homogeneous taxonomy."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import corpus
import oracles
from oracles import poly_mul
from bs3 import arrangement, cli
from bs3.arrangement import validate
from bs3.bsroots import (RootSet, blf_roots, check_partial_symmetry,
                         homogeneous_taxonomy, new_roots,
                         reconstruct_zero_set, roots_isolated, sigma,
                         small_roots, tlct_holds, xi_set)
from bs3.graded import DegreeData, check_h0_symmetry, h0_degree_data
from bs3.milnor import MilnorProfile, milnor_profile
from bs3.polyring import (Bs3Error, PreconditionError, WeightSystem,
                          format_rational, parse_polynomial, wdeg)
from test_arrangement import SWEEP20, moment_draw
from test_graded import H0_CASES

W1 = WeightSystem((1, 1, 1))


def profile(text, weights=(1, 1, 1)):
    return milnor_profile(parse_polynomial(text), WeightSystem(weights))


def Q(*pairs):
    return [Fraction(p, q) for p, q in pairs]


def test_rootset_is_sorted_and_deduplicated():
    s = RootSet([Fraction(-1), Fraction(-2), Fraction(-1), Fraction(-1, 2)])
    assert list(s) == Q((-2, 1), (-1, 1), (-1, 2))
    assert Fraction(-2) in s
    assert repr(s) == "{-2, -1, -1/2}"
    # an int and an equal Fraction are one root, printed the same
    mixed = RootSet([-1, Fraction(-1, 2), Fraction(-1), -2])
    assert list(mixed) == Q((-2, 1), (-1, 1), (-1, 2))
    assert repr(mixed) == "{-2, -1, -1/2}"


def test_rootset_orders_any_input_and_finds_members():
    rng = random.Random(4)
    for _ in range(50):
        values = [Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                  for _ in range(rng.randint(0, 30))]
        want = sorted(set(values))
        descending = sorted(values, reverse=True)
        for given in (values, descending, want[::-1] + want):
            s = RootSet(given)
            assert list(s) == want and s == given
        left = RootSet(values[::2])
        merged = left.union(RootSet(values[1::2]))
        assert list(merged) == want
        assert list(left.union(descending)) == want
        for k in range(-41, 42):
            for q in (k, Fraction(k, 2), Fraction(k, 7)):
                assert (q in merged) == (q in want)
    assert Fraction(0) not in RootSet()


def test_rootset_window_half_open_at_the_left():
    s = RootSet(Q((-3, 1), (-5, 2), (-2, 1), (-3, 2)))
    assert list(s.window(-3, -2)) == Q((-5, 2), (-2, 1))


def test_rootset_window_on_and_off_the_grid():
    # bounds on the grid 1/D of the set and between two of its points
    rng = random.Random(5)
    for _ in range(50):
        values = sorted({Fraction(rng.randint(-30, 30), rng.choice((1, 2, 6)))
                         for _ in range(rng.randint(0, 12))})
        s = RootSet(values)
        for lo, hi in ((-3, -2), (Fraction(-5, 2), Fraction(1, 3)),
                       (Fraction(-7, 5), Fraction(9, 4)), (-1, 0)):
            for inc_lo in (False, True):
                for inc_hi in (False, True):
                    want = [r for r in values
                            if (lo < r or inc_lo and r == lo)
                            and (r < hi or inc_hi and r == hi)]
                    assert list(s.window(lo, hi, inc_lo, inc_hi)) == want


def test_sigma_is_an_involution():
    for r in Q((-16, 9), (-1, 1), (0, 1), (-5, 3)):
        assert sigma(sigma(r)) == r
    assert sigma(Fraction(-1)) == -1


def test_roots_isolated_quadric_and_cubic():
    assert roots_isolated(profile("x^2+y^2+z^2")) == Q((-3, 2), (-1, 1))
    assert roots_isolated(profile("x^3+y^3+z^3")) == \
        Q((-2, 1), (-5, 3), (-4, 3), (-1, 1))


def test_roots_isolated_rejects_nonisolated():
    with pytest.raises(PreconditionError):
        roots_isolated(profile("x^2+y^3", (3, 2, 1)))


def test_new_roots_fermat_cubic():
    assert new_roots(profile("x^3+y^3+z^3")) == \
        Q((-2, 1), (-5, 3), (-4, 3), (-1, 1))


def test_new_roots_empty_for_saturated_jacobian():
    assert len(new_roots(profile("x*y*z"))) == 0


def test_blf_roots_fermat_cubic():
    assert blf_roots(profile("x^3+y^3+z^3")) == \
        Q((0, 1), (1, 3), (2, 3), (1, 1))


def test_new_roots_are_blf_roots_shifted_by_two():
    for text, w in [("x^3+y^3+z^3", (1, 1, 1)),
                    ("x^2*y*z + x*y^2*z + x*y*z^2", (1, 1, 1)),
                    ("x^2+y^3+z^5", (15, 10, 6))]:
        prof = profile(text, w)
        assert new_roots(prof) == RootSet(r - 2 for r in blf_roots(prof))


def test_xi_set_fermat_cubic():
    xi = xi_set(profile("x^3+y^3+z^3"))
    assert isinstance(xi, RootSet)
    assert xi == Q((-2, 1), (-5, 3), (-4, 3), (-1, 1), (-2, 3), (-1, 3),
                   (0, 1))


def test_partial_symmetry_examples():
    empty = RootSet()
    assert len(check_partial_symmetry(RootSet(Q((-1, 1))),
                                      empty).asymmetric_outside_xi) == 0
    ok = check_partial_symmetry(RootSet(Q((-3, 4), (-1, 1), (-5, 4))), empty)
    assert len(ok.asymmetric_outside_xi) == 0
    assert (Fraction(-5, 4), Fraction(-3, 4)) in ok.sigma_pairs
    bad = check_partial_symmetry(RootSet(Q((-1, 2))), empty)
    assert bad.asymmetric_outside_xi == Q((-1, 2))


def test_small_roots():
    assert small_roots(profile("x^3+y^3+z^3")) == Q((-2, 1))
    assert len(small_roots(profile("x^2+y^2+z^2"))) == 0


def test_small_roots_equal_new_roots_in_window():
    prof = profile("x^4+y^4+z^4")
    assert small_roots(prof) == new_roots(prof).window(-3, -2)


def test_tlct():
    prof = profile("x^3+y^3+z^3")
    assert tlct_holds(prof, Fraction(0)) is False
    assert tlct_holds(prof, Fraction(-1, 3)) is True
    with pytest.raises(PreconditionError):
        tlct_holds(prof, Fraction(1))


def test_tlct_matches_small_roots_on_unit_window():
    prof = profile("x^4+y^4+z^4")
    small = small_roots(prof)
    for num in range(-9, 1):
        lam = Fraction(num, 10)
        assert tlct_holds(prof, lam) == (lam - 2 not in small)


def test_taxonomy_fermat_cubic():
    tax = homogeneous_taxonomy(profile("x^3+y^3+z^3"),
                               RootSet([Fraction(-1)]))
    assert tax.tau == 0
    assert tax.upsilon == Q((-2, 1), (-5, 3), (-4, 3), (-1, 1))
    assert tax.reconstruction == Q((-2, 1), (-5, 3), (-4, 3), (-1, 1))
    assert tax.determined_by["degree"] == 3


def test_taxonomy_requires_sections():
    with pytest.raises(PreconditionError):
        homogeneous_taxonomy(profile("x*y*z"), RootSet())


def test_taxonomy_requires_standard_weights():
    with pytest.raises(PreconditionError):
        homogeneous_taxonomy(profile("x^2+y^3+z^5", (15, 10, 6)), RootSet())


def test_reconstruction_without_sections_uses_interval_only():
    interval = RootSet(Q((-1, 1), (-5, 6), (-2, 3), (-1, 2)))
    upsilon, small, full = reconstruct_zero_set(None, 6, interval)
    assert len(upsilon) == 0
    assert len(small) == 0
    assert full == Q((-3, 2), (-4, 3), (-7, 6), (-1, 1),
                     (-5, 6), (-2, 3), (-1, 2))


def test_reconstruction_rejects_roots_outside_interval():
    with pytest.raises(PreconditionError):
        reconstruct_zero_set(0, 3, RootSet([Fraction(-3, 2)]))


def lqh_profiles(seed, draws):
    """Seeded profiles of the non-isolated families xyz(x^a + j y^b + k z^c)
    and z(x^a + j y^b)(x^a + k y^b), weights (1/a, 1/b, 1/c), a != b."""
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        a, b = rng.sample(range(2, 6), 2)
        c = rng.randint(2, 5)
        j, k = rng.sample(range(1, 10), 2)
        w = WeightSystem((Fraction(1, a), Fraction(1, b), Fraction(1, c)))
        P = parse_polynomial
        for f in (poly_mul(P("x*y*z"), P("x^%d + %d*y^%d + %d*z^%d"
                                         % (a, j, b, k, c))),
                  poly_mul(P("z"), P("x^%d + %d*y^%d" % (a, j, b)),
                           P("x^%d + %d*y^%d" % (a, k, b)))):
            out.append(milnor_profile(f, w))
    return out


def test_weighted_h0_root_sets_follow_the_formulas():
    fractional = windowed = 0
    for prof in lqh_profiles(6, 5):
        assert not prof.is_isolated
        degrees = prof.h0.entries
        fractional += any(t.denominator > 1 for t in degrees)
        windowed += len(small_roots(prof)) > 0
        sw = sum(prof.weights.weights)
        d = prof.wdeg_f
        new = [-(t + sw) / d for t in degrees]
        assert list(new_roots(prof)) == sorted(set(new))
        assert list(blf_roots(prof)) == sorted(
            {(-t + 2 * d - sw) / d for t in degrees})
        assert list(xi_set(prof)) == sorted(set(new) | {r + 1 for r in new})
        assert list(small_roots(prof)) == sorted(
            {r for r in new if -3 < r <= -2})
        with pytest.raises(PreconditionError):
            roots_isolated(prof)
    assert fractional >= 4 and windowed >= 2


def synthetic_profile(I, w):
    """A profile carrying the H0 of I under w, for an f of weighted degree
    wdeg(first generator) + w_x, as if I were its Jacobian ideal; the
    isolated flag only lets roots_isolated read the table."""
    h0 = h0_degree_data(I, w)
    d = wdeg(I.generators[0], w) + w.weights[0]
    return MilnorProfile(None, w, d, I, h0, True, h0)


def brieskorn_pham_profiles(top):
    """x^a + y^b + z^c under (1/a, 1/b, 1/c), 2 <= a <= b <= c <= top."""
    for a, b, c in combinations_with_replacement(range(2, top + 1), 3):
        w = WeightSystem((Fraction(1, a), Fraction(1, b), Fraction(1, c)))
        yield milnor_profile(parse_polynomial("x^%d+y^%d+z^%d" % (a, b, c)),
                             w)


def perturbed_brieskorn_pham_profiles(top):
    """x^a + y^b + z^c + 3 y^p z^q under (1/a, 1/b, 1/c), for each p, q >= 1
    with p/b + q/c = 1, 2 <= a <= b <= c <= top."""
    for a, b, c in combinations_with_replacement(range(2, top + 1), 3):
        w = WeightSystem((Fraction(1, a), Fraction(1, b), Fraction(1, c)))
        for p in range(1, b):
            if (b - p) * c % b == 0:
                yield milnor_profile(parse_polynomial(
                    "x^%d+y^%d+z^%d+3*y^%d*z^%d" % (a, b, c, p,
                                                    (b - p) * c // b)), w)


def test_h0_count_matches_the_two_window_reference():
    # H0 counted as the monomials of in(I^sat) outside in(I) is the
    # difference of the two Hilbert functions up to the Taylor bound, on
    # both lqh shapes, the colon request under (1, 2, 2), Brieskorn-Pham
    # sums plain and perturbed, and the arrangement Jacobians of the corpus
    # (with the Ziegler pair) and of the sweep and moment draws for d <= 10
    cases = [(prof.jacobian, prof.weights, prof.h0)
             for prof in lqh_profiles(7, 6)]
    cases += [(prof.jacobian, prof.weights, prof.h0)
              for top, family in ((8, brieskorn_pham_profiles),
                                  (7, perturbed_brieskorn_pham_profiles))
              for prof in family(top)]
    colon = profile("2*x^5+2*x^3*y+3*x^3*z+2*x*y*z", (1, 2, 2))
    cases.append((colon.jacobian, colon.weights, colon.h0))
    arrs = [arr for _, arr in corpus.build_corpus()]
    for d in range(4, 11):
        arrs += [validate(SWEEP20.split(",")[:d]), validate(moment_draw(d))]
    for arr in arrs:
        jac = arrangement._jacobian(arr)
        cases.append((jac, W1, h0_degree_data(jac, W1)))
    kinds = set()
    for I, w, h0 in cases:
        assert h0.entries == oracles.h0_entries_by_fractions(I, w), (I, w)
        kinds.add((h0.is_empty(), w == W1))
    assert kinds == {(False, False), (True, False), (False, True),
                     (True, True)}


def symmetric(h0, center):
    try:
        check_h0_symmetry(h0, center)
    except Bs3Error:
        return False
    return True


def test_integer_route_matches_the_fraction_route():
    profiles = [synthetic_profile(I, w) for I, w in H0_CASES]
    profiles += lqh_profiles(6, 5)
    profiles += brieskorn_pham_profiles(12)
    verdicts = set()
    for prof in profiles:
        w, d = prof.weights, prof.wdeg_f
        sw, L = sum(w.weights), w.denominator
        entries = oracles.h0_entries_by_fractions(prof.jacobian, w)
        ordered = sorted(entries)
        assert prof.h0.entries == entries
        assert list(prof.h0.entries) == ordered
        assert list(cli._degree_table(prof.h0).items()) == [
            (format_rational(t), entries[t]) for t in ordered]
        want = oracles.h0_root_sets_by_fractions(entries, w, d)
        got = {"new": new_roots(prof), "blf": blf_roots(prof),
               "xi": xi_set(prof)}
        if prof.is_isolated:
            got["isolated"] = roots_isolated(prof)
        for name, roots in got.items():
            assert tuple(roots) == want[name], (prof, name)
            assert cli._roots(roots) == [format_rational(r)
                                         for r in want[name]]
        centers = {3 * d - 2 * sw, 3 * d - 2 * sw + Fraction(1, L),
                   Fraction(1, 2 * L), 0}
        if ordered:
            centers.add(ordered[0] + ordered[-1])
        # the table, and the table with its lowest dimension raised
        tables = [(prof.h0, entries)]
        if ordered:
            skewed = dict(entries)
            skewed[ordered[0]] += 1
            tables.append((DegreeData(skewed), skewed))
        for data, table in tables:
            for center in centers:
                verdict = oracles.h0_symmetric_by_fractions(table, center)
                assert symmetric(data, center) == verdict, (prof, center)
                verdicts.add(("symmetric", verdict))
        lams = {Fraction(0), Fraction(-1), Fraction(-1, 7),
                Fraction(-13, 107), Fraction(-1, 107)}
        # the largest degrees give the lambdas <= 0 that hit H0
        lams.update(lam for lam in (2 - (t + sw) / d for t in ordered[-3:])
                    if lam <= 0)
        for lam in lams:
            verdict = oracles.tlct_by_fractions(entries, w, d, lam)
            assert tlct_holds(prof, lam) == verdict, (prof, lam)
            verdicts.add(("tlct", verdict))
    assert verdicts == {("symmetric", True), ("symmetric", False),
                        ("tlct", True), ("tlct", False)}
