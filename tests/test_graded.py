"""Graded dimension bookkeeping, local cohomology data, regularity."""

import random
from fractions import Fraction

import pytest

from bs3 import arrangement, groebner
from bs3.graded import (DegreeData, _saturation_hilbert, h0_degree_data,
                        regularity_report)
from bs3.groebner import (Ideal, _hilbert_function, _lcm_degree, buchberger,
                          saturated_leading_monomials)
from bs3.milnor import jacobian_ideal
from bs3.polyring import (Polynomial, PreconditionError, WeightSystem,
                          parse_polynomial)

import corpus
import oracles
from oracles import graded_dimension, rank_route_dimension, weighted_monomials

W1 = WeightSystem((1, 1, 1))


def P(text):
    return parse_polynomial(text)


def ideal(*texts):
    return Ideal(tuple(P(t) for t in texts))


QUARTIC_CONE = jacobian_ideal(P("x^2*y*z + x*y^2*z + x*y*z^2"))
# z (x^2 + 2 y^2)(x^2 + 3 y^2): four lines through (0:0:1) and one more, a
# free near-pencil, so its H0 is empty
NEAR_PENCIL = jacobian_ideal(P("x^4*z+5*x^2*y^2*z+6*y^4*z"))


def test_weighted_monomials_standard():
    assert len(weighted_monomials(W1, 3)) == 10
    assert len(weighted_monomials(W1, 0)) == 1
    assert weighted_monomials(W1, Fraction(1, 2)) == []


def test_weighted_monomials_with_weights():
    w = WeightSystem((3, 2, 1))
    monos = weighted_monomials(w, 6)
    assert len(monos) == 7
    assert (1, 1, 1) in monos and (2, 0, 0) in monos


def test_graded_dimension_examples():
    assert rank_route_dimension(ideal("x^2", "y^2", "z^2"), W1, 2) == 3
    assert rank_route_dimension(ideal("x"), W1, 5) == 6
    assert rank_route_dimension(Ideal((), 3), W1, 3) == 10


def test_graded_dimension_accepts_groebner_basis():
    I = ideal("x^2", "y^2", "z^2")
    gb = buchberger(I)
    for q in range(6):
        assert graded_dimension(gb, W1, q) == rank_route_dimension(I, W1, q)


def test_rank_and_standard_monomial_routes_agree_on_random_ideals():
    rng = random.Random(5)
    for _ in range(20):
        gens = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 4)
            monos = oracles.monomials_of_degree(deg)
            p = Polynomial({m: rng.randint(-2, 2) for m in monos}, 3)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        I = Ideal(tuple(gens))
        gb = buchberger(I)
        for q in range(5):
            assert rank_route_dimension(I, W1, q) == \
                graded_dimension(gb, W1, q)


def standard_monomial_count(lead_monomials, w, q):
    """dim (R/M)_q by listing every monomial of weighted degree q."""
    return sum(1 for m in weighted_monomials(w, q)
               if not any(oracles.mono_divides(lm, m)
                          for lm in lead_monomials))


def random_monomial_ideal(rng, dimension):
    """Monomial generators with dim R/M = dimension: pure powers of all
    three variables (0), of x and y with every generator in (x, y) (1), or
    every generator a multiple of x (2)."""
    gens = [tuple(rng.randint(0, 4) for _ in range(3))
            for _ in range(rng.randint(1, 5))]
    gens = [m for m in gens if any(m)]
    if dimension == 0:
        gens += [(rng.randint(1, 6), 0, 0), (0, rng.randint(1, 6), 0),
                 (0, 0, rng.randint(1, 6))]
    elif dimension == 1:
        gens = [m for m in gens if m[0] or m[1]]
        gens += [(rng.randint(1, 6), 0, 0), (0, rng.randint(1, 6), 0)]
    else:
        gens = [(m[0] + 1, m[1], m[2]) for m in gens] or [(1, 0, 0)]
    return gens


@pytest.mark.parametrize("weights", [(1, 1, 1), (2, 3, 5), (3, 2, 1),
                                     (1, 4, 2)])
def test_hilbert_engine_matches_monomial_count(weights):
    rng = random.Random(sum(weights))
    w = WeightSystem(weights)
    for dimension in (0, 1, 2):
        for _ in range(5):
            lms = random_monomial_ideal(rng, dimension)
            top = _lcm_degree(lms, weights) - sum(weights)
            assert _hilbert_function(lms, top + 10, weights) == [
                standard_monomial_count(lms, w, t)
                for t in range(top + 11)], (lms, dimension)


def test_hilbert_values_extend_the_tail_by_the_hilbert_polynomial():
    # the memoized tail runs to deg lcm; past it the values come from the
    # Hilbert polynomial, and a negative top gives no degree at all; under
    # other weights the reader is the engine
    rng = random.Random(22)
    for dimension in (0, 1, 2):
        for _ in range(20):
            lms = tuple(sorted(random_monomial_ideal(rng, dimension)))
            for top in range(-3, _lcm_degree(lms) + 12):
                assert groebner._hilbert_values(lms, top) == \
                    _hilbert_function(lms, top), (lms, top)
            for weights in ((2, 3, 5), (3, 2, 1), (1, 4, 2)):
                for top in range(-3, _lcm_degree(lms, weights) + 12):
                    assert groebner._hilbert_values(lms, top, weights) == \
                        _hilbert_function(lms, top, weights), (lms, weights)


# (ideal, weights): Artinian, an embedded point, the Jacobians of four
# lines, of a weighted isolated singularity, of two non-isolated surfaces
# under fractional weights, and of two surfaces whose Jacobians are
# homogeneous under (1, 1, 1) and under the other weights given, so that H0
# under those weights is read from in(I^sat) in the input's coordinates
H0_CASES = [
    (ideal("x^2", "y^2", "z^2"), W1),
    (ideal("x^2", "x*y", "x*z"), W1),
    (QUARTIC_CONE, W1),
    (ideal("x^2", "y^3", "z^6"), WeightSystem((3, 2, 1))),
    (jacobian_ideal(P("x^2+y^3+z^5")), WeightSystem((15, 10, 6))),
    (jacobian_ideal(P("x^6*y*z + 2*x*y^3*z + 3*x*y*z^3")),
     WeightSystem((Fraction(1, 5), Fraction(1, 2), Fraction(1, 2)))),
    (jacobian_ideal(P("x^3*y*z + 2*x*y^6*z + 3*x*y*z^4")),
     WeightSystem((Fraction(1, 2), Fraction(1, 5), Fraction(1, 3)))),
    (jacobian_ideal(P("x*y*z+y^3")), WeightSystem((1, 2, 3))),
    (jacobian_ideal(P("x*y*z+y^3")), WeightSystem((3, 2, 1))),
    (NEAR_PENCIL, WeightSystem((2, 2, 3))),
]


def test_h0_vanishes_above_the_proven_window():
    for I, w in H0_CASES:
        lms_i = buchberger(I).leading_monomials
        lms_s = buchberger(oracles.saturation_by_columns(I)).leading_monomials
        W, L = w.scaled, w.denominator
        top = max(_lcm_degree(lms_i, W),
                  _lcm_degree(lms_s, W)) - sum(W)
        data = h0_degree_data(I, w)
        assert data.is_empty() == (I is NEAR_PENCIL)
        assert data.is_empty() or max(data.entries) * L <= top
        for k in range(2 * top + 1):
            q = Fraction(k, L)
            dim = (standard_monomial_count(lms_i, w, q)
                   - standard_monomial_count(lms_s, w, q))
            assert dim == data.dimension(q), (I, q)


def test_standard_h0_reads_the_memoized_tails(monkeypatch):
    # under (1, 1, 1) h0_degree_data reads both Hilbert functions from the
    # tails, and past a tail from its Hilbert polynomial, with the engine's
    # values.  Each ideal is saturated with cold caches, as by a request;
    # the engine calls of h0_degree_data are then exactly the tail fills
    # the saturation left undone: none after a colon, whose loop reads both
    # tails; without one, in(I)'s, unless the ideal's Hilbert tail made its
    # Buchberger run read it, and for an Artinian ideal that of (1)
    cases = [I for I, w in H0_CASES if w.weights == (1, 1, 1)]
    cases += [jacobian_ideal(P("x^2*y*z")), jacobian_ideal(P("x^2*y + y^3")),
              NEAR_PENCIL]
    cases += [arrangement._jacobian(arr) for _, arr in corpus.build_corpus()]
    calls = []
    engine = groebner._hilbert_function

    def spy(*args):
        calls.append(args)
        return engine(*args)

    def tail_fill(lms):
        return (lms, max(_lcm_degree(lms) - 2, 0) + 2)

    past_a_tail = 0
    kinds = set()
    for I in cases:
        groebner._buchberger_cached.cache_clear()
        groebner._hilbert_tail.cache_clear()
        groebner._saturated_cached.cache_clear()
        c, lms_s = saturated_leading_monomials(I, (1, 1, 1))
        lms_i = buchberger(I).leading_monomials
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(groebner, "_hilbert_function", spy)
            data = h0_degree_data(I, W1)
        expect = []
        if c is None:
            if I.hilbert_tail is None:
                expect.append(tail_fill(lms_i))
            if lms_s != lms_i:
                assert lms_s == ((0, 0, 0),), I
                expect.append(tail_fill(lms_s))
        assert calls == expect, I
        kinds.add((c is None, len(expect)))
        top = max(_lcm_degree(lms_i), _lcm_degree(lms_s)) - 3
        want = {k: a - b for k, (a, b) in enumerate(zip(
            engine(lms_i, top), engine(lms_s, top))) if a != b}
        assert data.scaled == want, I
        past_a_tail += any(top >= len(groebner._hilbert_tail(lms)[0])
                           for lms in (lms_i, lms_s))
    assert kinds == {(False, 0), (True, 0), (True, 1), (True, 2)}
    assert past_a_tail > 10


def test_graded_dimension_rejects_inhomogeneous():
    I = ideal("x^2 + y")
    with pytest.raises(PreconditionError):
        graded_dimension(buchberger(I), W1, 2)
    with pytest.raises(PreconditionError):
        rank_route_dimension(I, W1, 2)


def test_graded_dimension_refuses_a_basis_not_in_three_variables():
    for n in (2, 4):
        I = Ideal((Polynomial({(2,) + (0,) * (n - 1): 1}, n),))
        with pytest.raises(PreconditionError, match="needs 3 variables"):
            graded_dimension(buchberger(I), WeightSystem((1,) * n), 2)
    with pytest.raises(PreconditionError, match="needs 3 variables"):
        graded_dimension(buchberger(ideal("x^2")), WeightSystem((1, 1)), 2)


def test_h0_degree_data_refuses_two_weights():
    with pytest.raises(PreconditionError, match="needs 3 weights"):
        h0_degree_data(jacobian_ideal(P("x*y*z")), WeightSystem((1, 1)))


def test_graded_dimension_accepts_inhomogeneous_generators_of_a_graded_ideal():
    # (x^2 + y, y) is (x^2, y): its minimal basis keeps x^2 + y as given,
    # its reduced basis is homogeneous
    gb = buchberger(ideal("x^2 + y", "y"))
    assert [graded_dimension(gb, W1, q) for q in range(4)] == [1, 2, 2, 2]


def test_graded_dimension_checks_a_basis_against_the_weights():
    I = ideal("x^2 - y", "z^3 - y*z")
    gb = buchberger(I)
    with pytest.raises(PreconditionError):
        graded_dimension(gb, W1, 2)
    half = WeightSystem((Fraction(1, 2), 1, Fraction(1, 2)))
    for k in range(10):
        q = Fraction(k, 2)
        assert graded_dimension(gb, half, q) == \
            rank_route_dimension(I, half, q)


def test_h0_artinian_quotient_is_its_own_section_module():
    data = h0_degree_data(ideal("x^2", "y^2", "z^2"), W1)
    assert data.entries == {0: 1, 1: 3, 2: 3, 3: 1}
    assert data.total_dimension() == 8


def test_h0_of_embedded_point():
    data = h0_degree_data(ideal("x^2", "x*y", "x*z"), W1)
    assert data.entries == {1: 1}


def test_h0_of_saturated_ideal_is_empty():
    data = h0_degree_data(ideal("x"), W1)
    assert data.is_empty()
    assert data.entries == {}


def test_h0_weighted_grading():
    w = WeightSystem((3, 2, 1))
    data = h0_degree_data(ideal("x^2", "y^3", "z^6"), w)
    # Artinian monomial quotient: 2*3*6 standard monomials, top one x*y^2*z^5
    assert data.total_dimension() == 36
    assert min(data.entries) == 0
    assert max(data.entries) == 12
    assert data.dimension(3) == len(weighted_monomials(w, 3)) == 3


def test_sheaf_dimension_examples():
    # e, the constant Hilbert polynomial of R/I^sat
    assert _saturation_hilbert(QUARTIC_CONE)[1] == 6
    assert _saturation_hilbert(ideal("x", "y"))[1] == 1
    assert _saturation_hilbert(ideal("x^2", "y"))[1] == 2
    assert _saturation_hilbert(ideal("x^2", "y^2", "z^2"))[1] == 0


def test_sheaf_dimension_rejects_positive_dimensional_scheme():
    # a line: the Hilbert polynomial of R/I^sat is not a constant e, and
    # the regularity, which needs one, refuses two lines
    assert _saturation_hilbert(ideal("x"))[1] is None
    with pytest.raises(PreconditionError, match="not constant"):
        regularity_report(ideal("x*y"))


def test_standard_graded_readings_refuse_a_weighted_only_ideal():
    # graded by (3, 2, 6) but not by (1, 1, 1): e, H1 and the regularity
    # are read under the standard grading, so each of them refuses it
    # z (x^2 + 2*y^3) (x^2 + 5*y^3)
    jac = jacobian_ideal(P("x^4*z + 7*x^2*y^3*z + 10*y^6*z"))
    for read in (_saturation_hilbert, regularity_report):
        with pytest.raises(PreconditionError):
            read(jac)


def test_h1_dimension_examples():
    # dim H1_q = e - HF(R/I^sat)_q: 0 from the Hilbert start on, e in every
    # negative degree
    hf, e = _saturation_hilbert(QUARTIC_CONE)
    assert (e - hf[0], e - hf[-1]) == (5, 0)
    hf, e = _saturation_hilbert(ideal("x", "y"))
    assert e - hf[0] == 0
    assert _saturation_hilbert(ideal("x*y", "z"))[1] == 2


def test_regularity_of_quartic_cone_jacobian():
    report = regularity_report(QUARTIC_CONE)
    assert report.regularity == 3
    assert report.h0_max == 3
    assert report.sheaf_dim_e == 6


def test_regularity_artinian():
    report = regularity_report(ideal("x^2", "y^2", "z^2"))
    assert report.regularity == 3
    assert report.h0_max == 3
    assert report.h1_max is None
    assert report.sheaf_dim_e == 0


def test_regularity_of_single_line():
    report = regularity_report(ideal("x"))
    assert report.regularity == 0
    assert report.h0_max is None
    assert report.h1_max is None


def test_h1_can_live_below_degree_zero():
    # two reduced points: sections jump to 2 only from degree 1 on
    report = regularity_report(ideal("x*y", "z"))
    assert report.sheaf_dim_e == 2
    hf, e = _saturation_hilbert(ideal("x*y", "z"))
    assert e - hf[0] == 1
    assert report.h1_max == 0
    assert report.regularity == 1
    # one reduced point: H1 only in negative degrees
    point = regularity_report(ideal("x", "y"))
    assert (point.h1_max, point.regularity, point.sheaf_dim_e) == (-1, 0, 1)


def test_degree_data_accessors():
    data = DegreeData({2: 3, 1: 1})
    assert list(data.entries) == [1, 2]
    assert data.dimension(2) == 3
    assert data.dimension(7) == 0
    assert not data.is_empty()
