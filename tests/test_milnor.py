"""Jacobian ideals, Milnor algebra data, logarithmic derivation dimensions."""

import random
from fractions import Fraction

import pytest

from bs3 import milnor
from bs3.groebner import (MAX_DEGREE, Ideal, ResourceLimitError, buchberger,
                          step_budget)
from bs3.milnor import INFINITE, jacobian_ideal, milnor_profile
from bs3.polyring import (Bs3Error, Polynomial, PreconditionError,
                          WeightSystem, parse_polynomial)

import oracles
from oracles import der_log0_graded_dimension

W1 = WeightSystem((1, 1, 1))


def P(text):
    return parse_polynomial(text)


def test_jacobian_ideal_fermat_cubic():
    I = jacobian_ideal(P("x^3+y^3+z^3"))
    assert {str(g) for g in I.generators} == {"3*x^2", "3*y^2", "3*z^2"}


def test_jacobian_ideal_coordinate_product():
    I = jacobian_ideal(P("x*y*z"))
    assert {str(g) for g in I.generators} == {"y*z", "x*z", "x*y"}


def test_jacobian_of_constant_rejected():
    with pytest.raises(PreconditionError):
        jacobian_ideal(P("5"))


def random_exponents(rng, free):
    """Exponents of x, y, z, those in `free` 0: most small, some of total
    degree MAX_DEGREE + 1."""
    if rng.random() < 0.1:
        top = MAX_DEGREE + 1
        cuts = sorted(rng.randint(0, top) for _ in range(2))
        m = [j - i for i, j in zip([0] + cuts, cuts + [top])]
        if any(m[i] for i in free):
            m = [0 if i in free else e for i, e in enumerate(m)]
            m[min(set(range(3)) - free)] += top - sum(m)
        return tuple(m)
    return tuple(0 if i in free else rng.randint(0, 4) for i in range(3))


def random_coefficient(rng):
    if rng.random() < 0.5:
        return rng.choice((-1, 1)) * rng.randint(1, 9)
    return Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 30))


def seeded_polynomials(count, seed=44):
    """Nonconstant Polynomials in x, y, z with int and Fraction
    coefficients, a third of them free of some variable, so a partial
    vanishes, and a tenth of their terms of degree MAX_DEGREE + 1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        free = set(rng.sample(range(3), rng.choice((0, 0, 1, 2))))
        terms = {random_exponents(rng, free): random_coefficient(rng)
                 for _ in range(rng.randint(1, 7))}
        f = Polynomial(terms, 3)
        if not f.is_constant():
            out.append(f)
    return out


def test_jacobian_ideal_is_the_polynomial_route_packed():
    # the triples the packed partials hold are those
    # oracles.partial_derivative and the packing of each partial give, and
    # the generators built on read are those partials: the ideal equals,
    # and hashes as, the one built from them
    polys = seeded_polynomials(500)
    assert sum(max(map(sum, f.terms)) == MAX_DEGREE + 1 for f in polys) > 50
    vanishing = fractional = 0
    for f in polys:
        partials, triples = oracles.jacobian_by_polynomials(f)
        with step_budget() as budget:
            jac = jacobian_ideal(f)
        assert budget.used == len(f.terms), f
        assert jac._triples == tuple(triples), f
        assert jac.generators == tuple(partials), f
        assert jac == Ideal(partials, 3) and hash(jac) == hash(
            Ideal(partials, 3)), f
        vanishing += len(partials) < 3
        fractional += any(c.__class__ is Fraction for c in f.terms.values())
    assert vanishing > 100 and fractional > 250


def test_jacobian_ideal_refuses_a_term_past_one_above_the_bound():
    # a term of degree MAX_DEGREE + 1 has partials that fit; one more
    # degree does not, and is refused before any basis work
    jac = jacobian_ideal(P("x^32768+y^32768+z^32768"))
    assert [max(map(sum, g.terms)) for g in jac.generators] == [MAX_DEGREE] * 3
    for text in ("x^32769+y^32769+z^32769", "x^40000+y^40000+z^40000",
                 "x^32768*y + z^32769"):
        with pytest.raises(ResourceLimitError, match="above 32767"):
            jacobian_ideal(P(text))


def test_milnor_table_without_a_mirror_degree_is_refused(monkeypatch):
    # the Fermat cubic's table 1, 3, 3, 1 about T = 3 without degree 3:
    # degree 0 has no partner, which reads as dimension 0
    monkeypatch.setattr(milnor, "h0_degree_data",
                        lambda I, w: oracles.degree_data({0: 1, 1: 3, 2: 3}))
    with pytest.raises(Bs3Error, match="symmetric"):
        milnor_profile(P("x^3+y^3+z^3"), W1)


def test_milnor_profile_refuses_two_weights(monkeypatch):
    # refused by wdeg, before the Jacobian's basis is computed
    monkeypatch.setattr(milnor, "buchberger", None)
    with pytest.raises(PreconditionError, match="2 weights for 3 variables"):
        milnor_profile(P("x^2 + y^2"), WeightSystem((1, 1)))


def test_quadric_profile():
    prof = milnor_profile(P("x^2+y^2+z^2"), W1)
    assert prof.wdeg_f == 2
    assert prof.is_isolated
    assert dict(prof.h0.entries) == {0: 1}
    assert prof.milnor_algebra_degrees.total_dimension() == 1


def test_fermat_cubic_profile():
    prof = milnor_profile(P("x^3+y^3+z^3"), W1)
    assert prof.is_isolated
    assert dict(prof.h0.entries) == {0: 1, 1: 3, 2: 3, 3: 1}
    assert prof.milnor_algebra_degrees == prof.h0
    assert (prof.weights.scaled, prof.weights.denominator) == ((1, 1, 1), 1)


def test_milnor_number_matches_weight_product():
    # mu = prod(wdeg/w_i - 1) for an isolated quasi-homogeneous singularity;
    # the degrees are checked against the staircase-box enumeration
    cases = [
        ("x^3+y^3+z^3", (1, 1, 1), 8),
        ("x^4+y^4+z^4", (1, 1, 1), 27),
        ("x^9+y^9+z^9", (1, 1, 1), 512),
        ("x^2+y^3+z^5", (15, 10, 6), 8),
        ("x^2+y^3+z^7", (21, 14, 6), 12),
        ("x^4+y^6+z^9", (9, 6, 4), 120),
        ("x^3+y^3+z^3+x*y*z", (1, 1, 1), 8),
        ("x^4+y^4+z^6+3*x^2*y^2", (3, 3, 2), 45),
        ("x^2+y^6+z^6-5/2*x*y^3", (3, 1, 1), 25),
    ]
    for text, weights, mu in cases:
        w = WeightSystem(weights)
        prof = milnor_profile(P(text), w)
        assert prof.is_isolated
        assert prof.milnor_algebra_degrees.total_dimension() == mu
        gb = buchberger(prof.jacobian)
        assert prof.milnor_algebra_degrees == \
            oracles._artinian_degree_data(gb, w), text


def test_weighted_degrees_of_small_exceptional_singularity():
    prof = milnor_profile(P("x^2+y^3+z^5"), WeightSystem((15, 10, 6)))
    assert prof.wdeg_f == 30
    assert sorted(prof.milnor_algebra_degrees.entries) == \
        [0, 6, 10, 12, 16, 18, 22, 28]


def test_non_quasi_homogeneous_rejected():
    message = "polynomial is not quasi-homogeneous for weights 1/2,1,1"
    w = WeightSystem((Fraction(1, 2), 1, 1))
    for read in (lambda: milnor_profile(P("x^2 + y^3"), w),
                 lambda: der_log0_graded_dimension(P("x^2 + y^3"), w, 0)):
        with pytest.raises(PreconditionError) as caught:
            read()
        assert str(caught.value) == message


def test_non_isolated_profiles():
    prof = milnor_profile(P("x*y*z"), W1)
    assert not prof.is_isolated
    assert prof.h0.is_empty()
    assert prof.milnor_algebra_degrees == INFINITE

    curve = milnor_profile(P("x^2 + y^3"), WeightSystem((3, 2, 1)))
    assert curve.wdeg_f == 6
    assert not curve.is_isolated
    assert curve.h0.is_empty()


def test_quartic_cone_has_one_interior_section_degree():
    prof = milnor_profile(P("x^2*y*z + x*y^2*z + x*y*z^2"), W1)
    assert not prof.is_isolated
    assert dict(prof.h0.entries) == {3: 1}


def test_der_log0_dimensions():
    assert der_log0_graded_dimension(P("x*y*z"), W1, 0) == 2
    assert der_log0_graded_dimension(P("x^2+y^2+z^2"), W1, -1) == 0


def test_der_log0_agrees_with_kernel_rank_route():
    cases = [
        (P("x*y*z"), W1, 0),
        (P("x*y*z"), W1, 1),
        (P("x^2+y^2+z^2"), W1, -1),
        (P("x^2*y*z + x*y^2*z + x*y*z^2"), W1, 2),
        (P("x^2+y^3+z^5"), WeightSystem((15, 10, 6)), 6),
    ]
    # fractional weights: degrees on and off the 1/L grid, and k < 0 with
    # part of the domain still in degree >= 0
    for f, w in ((P("x^4*z + 3*x^2*y^3*z + 2*y^6*z"),
                  WeightSystem((Fraction(1, 2), Fraction(1, 3),
                                Fraction(1, 2)))),
                 (P("x^2+y^3+z^5"),
                  WeightSystem((Fraction(1, 2), Fraction(1, 3),
                                Fraction(1, 5))))):
        cases += [(f, w, Fraction(k, 30)) for k in range(-20, 61, 3)]
    for f, w, k in cases:
        assert der_log0_graded_dimension(f, w, k) == \
            oracles.der_log0_kernel_dimension_by_rank(f, w, k)
