"""Jacobian ideals, Milnor algebra data, logarithmic derivation dimensions."""

from fractions import Fraction

import pytest

from bs3 import milnor
from bs3.graded import DegreeData
from bs3.groebner import MonomialOrder, buchberger
from bs3.milnor import (INFINITE, der_log0_graded_dimension, jacobian_ideal,
                        milnor_profile)
from bs3.polyring import (Bs3Error, PreconditionError, WeightSystem,
                          parse_polynomial)

import oracles

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


def test_milnor_table_without_a_mirror_degree_is_refused(monkeypatch):
    # the Fermat cubic's table 1, 3, 3, 1 about T = 3 without degree 3:
    # degree 0 has no partner, which reads as dimension 0
    monkeypatch.setattr(milnor, "h0_degree_data",
                        lambda I, w: DegreeData({0: 1, 1: 3, 2: 3}))
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
    assert prof.weight_sum == 3


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
        gb = buchberger(prof.jacobian, MonomialOrder.grevlex(3))
        assert prof.milnor_algebra_degrees == \
            oracles._artinian_degree_data(gb, w), text


def test_weighted_degrees_of_small_exceptional_singularity():
    prof = milnor_profile(P("x^2+y^3+z^5"), WeightSystem((15, 10, 6)))
    assert prof.wdeg_f == 30
    assert sorted(prof.milnor_algebra_degrees.support) == \
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
