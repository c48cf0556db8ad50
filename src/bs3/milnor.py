"""Jacobian ideals and Milnor algebra degree data.

The central object is the MilnorProfile of a quasi-homogeneous polynomial:
its Jacobian ideal, the degree data of the finite-length part of the Milnor
algebra (the local cohomology H0_m of R/(partial f)), an isolated-singularity
flag, and, in the isolated case, the full degree data of the Milnor algebra,
which is then H0 itself.
"""

from __future__ import annotations

from .graded import check_h0_symmetry, h0_degree_data
from .groebner import (_GREVLEX, MAX_DEGREE, Ideal, _budget,
                       _dimension_at_most_one, _held, _is_artinian,
                       _packed_terms, buchberger)
from .polyring import PreconditionError, wdeg

INFINITE = "infinite"


class MilnorProfile:
    """Everything the root formulas need to know about one polynomial."""

    __slots__ = ("f", "weights", "wdeg_f", "jacobian", "h0", "is_isolated",
                 "milnor_algebra_degrees")

    def __init__(self, f, weights, wdeg_f, jacobian, h0, is_isolated,
                 milnor_algebra_degrees):
        self.f = f
        self.weights = weights
        self.wdeg_f = wdeg_f
        self.jacobian = jacobian
        self.h0 = h0
        self.is_isolated = is_isolated
        self.milnor_algebra_degrees = milnor_algebra_degrees

    def __repr__(self):
        return ("MilnorProfile(f=%s, wdeg=%s, isolated=%s, h0=%r)"
                % (self.f, self.wdeg_f, self.is_isolated, self.h0))


def jacobian_ideal(f):
    """The ideal of the three partial derivatives of f in x, y, z; zero
    partials dropped.  f's terms are packed once, cleared of denominators,
    and the partials taken on the packed monomials (_jacobian_of), so no
    Polynomial is built.  A term may have total degree MAX_DEGREE + 1,
    since its partials are one degree lower; a higher one is refused with
    ResourceLimitError."""
    if f.is_zero() or f.is_constant():
        raise PreconditionError("constant polynomial has no Jacobian ideal")
    if f.variable_count != 3:
        raise PreconditionError("a Jacobian ideal needs 3 variables")
    return _jacobian_of(*_packed_terms(f, _GREVLEX, MAX_DEGREE + 1))


def _jacobian_of(terms, denom=1, hilbert_tail=None):
    """The Jacobian ideal of the polynomial terms / denom, terms an int dict
    packed by the grevlex packing of x, y, z, as an Ideal held packed with
    the tail given.  The partial in a variable whose raw field has shift s
    and coefficient C takes a term v*m with exponent e = m >> s & 0xFFFF
    (a field holds MAX_DEGREE + 1 too) to e*v*(m - C), and drops it when e
    is 0: distinct terms stay distinct, and each field of m - C is one
    lower, or at most the degree of m minus e, so within MAX_DEGREE.  One
    step per term."""
    _budget().spend(len(terms))
    held = []
    for s, c in _GREVLEX.raw_fields:
        part = {m - c: e * v for m, v in terms.items()
                if (e := m >> s & 0xFFFF)}
        if part:
            held.append(_held(part, denom))
    return Ideal._packed(held, 3, hilbert_tail)


def _weighted_degree(f, w):
    """wdeg(f, w), refused when f is not quasi-homogeneous for w."""
    d = wdeg(f, w)
    if d is None:
        raise PreconditionError(
            "polynomial is not quasi-homogeneous for weights %s" % w)
    return d


def milnor_profile(f, w):
    """Assemble the degree data controlling the root formulas.

    Quasi-homogeneity and reducedness of f are checked here: a
    quasi-homogeneous f is reduced iff dim R/J <= 1, read off in(J) before
    any saturation work.  Local quasi-homogeneity is the caller's
    responsibility.
    """
    d = _weighted_degree(f, w)
    if d <= 0:
        raise PreconditionError("constant polynomial has no Milnor profile")
    jac = jacobian_ideal(f)
    lms = buchberger(jac).leading_monomials
    if not _dimension_at_most_one(lms):
        raise PreconditionError("not reduced: dim R/J = 2, so f has a "
                                "repeated factor")
    # finite length, but not the unit ideal: a smooth f such as x has no
    # singular point, isolated or not
    isolated = _is_artinian(lms) and lms != ((0, 0, 0),)
    h0 = h0_degree_data(jac, w)
    # f is reduced, so H0 is self-dual about 3d - 2*sum(w).  When f is
    # isolated, (partial f) is m-primary, saturation gives (1) and H0 is
    # the whole Milnor algebra, a complete intersection with Hilbert series
    # prod (1 - t^(d - w_i)) / (1 - t^w_i).  The centre is read over the
    # weights' denominator L, a multiple of that of d, as H0's degrees are.
    L = w.denominator
    check_h0_symmetry(h0, 3 * d.numerator * (L // d.denominator)
                      - 2 * sum(w.scaled), L)
    degrees = h0 if isolated else INFINITE
    return MilnorProfile(f, w, d, jac, h0, isolated, degrees)
