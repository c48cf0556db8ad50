"""Jacobian ideals, Milnor algebra degree data, and logarithmic derivations.

The central object is the MilnorProfile of a quasi-homogeneous polynomial:
its Jacobian ideal, the degree data of the finite-length part of the Milnor
algebra (the local cohomology H0_m of R/(partial f)), an isolated-singularity
flag, and, in the isolated case, the full degree data of the Milnor algebra,
which is then H0 itself.
"""

from __future__ import annotations

from fractions import Fraction

from .graded import check_h0_symmetry, h0_degree_data
from .groebner import (Ideal, MonomialOrder, _dimension_at_most_one,
                       _hilbert_function, _is_artinian, buchberger)
from .polyring import (PreconditionError, format_rational, partial_derivative,
                       wdeg)

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

    @property
    def weight_sum(self):
        return self.weights.weight_sum

    def __repr__(self):
        return ("MilnorProfile(f=%s, wdeg=%s, isolated=%s, h0=%r)"
                % (self.f, self.wdeg_f, self.is_isolated, self.h0))


def jacobian_ideal(f):
    """The ideal of the three partial derivatives; zero partials dropped."""
    if f.is_zero() or f.is_constant():
        raise PreconditionError("constant polynomial has no Jacobian ideal")
    partials = [partial_derivative(f, i) for i in (1, 2, 3)]
    return Ideal([p for p in partials if not p.is_zero()], f.variable_count)


def _weighted_degree(f, w):
    """wdeg(f, w), refused when f is not quasi-homogeneous for w."""
    d = wdeg(f, w)
    if d is None:
        raise PreconditionError(
            "polynomial is not quasi-homogeneous for weights %s"
            % ",".join(format_rational(v) for v in w.weights))
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
    lms = buchberger(jac, MonomialOrder.grevlex(f.variable_count)
                     ).leading_monomials
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
    # prod (1 - t^(d - w_i)) / (1 - t^w_i).
    check_h0_symmetry(h0, 3 * d - 2 * w.weight_sum)
    degrees = h0 if isolated else INFINITE
    return MilnorProfile(f, w, d, jac, h0, isolated, degrees)


def der_log0_graded_dimension(f, w, k):
    """dim of the degree-k piece of the derivations annihilating f:
    kernel of (a1,a2,a3) -> sum a_i * (d_i f) with a_i in R_{k+w_i}.

    The image is exactly the degree k+wdeg(f) piece of the Jacobian ideal,
    so the kernel dimension is sum_i dim R_{k+w_i} minus that piece.  f is
    homogeneous, so are its partials and their reduced basis: the standard
    monomials count the quotient with no further check.

    Degrees are scaled by the weights' denominator L, so the domain's
    degrees K + W_i and the image's K + D are ints; every dim R_t is read
    from one engine call on the zero ideal, M = ().
    """
    d = _weighted_degree(f, w)
    gb = buchberger(jacobian_ideal(f), MonomialOrder.grevlex(f.variable_count))
    K = Fraction(k) * w.denominator
    if K.denominator != 1:
        return 0  # no monomial has a degree off the 1/L grid
    K, D, W = int(K), int(d * w.denominator), w.scaled
    top = K + max(D, *W)
    if top < 0:
        return 0
    dim_r = _hilbert_function((), top, W)
    domain = sum(dim_r[K + v] for v in W if K + v >= 0)
    if domain == 0 or K + D < 0:
        return domain
    image = (dim_r[K + D]
             - _hilbert_function(gb.leading_monomials, K + D, W)[-1])
    return domain - image
