"""Graded dimension bookkeeping for weighted-homogeneous ideals.

Every graded dimension of a quotient by a Groebner basis comes from one
engine, groebner._hilbert_function, which counts the standard monomials of
the leading-monomial ideal in all degrees up to a top degree at once.  A
window whose top a theorem bounds is read through groebner._hilbert_values,
a degree the caller chooses (graded_dimension's q) straight from the
engine, which charges a step per degree.  The top degrees are proven,
never guessed:

* H0 = (I : m^infinity)/I has the Hilbert series HS(R/in I) -
  HS(R/in I^sat), a polynomial; each series is K(t)/prod(1 - t^w_i) with
  deg K at most the weighted degree of the lcm of the leading monomials
  (Taylor resolution), so H0 lives in degrees up to the larger lcm degree
  minus the weight sum.
* The Hilbert function of R/I^sat is its Hilbert polynomial from
  max(deg lcm - 2, 0) on (groebner._hilbert_tail); when dim R/I <= 1 that
  polynomial is the constant e, the dimension of the global sections of
  the associated sheaf in every twist, and H1 is e minus the Hilbert
  function below that start.

H0 is read under the weights of the request.  e, H1 and the regularity are
read under the standard grading, so they refuse an ideal whose generators
are not homogeneous for (1, 1, 1): the saturation they rest on checks that
its weights grade the ideal (groebner.saturated_leading_monomials).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .groebner import (MonomialOrder, _hilbert_function, _hilbert_tail,
                       _hilbert_values, _lcm_degree, buchberger,
                       saturated_leading_monomials)
from .polyring import (Bs3Error, PreconditionError, WeightSystem,
                       format_ratio, format_rational)


class DegreeData:
    """Finite map from weighted degree to a positive dimension.  Each
    degree t is kept as the int k = L*t over one denominator L, in
    `scaled`, a dict in ascending order of k; `entries` (degree to
    dimension) and `support` (the ascending degrees) are Fraction views
    built on access.  DegreeData(entries) takes degrees as Fractions or
    ints and uses the least common denominator of them;
    h0_degree_data uses the weights' common denominator."""

    __slots__ = ("denominator", "scaled")

    def __init__(self, entries):
        L = lcm(*(q.denominator for q in entries))
        pairs = sorted((int(q * L), d) for q, d in entries.items() if d)
        if any(d < 0 for _, d in pairs):
            raise ValueError("negative dimension in degree data")
        self.denominator = L
        self.scaled = dict(pairs)

    @classmethod
    def _over(cls, denominator, scaled):
        """Degree data from an ascending dict k -> positive dimension."""
        data = cls.__new__(cls)
        data.denominator = denominator
        data.scaled = scaled
        return data

    @property
    def entries(self):
        L = self.denominator
        return {Fraction(k, L): d for k, d in self.scaled.items()}

    @property
    def support(self):
        L = self.denominator
        return tuple(Fraction(k, L) for k in self.scaled)

    def dimension(self, q):
        """The dimension in degree q, an int or a Fraction; 0 off the
        grid of the denominator."""
        return self.scaled.get(q * self.denominator, 0)

    def total_dimension(self):
        return sum(self.scaled.values())

    def is_empty(self):
        return not self.scaled

    def __eq__(self, other):
        if not isinstance(other, DegreeData):
            return False
        if self.denominator == other.denominator:
            return self.scaled == other.scaled
        return self.entries == other.entries

    def __repr__(self):
        L = self.denominator
        inside = ", ".join("%s:%d" % (format_ratio(k, L), d)
                           for k, d in self.scaled.items())
        return "DegreeData({%s})" % inside


class RegularityReport:
    """Castelnuovo-Mumford data for R/I read off H0 and H1 degree ranges,
    with the H0 degree data it was read from."""

    __slots__ = ("h0_max", "h1_max", "regularity", "sheaf_dim_e", "h0")

    def __init__(self, h0_max, h1_max, regularity, sheaf_dim_e, h0):
        self.h0_max = h0_max
        self.h1_max = h1_max
        self.regularity = regularity
        self.sheaf_dim_e = sheaf_dim_e
        self.h0 = h0

    def __repr__(self):
        return ("RegularityReport(h0_max=%s, h1_max=%s, regularity=%s, "
                "sheaf_dim_e=%s)" % (self.h0_max, self.h1_max,
                                     self.regularity, self.sheaf_dim_e))


def graded_dimension(gb, w, q):
    """dim of (R/I)_q for a weighted-homogeneous ideal with Groebner basis
    gb, by counting standard monomials; 0 when q < 0 or q*w.denominator is
    not an int.  Homogeneity is checked on the reduced basis, homogeneous
    exactly when the ideal is (a minimal one keeps its generators as
    given)."""
    W = w.scaled
    if gb.order.variable_count != 3 or len(W) != 3:
        raise PreconditionError("graded dimension needs 3 variables and 3 "
                                "weights")
    for g in gb.elements:
        if len({sum(map(mul, W, m)) for m in g.terms}) > 1:
            raise PreconditionError("basis element %s is not homogeneous "
                                    "for the given weights" % g)
    k = Fraction(q) * w.denominator
    if k.denominator != 1 or k < 0:
        return 0
    return _hilbert_function(gb.leading_monomials, int(k), W)[-1]


def check_h0_symmetry(h0, center):
    """Raise Bs3Error unless the H0 degree data are symmetric about the
    rational center, pairing the ascending scaled degrees with their
    reverse about center*L, L = h0.denominator.  For a reduced
    quasi-homogeneous f, H0 of R/(partial f) is self-dual about
    3*wdeg(f) - 2*sum(w) (Sernesi; van Straten-Warmt; Dimca-Sticlaru)."""
    scaled = h0.scaled
    c = center * h0.denominator
    c = c.numerator if c.denominator == 1 else None  # off the grid: no pair
    keys = list(scaled)
    half = keys[:(len(keys) + 1) // 2]
    if any(p + q != c or scaled[p] != scaled[q]
           for p, q in zip(half, reversed(keys))):
        raise Bs3Error("internal inconsistency: H0 degrees are not "
                       "symmetric about %s" % format_rational(center))


def h0_degree_data(I, w):
    """Degreewise dimensions of (I : m^infinity) / I, the finite-length part
    of R/I supported at the irrelevant maximal ideal."""
    if I.is_zero():
        return DegreeData._over(w.denominator, {})
    W, L = w.scaled, w.denominator
    g = gcd(*W)
    # the saturation refuses weights that do not grade I, and is read under
    # them (groebner docstring)
    _, in_sat = saturated_leading_monomials(I, tuple(v // g for v in W))
    in_i = buchberger(I, MonomialOrder.grevlex(I.variable_count)
                      ).leading_monomials
    # HS(R/M) = K(t)/prod(1 - t^W_i) with deg K <= wdeg lcm(M), because the
    # Taylor resolution of R/M has every syzygy in a degree dividing lcm(M).
    # I^sat/I has finite length, so its series HS(R/in I) - HS(R/in I^sat)
    # is a polynomial, of degree at most the larger deg K minus sum(W).
    top = max(_lcm_degree(in_i, W), _lcm_degree(in_sat, W)) - sum(W)
    dims = _hilbert_values(in_i, top, W), _hilbert_values(in_sat, top, W)
    scaled = {}
    for k, (dim_i, dim_s) in enumerate(zip(*dims)):
        if dim_i < dim_s:
            raise Bs3Error("saturation smaller than the ideal; this should "
                           "be impossible")
        if dim_i > dim_s:
            scaled[k] = dim_i - dim_s
    return DegreeData._over(L, scaled)


STANDARD = WeightSystem((1, 1, 1))


def _saturation_hilbert(I):
    """The Hilbert function of R/I^sat under the standard grading and the
    constant e of its Hilbert polynomial, as groebner._hilbert_tail reads
    them; an ideal that (1, 1, 1) does not grade is refused.

    A saturated ideal of dimension at most one has a linear nonzerodivisor,
    so its Hilbert function never decreases and never passes e; a value
    above e is an internal error.
    """
    _, lms = saturated_leading_monomials(I, (1, 1, 1))
    hf, e = _hilbert_tail(lms)
    if e is not None and max(hf) > e:
        raise Bs3Error("Hilbert value exceeds its stable limit; this should "
                       "be impossible")
    return hf, e


_NOT_POINTS = ("Hilbert polynomial of R/I^sat is not constant; projective "
               "support is not zero-dimensional")


def sheaf_dimension_e(I):
    """Stabilized Hilbert value of R/I^sat under the standard grading; equals
    dim of the degree-q global sections for every twist q when the projective
    support is a finite set of points."""
    if I.is_zero():
        raise PreconditionError("the zero ideal has no stabilized Hilbert "
                                "value")
    _, e = _saturation_hilbert(I)
    if e is None:
        raise PreconditionError(_NOT_POINTS)
    return e


def h1_dimension(I, q):
    """dim of the degree-q piece of H1_m(R/I), via e minus the Hilbert
    value; 0 off the integer grid, where no module has a piece."""
    hf, e = _saturation_hilbert(I)
    if e is None:
        raise PreconditionError(_NOT_POINTS)
    q = Fraction(q)
    if q.denominator != 1 or q >= len(hf):
        return 0
    return e if q < 0 else e - hf[int(q)]


def regularity_report(I):
    """H0/H1 degree ranges and the regularity max(h0_max, h1_max + 1),
    with absent cohomology skipped."""
    h0 = h0_degree_data(I, STANDARD)
    h0_max = (Fraction(next(reversed(h0.scaled)), h0.denominator)
              if not h0.is_empty() else None)
    hf, e = _saturation_hilbert(I)
    if e is None:
        # tolerated degenerate case: a single plane, H0 = H1 = 0, reg 0
        principal_line = (h0.is_empty() and len(I.generators) == 1
                          and I.generators[0].total_degree() == 1)
        if principal_line:
            return RegularityReport(None, None, 0, None, h0)
        raise PreconditionError(_NOT_POINTS + "; the regularity formula "
                                "needs dim R/I <= 1")
    # H1 is e - hf: zero from the Hilbert start on, e in every negative
    # degree, so it is absent only when e = 0.
    below = [q for q, dim in enumerate(hf) if dim < e]
    h1_max = Fraction(below[-1] if below else -1) if e else None
    parts = []
    if h0_max is not None:
        parts.append(h0_max)
    if h1_max is not None:
        parts.append(h1_max + 1)
    reg = max(parts) if parts else Fraction(0)
    return RegularityReport(h0_max, h1_max, int(reg), e, h0)
