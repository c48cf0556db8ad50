"""Graded dimension bookkeeping for weighted-homogeneous ideals.

Every graded dimension of a quotient by a Groebner basis comes from the
staircases of leading-monomial ideals, walked one row range at a time
with one corner list per ideal (groebner._excess_boxes):

* H0 = (I : m^infinity)/I has the Hilbert function HF(R/in I) -
  HF(R/in I^sat), so dim H0_t is the number of monomials of in(I^sat)
  outside in(I) of degree t.  The saturation (groebner._saturate) lists
  them as boxes, each a range of rows, of columns and of z-powers, and
  hands them on: a colon by z reads them off the staircase of in(I) that
  the basis keeps (groebner._z_colon_excess), and a colon c >= 1 makes
  one pass over both staircases as its certificate
  (groebner._saturation_excess).  h0_degree_data counts them by degree
  (groebner._excess_degrees), charged one step per degree.  No window is
  needed: the difference is finite, so it lies below the lcm of in(I),
  and a difference that would repeat past it is the saturation's failed
  certificate, never a count.  When the saturation returns in(I) itself
  H0 is empty with no pass; when I is Artinian the boxes are the standard
  monomials of R/in(I).
* The Hilbert function of R/I^sat is HF(R/I) - H0, read over the tail of
  in(I) that the basis of I holds (groebner.GroebnerBasis.tail), counted
  over the same kept staircase.  The tail runs from 0 to
  max(deg lcm - 2, 0) + 2 and holds every H0 degree; from its start on
  it is the Hilbert polynomial, the same for R/I and R/I^sat.  When
  dim R/I <= 1 that polynomial is the constant e, the dimension of the
  global sections of the associated sheaf in every twist, and H1 is e
  minus the Hilbert function of R/I^sat below that start.

H0 is read under the weights of the request.  e, H1 and the regularity are
read under the standard grading, so they refuse an ideal whose generators
are not homogeneous for (1, 1, 1): the saturation they rest on checks that
its weights grade the ideal (groebner._saturate).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .groebner import _excess_degrees, _saturate, buchberger
from .polyring import (Bs3Error, PreconditionError, WeightSystem,
                       format_ratio, format_rational)


class DegreeData:
    """Finite map from weighted degree to a positive dimension.  Each
    degree t is kept as the int k = L*t over one denominator L, in
    `scaled`, a dict in ascending order of k; `entries`, degree to
    dimension in the same order, is a Fraction view built on access.
    h0_degree_data builds it over the weights' common denominator."""

    __slots__ = ("denominator", "scaled")

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
    with the H0 degree data it was read from: ints under the standard
    grading, h0_max and h1_max None where that cohomology is absent."""

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


def check_h0_symmetry(h0, center, denominator=1):
    """Raise Bs3Error unless the H0 degree data are symmetric about the
    rational center/denominator, pairing the ascending scaled degrees with
    their reverse about that centre times L, L = h0.denominator.  For a
    reduced quasi-homogeneous f, H0 of R/(partial f) is self-dual about
    3*wdeg(f) - 2*sum(w) (Sernesi; van Straten-Warmt; Dimca-Sticlaru)."""
    scaled = h0.scaled
    c, off = divmod(center * h0.denominator, denominator)
    if off:
        c = None  # off the grid: no pair
    keys = list(scaled)
    half = keys[:(len(keys) + 1) // 2]
    if any(p + q != c or scaled[p] != scaled[q]
           for p, q in zip(half, reversed(keys))):
        raise Bs3Error("internal inconsistency: H0 degrees are not "
                       "symmetric about %s"
                       % format_rational(Fraction(center, denominator)))


def h0_degree_data(I, w):
    """Degreewise dimensions of (I : m^infinity) / I, the finite-length part
    of R/I supported at the irrelevant maximal ideal: the monomials of
    in(I^sat) outside in(I), counted by weighted degree."""
    if I.is_zero():
        return DegreeData._over(w.denominator, {})
    W, L = w.scaled, w.denominator
    g = gcd(*W)
    # the saturation refuses weights that do not grade I, is read under
    # them (groebner docstring), and lists the boxes its route found
    _, _, boxes = _saturate(I, tuple(v // g for v in W))
    return DegreeData._over(L, {k: dim for k, dim in
                                enumerate(_excess_degrees(boxes, W)) if dim})


STANDARD = WeightSystem((1, 1, 1))


def regularity_report(I):
    """H0/H1 degree ranges, the regularity max(h0_max, h1_max + 1) with
    absent cohomology skipped, and e, all under the standard grading; the
    saturation behind H0 refuses an ideal that (1, 1, 1) does not grade,
    and an ideal with dim R/I = 2 is refused.

    The Hilbert function of R/I^sat is HF(R/I) - H0 over the tail of in(I)
    the basis holds, whose e is that of R/I^sat, since H0 is finite.
    Every H0 degree lies in that tail: in(I^sat) adds finitely many
    monomials, so the lcm of in(I^sat) divides that of in(I)
    (groebner._saturation_excess), and H0 ends three degrees below it.
    A saturated ideal of dimension at most one has a linear
    nonzerodivisor, so its Hilbert function never decreases and never
    passes e; a value above e is an internal error.  H1 is e minus it:
    zero from the Hilbert start on, e in every negative degree, so it is
    absent only when e = 0.
    """
    h0 = h0_degree_data(I, STANDARD)
    hf, e = buchberger(I).tail
    if e is None:
        raise PreconditionError("Hilbert polynomial of R/I^sat is not "
                                "constant; projective support is not "
                                "zero-dimensional; the regularity formula "
                                "needs dim R/I <= 1")
    # under (1, 1, 1) the scaled H0 degrees are the degrees themselves
    hf = [dim - h0.scaled.get(t, 0) for t, dim in enumerate(hf)]
    if max(hf) > e:
        raise Bs3Error("Hilbert value exceeds its stable limit; this should "
                       "be impossible")
    h0_max = next(reversed(h0.scaled), None)
    h1_max = max((t for t, dim in enumerate(hf) if dim < e),
                 default=-1) if e else None
    regularity = max(h0_max or 0, h1_max + 1 if e else 0)
    return RegularityReport(h0_max, h1_max, regularity, e, h0)
