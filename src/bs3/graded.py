"""Graded dimension bookkeeping for weighted-homogeneous ideals.

Every graded dimension of a quotient by a Groebner basis comes from one
engine, groebner._hilbert_function, which counts the standard monomials of
the leading-monomial ideal in all degrees up to a top degree at once.  The
top degrees are proven, never guessed:

* H0 = (I : m^infinity)/I has the Hilbert series HS(R/in I) -
  HS(R/in I^sat), a polynomial; each series is K(t)/prod(1 - t^w_i) with
  deg K at most the weighted degree of the lcm of the leading monomials
  (Taylor resolution), so H0 lives in degrees up to the larger lcm degree
  minus the weight sum.
* The Hilbert function of R/I^sat is its Hilbert polynomial from
  groebner._hilbert_start on; when dim R/I <= 1 that polynomial is the
  constant e (groebner._hilbert_tail reads it off), the dimension of the
  global sections of the associated sheaf in every twist, and H1 is e
  minus the Hilbert function below that start.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .groebner import (MonomialOrder, _hilbert_function, _hilbert_tail,
                       _lcm_degree, _positively_graded, buchberger,
                       saturated_leading_monomials)
from .polyring import (Bs3Error, PreconditionError, WeightSystem,
                       format_rational, wdeg)


class DegreeData:
    """Finite map from weighted degree (a Fraction or an int) to a positive
    dimension, with its support as an ascending tuple."""

    __slots__ = ("entries", "support")

    def __init__(self, entries):
        self.entries = {q: d for q, d in entries.items() if d}
        if any(d < 0 for d in self.entries.values()):
            raise ValueError("negative dimension in degree data")
        self.support = tuple(sorted(self.entries))

    def dimension(self, q):
        return self.entries.get(q, 0)

    def total_dimension(self):
        return sum(self.entries.values())

    def is_empty(self):
        return not self.entries

    def __eq__(self, other):
        return isinstance(other, DegreeData) and self.entries == other.entries

    def __repr__(self):
        inside = ", ".join("%s:%d" % (q, self.entries[q])
                           for q in self.support)
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
    gb, by counting standard monomials; homogeneity is checked on the
    packed triples."""
    W = w.scaled
    unpack = gb.order.packing.unpack
    for i, (_, _, d) in enumerate(gb._int_basis):
        if len({sum(map(mul, W, unpack(m))) for m in d}) > 1:
            raise PreconditionError("basis element %s is not homogeneous "
                                    "for the given weights" % gb.elements[i])
    return _monomial_quotient_dimension(gb.leading_monomials, w, q)


def check_h0_symmetry(h0, center):
    """Raise Bs3Error unless the H0 degree data are symmetric about center,
    pairing the ascending support with its reverse.  For a reduced
    quasi-homogeneous f, H0 of R/(partial f) is self-dual about
    3*wdeg(f) - 2*sum(w) (Sernesi; van Straten-Warmt; Dimca-Sticlaru)."""
    support, dims = h0.support, h0.entries
    half = support[:(len(support) + 1) // 2]
    if any(p + q != center or dims[p] != dims[q]
           for p, q in zip(half, reversed(support))):
        raise Bs3Error("internal inconsistency: H0 degrees are not "
                       "symmetric about %s" % format_rational(center))


def _monomial_quotient_dimension(lead_monomials, w, q):
    """dim (R/M)_q for M generated by the monomials, from the engine; 0 in
    a degree that is negative or not a multiple of 1/denominator."""
    k = Fraction(q) * w.denominator
    if k.denominator != 1 or k < 0:
        return 0
    return _hilbert_function(lead_monomials, int(k), w.scaled)[-1]


def h0_degree_data(I, w):
    """Degreewise dimensions of (I : m^infinity) / I, the finite-length part
    of R/I supported at the irrelevant maximal ideal."""
    if I.is_zero():
        return DegreeData({})
    for g in I.generators:
        if wdeg(g, w) is None:
            raise PreconditionError("generator %s is not homogeneous for the "
                                    "given weights" % g)
    W, L = w.scaled, w.denominator
    g = gcd(*W)
    # the saturation is read under this grading (groebner docstring)
    _, in_sat = saturated_leading_monomials(I, tuple(v // g for v in W))
    in_i = buchberger(I, MonomialOrder.grevlex(I.variable_count)
                      ).leading_monomials
    # HS(R/M) = K(t)/prod(1 - t^W_i) with deg K <= wdeg lcm(M), because the
    # Taylor resolution of R/M has every syzygy in a degree dividing lcm(M).
    # I^sat/I has finite length, so its series HS(R/in I) - HS(R/in I^sat)
    # is a polynomial, of degree at most the larger deg K minus sum(W).
    top = max(_lcm_degree(in_i, W), _lcm_degree(in_sat, W)) - sum(W)
    entries = {}
    for k, (dim_i, dim_s) in enumerate(zip(_hilbert_function(in_i, top, W),
                                           _hilbert_function(in_sat, top, W))):
        if dim_i < dim_s:
            raise Bs3Error("saturation smaller than the ideal; this should "
                           "be impossible")
        if dim_i > dim_s:
            entries[Fraction(k, L)] = dim_i - dim_s
    return DegreeData(entries)


STANDARD = WeightSystem((1, 1, 1))


def _saturation_hilbert(I):
    """The Hilbert function of R/I^sat under the standard grading and the
    constant e of its Hilbert polynomial, as groebner._hilbert_tail reads
    them.

    A saturated ideal of dimension at most one has a linear nonzerodivisor,
    so its Hilbert function never decreases and never passes e; a value
    above e is an internal error.
    """
    _, lms = saturated_leading_monomials(I, _positively_graded(I))
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
    """dim of the degree-q piece of H1_m(R/I), via e minus the Hilbert value."""
    hf, e = _saturation_hilbert(I)
    if e is None:
        raise PreconditionError(_NOT_POINTS)
    q = Fraction(q)
    if q.denominator != 1 or q < 0:
        return e
    return e - hf[int(q)] if q < len(hf) else 0


def regularity_report(I):
    """H0/H1 degree ranges and the regularity max(h0_max, h1_max + 1),
    with absent cohomology skipped."""
    h0 = h0_degree_data(I, STANDARD)
    h0_max = h0.support[-1] if not h0.is_empty() else None
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
