"""Graded dimension bookkeeping for weighted-homogeneous ideals.

Dimensions of graded pieces of R/I are available through two independent
routes: counting standard monomials of a Groebner basis, or the rank of the
matrix of generator multiples landing in the degree.  H0 degree data compares
an ideal with its irrelevant-ideal saturation; the stabilized Hilbert value
of the saturation plays the role of the space of global sections of the
associated sheaf, constant across twists when the support is 0-dimensional.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import linalg
from .groebner import (GroebnerBasis, Ideal, MonomialOrder, buchberger,
                       saturate_irrelevant)
from .polyring import (Polynomial, PreconditionError, WeightSystem,
                       mono_divides, mono_mul, wdeg)


class DegreeData:
    """Finite map from weighted degree to a positive dimension."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = {Fraction(q): int(d) for q, d in entries.items() if d}
        if any(d < 0 for d in self.entries.values()):
            raise ValueError("negative dimension in degree data")

    @property
    def support(self):
        return sorted(self.entries)

    def dimension(self, q):
        return self.entries.get(Fraction(q), 0)

    def total_dimension(self):
        return sum(self.entries.values())

    def is_empty(self):
        return not self.entries

    def __eq__(self, other):
        return isinstance(other, DegreeData) and self.entries == other.entries

    def __repr__(self):
        inside = ", ".join("%s:%d" % (q, d) for q, d in
                           sorted(self.entries.items()))
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


def _scaled_weights(w):
    """Weights as integers together with the common denominator."""
    L = 1
    for wi in w.weights:
        L = L * wi.denominator // gcd(L, wi.denominator)
    return [int(wi * L) for wi in w.weights], L


def weighted_monomials(w, q, variable_count=3):
    """All exponent tuples with weighted degree exactly q, in a fixed order."""
    W, L = _scaled_weights(w)
    target = Fraction(q) * L
    if target.denominator != 1 or target < 0:
        return []
    target = int(target)
    out = []
    if variable_count != len(W):
        raise ValueError("weight count does not match variable count")
    for e0 in range(target // W[0] + 1):
        r0 = target - e0 * W[0]
        for e1 in range(r0 // W[1] + 1):
            r1 = r0 - e1 * W[1]
            if r1 % W[2] == 0:
                out.append((e0, e1, r1 // W[2]))
    return out


def _standard_monomial_count(lead_monomials, w, q, n=3):
    count = 0
    for m in weighted_monomials(w, q, n):
        if not any(mono_divides(lm, m) for lm in lead_monomials):
            count += 1
    return count


def _rank_route_dimension(ideal, w, q):
    monos = weighted_monomials(w, q, ideal.variable_count)
    if not monos:
        return 0
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in ideal.generators:
        dg = wdeg(g, w)
        if dg is None:
            raise PreconditionError("ideal generator %s is not homogeneous "
                                    "for the given weights" % g)
        for m in weighted_monomials(w, q - dg, ideal.variable_count):
            row = [0] * len(monos)
            for gm, c in g.terms.items():
                row[index[mono_mul(m, gm)]] = c
            rows.append(row)
    return len(monos) - linalg.rank(rows)


def graded_dimension(ideal_or_basis, w, q):
    """dim of (R/I)_q for a weighted-homogeneous ideal.

    Given an Ideal, uses the rank of the generator-multiple matrix.  Given a
    GroebnerBasis, counts standard monomials.  The two must agree.
    """
    q = Fraction(q)
    if isinstance(ideal_or_basis, GroebnerBasis):
        gb = ideal_or_basis
        n = len(w.weights)
        for e in gb.elements:
            if wdeg(e, w) is None:
                raise PreconditionError("basis element %s is not homogeneous "
                                        "for the given weights" % e)
        return _standard_monomial_count(gb.leading_monomials, w, q, n)
    return _rank_route_dimension(ideal_or_basis, w, q)


def _degree_bound(ideal, sat, w):
    """Heuristic upper bound for the support of I^sat/I, extended on demand."""
    degs = [wdeg(g, w) for g in ideal.generators + sat.generators]
    degs = [d for d in degs if d is not None]
    top = max(degs) if degs else Fraction(0)
    return 3 * top + 3


def h0_degree_data(I, w, step_cap=None):
    """Degreewise dimensions of (I : m^infinity) / I, the finite-length part
    of R/I supported at the irrelevant maximal ideal."""
    n = I.variable_count
    if I.is_zero():
        return DegreeData({})
    for g in I.generators:
        if wdeg(g, w) is None:
            raise PreconditionError("generator %s is not homogeneous for the "
                                    "given weights" % g)
    sat = saturate_irrelevant(I, step_cap)
    order = MonomialOrder.grevlex(n)
    gb_I = buchberger(I, order, step_cap)
    gb_sat = buchberger(sat, order, step_cap)
    _, L = _scaled_weights(w)
    bound = _degree_bound(I, sat, w)
    entries = {}
    k = 0
    zero_run = 0
    while True:
        q = Fraction(k, L)
        dim_i = _standard_monomial_count(gb_I.leading_monomials, w, q, n)
        dim_s = (_standard_monomial_count(gb_sat.leading_monomials, w, q, n)
                 if gb_sat.elements else len(weighted_monomials(w, q, n)))
        diff = dim_i - dim_s
        if diff < 0:
            raise PreconditionError("saturation smaller than the ideal; "
                                    "this should be impossible")
        if diff:
            entries[q] = diff
            zero_run = 0
        else:
            zero_run += 1
        k += 1
        if q >= bound and zero_run >= 3 * L:
            break
        if q > 4 * bound + 12:
            raise PreconditionError("H0 support did not terminate below the "
                                    "degree bound; is H0 finite-dimensional?")
    return DegreeData(entries)


STANDARD = WeightSystem((1, 1, 1))


def _saturation_basis(I, step_cap=None):
    sat = saturate_irrelevant(I, step_cap)
    order = MonomialOrder.grevlex(I.variable_count)
    return sat, buchberger(sat, order, step_cap)


def _stabilized_value(gb_sat, start, n=3):
    """The common value of dim (R/I^sat)_q at start, start+1, start+2, or
    None when those three disagree."""
    dims = [_standard_monomial_count(gb_sat.leading_monomials, STANDARD,
                                     Fraction(q), n)
            for q in (start, start + 1, start + 2)]
    if dims[0] == dims[1] == dims[2]:
        return dims[0]
    return None


def _stabilization_start(I):
    top = max((g.total_degree() for g in I.generators), default=0)
    return 3 * top


def sheaf_dimension_e(I, step_cap=None):
    """Stabilized Hilbert value of R/I^sat under the standard grading; equals
    dim of the degree-q global sections for every twist q when the projective
    support is a finite set of points."""
    if I.is_zero():
        raise PreconditionError("the zero ideal has no stabilized Hilbert "
                                "value")
    _, gb_sat = _saturation_basis(I, step_cap)
    e = _stabilized_value(gb_sat, _stabilization_start(I), I.variable_count)
    if e is None:
        raise PreconditionError("Hilbert function of R/I^sat is not constant "
                                "in the test window; projective support is "
                                "not zero-dimensional")
    return e


def h1_dimension(I, q, step_cap=None):
    """dim of the degree-q piece of H1_m(R/I), via e minus the Hilbert value."""
    _, gb_sat = _saturation_basis(I, step_cap)
    e = _stabilized_value(gb_sat, _stabilization_start(I), I.variable_count)
    if e is None:
        raise PreconditionError("Hilbert function of R/I^sat is not constant "
                                "in the test window; projective support is "
                                "not zero-dimensional")
    dim_q = _standard_monomial_count(gb_sat.leading_monomials, STANDARD,
                                     Fraction(q), I.variable_count)
    if dim_q > e:
        raise PreconditionError("Hilbert value exceeds its stable limit; "
                                "H1 formula does not apply")
    return e - dim_q


def regularity_report(I, step_cap=None):
    """H0/H1 degree ranges and the regularity max(h0_max, h1_max + 1),
    with absent cohomology skipped."""
    h0 = h0_degree_data(I, STANDARD, step_cap)
    h0_max = max(h0.support) if not h0.is_empty() else None
    sat, gb_sat = _saturation_basis(I, step_cap)
    start = _stabilization_start(I)
    e = _stabilized_value(gb_sat, start, I.variable_count)
    if e is None:
        # tolerated degenerate case: a single plane, H0 = H1 = 0, reg 0
        principal_line = (h0.is_empty() and len(I.generators) == 1
                          and I.generators[0].total_degree() == 1)
        if principal_line:
            return RegularityReport(None, None, 0, None, h0)
        raise PreconditionError("Hilbert function of R/I^sat is not constant "
                                "in the test window; regularity formula "
                                "needs dim R/I <= 1")
    h1_max = None
    # H1 vanishes beyond the stable window and sits at e below degree 0,
    # so the largest degree with e > dim is found by scanning down to -1.
    for q in range(start + 2, -2, -1):
        dim_q = _standard_monomial_count(gb_sat.leading_monomials, STANDARD,
                                         Fraction(q), I.variable_count)
        if e - dim_q > 0:
            h1_max = Fraction(q)
            break
    parts = []
    if h0_max is not None:
        parts.append(h0_max)
    if h1_max is not None:
        parts.append(h1_max + 1)
    reg = max(parts) if parts else Fraction(0)
    return RegularityReport(h0_max, h1_max, int(reg), e, h0)
