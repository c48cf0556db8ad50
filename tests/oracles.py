"""Frozen expected values and independent cross-check helpers.

The dimension helpers here use plain Gaussian elimination over Fraction,
written without the package's basis machinery, so that Groebner-derived
numbers can be checked against straight linear algebra; the rank route
below counts weighted graded dimensions and logarithmic derivations by
matrix rank (bs3.linalg), with no basis either.  The tables were computed
once from first principles (lattice enumeration by hand script, rank
computations over exact rationals) and are frozen; tests must not
regenerate them from the code under test.  The reference saturation is the
intersection of three eliminations, sharing no step with the package's
certified colon; it is kept here to cross-check that route, and the
elimination tools it is built from (block_basis, eliminate, saturate_by_poly,
ideal_intersection, and the lift to a new first variable t, _lift_poly and
_localized) live here too, since no request uses them, as do the sums and
products of Polynomials the tests build (poly_add, poly_mul): the package's
Polynomial has no arithmetic.  graded_dimension (one degree of R/I, on the
standard monomials of a basis) and der_log0_graded_dimension (the
derivations that kill f, as their domain minus a piece of the Jacobian
ideal) are the routes the package replaced by the proven windows of
groebner._hilbert_values and by the closed form of der0 (arrangement
docstring); the rank route checks both, and the six conditions in the
original coordinates read both.  The Artinian degree data below walk the
finite staircase box directly, independent of the Hilbert-function engine.
The rational normal form, and the reduced basis built from it, are what
the package's head-only integer reducer and its minimal bases are tested
against, and the bitmask decomposability test and the lattice criterion
(a point on exactly d - 1 lines) are the routes the package replaced by
its test of the three crossings of the first three normals.
s_polynomial, over the package's integer S-polynomial, is what checks
that a basis is Groebner, and
Buchberger's loop with the product criterion at pair creation and the
chain criterion over the whole basis at pair selection is what the
Gebauer-Moller update of bs3.groebner is tested against.  The tuple
monomial primitives and order keys are what the packed
monomials of bs3.groebner are tested against, and the Fraction intersection
lattice is what the integer lattice of bs3.arrangement is tested against,
as the relations of every concurrent triple are what its m - 2 length-3
relations per point are, and a form parsed to a Polynomial and normalized
over Fraction is what its primitive integer normals are.  The product of
linear forms as Polynomials, one factor at a time, is what its product of
normals on packed monomials is tested against, and the route from a
Polynomial to a Jacobian's triples that the package replaced (the product
of coefficient vectors in one dict, the Polynomial partial_derivative and
to_int_poly) is what its Jacobians, born packed, and the generators they
build on read are tested against.  The Fraction route from
H0 degrees to root sets (degrees keyed by Fraction, each root computed in
Fraction arithmetic, a root set a sorted tuple of distinct Fractions) is
what the package's integer route, degrees k = L*t and roots n/D over one
denominator, is tested against.  The six arrangement conditions read from
the Jacobian of f itself, in the original coordinates, are what the
package's report from the moved Jacobian is tested against, and the basis
run of the moved Jacobian, which the package makes only for an
arrangement whose lattice does not certify its closed form, is what that
closed form is tested against, as the peel read from determinants of
normals is what the package's certificate, the lines through its points
of three or more lines, is tested against.  The character
scanner (one peek per character class, whitespace skipped on every peek) is
what the package's token-regex parser is tested against.  A box search for
a socle monomial is what the staircase test of a saturated monomial ideal
is tested against.  The Hilbert functions of R/in(I) and R/in(I^sat),
differenced in every degree up to the Taylor bound, are what the package's
cuts of the staircase of in(I) count H0 against, and the Hilbert
polynomials compared by their values at 0, 1, 2 are what its certificate,
a finite excess of in(J) over in(I), is tested against.  The restriction
of the generators to z = 0, with a gcd over Q of the forms left, decides
whether that line misses V(I), and so whether the colon by a power of z
passes the certificate; the package no longer runs it.  The Hilbert
functions of R/I and R/I^sat by ranks, on I and on the reference
saturation, are what regularity_report's e, H0, H1 and regularity are
tested against.  The reducer that strips the content after every step is
what the package's _reduce, which strips only as the head's bits double,
is tested against, result for result and run for run.  The column walk,
one z-run per column of a staircase, is what the box counts of the
engine's walk and of H0's pass are tested against; it is also the one
weighted Hilbert function here (the package's engine counts only under
(1, 1, 1)), which graded_dimension, der_log0_graded_dimension and the
Fraction H0 degrees read, with lcm_degree.  degree_data builds degree data
from a {degree: dimension} dict, which the package never does.  The
--weights value read part by part by Fraction after a strip is what the
command line's reader, which hands the parts to WeightSystem, is tested
against.
"""

import heapq
from bisect import bisect_right
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement, count,
                       product)
from math import gcd, lcm
from operator import add, mul

from bs3 import arrangement, groebner, linalg
from bs3.arrangement import ConditionReport, is_formal
from bs3.graded import (STANDARD, DegreeData, h0_degree_data,
                        regularity_report)
from bs3.groebner import (Ideal, _add_corner, _budget, _excess_degrees,
                          _from_int_poly, _int_terms, _int_triple,
                          _s_poly_int, _scaling_steps, _staircase,
                          _strip_content, buchberger,
                          saturated_leading_monomials)
from bs3.milnor import _weighted_degree, jacobian_ideal
from bs3.polyring import (ParseError, Polynomial, PreconditionError,
                          WeightSystem, grevlex_key, parse_polynomial, wdeg)

# -- the two degree-9 arrangements that differ only in the non-lattice root

ZIEGLER_F = "x,y,z,x+3z,x+y+z,x+2y+3z,2x+y+z,2x+3y+z,2x+3y+4z"
ZIEGLER_G = "x,y,z,x+5z,x+y+z,x+3y+5z,2x+y+z,2x+3y+z,2x+3y+4z"

H0_F = {8: 1, 9: 4, 10: 6, 11: 6, 12: 4, 13: 1}
H0_G = {9: 4, 10: 6, 11: 6, 12: 4}

# witness dimensions: sheaf degree e, Milnor algebra at twists 13 and 8,
# degree-0 logarithmic derivations at twist 7, section counts at twist 8
ZIEGLER_WITNESS_F = {
    "sheaf_dim_e": 42,
    "milnor_dim_2d_minus_5": 43,
    "milnor_dim_d_minus_1": 42,
    "h0_dim_d_minus_1": 1,
    "h0_dim_2d_minus_5": 1,
    "der_log0_dim_d_minus_2": 24,
    "binom_d_plus_1_2_minus_3": 42,
    "sections_twist_d_minus_1": 65,
    "sections_bound_twist_d_minus_1": 66,
    "regularity": 13,
    "regularity_target": 13,
}
ZIEGLER_WITNESS_G = {
    "sheaf_dim_e": 42,
    "milnor_dim_2d_minus_5": 42,
    "milnor_dim_d_minus_1": 42,
    "h0_dim_d_minus_1": 0,
    "h0_dim_2d_minus_5": 0,
    "der_log0_dim_d_minus_2": 24,
    "binom_d_plus_1_2_minus_3": 42,
    "sections_twist_d_minus_1": 66,
    "sections_bound_twist_d_minus_1": 66,
    "regularity": 12,
    "regularity_target": 13,
}

FULL_F = frozenset(Fraction(-k, 9) for k in range(3, 17))
FULL_G = frozenset(Fraction(-k, 9) for k in range(3, 16))
NON_COMB_ROOT_D9 = Fraction(-16, 9)

# multiplicity -> number of singular points (both arrangements)
ZIEGLER_POINT_PROFILE = {2: 18, 3: 6}

GENERIC4 = "x,y,z,x+y+z"
GENERIC5 = "x,y,z,x+y+z,x+2y+3z"
GENERIC6 = "x,y,z,x+y+z,x+2y+3z,x+4y+5z"
BRAID = "x,y,z,x-y,x-z,y-z"
# two triple points, (0:0:1) and (1:-1:0): the least degree that is not
# generic
TWOTRIPLES5 = "x,y,x+y,z,x+y+z"

def walther_generic_set(d):
    return frozenset(Fraction(-j, d) for j in range(3, 2 * d - 1)) | {
        Fraction(-1)}

# -- tuple monomials ------------------------------------------------------

def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True if monomial a divides monomial b."""
    return all(i <= j for i, j in zip(a, b))


def mono_div(a, b):
    """a / b, assuming b divides a."""
    return tuple(i - j for i, j in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(i, j) for i, j in zip(a, b))


def order_key(pk, m):
    """Sort key of a tuple monomial under the order of the packing pk, lex
    on the first pk.lead exponents, then grevlex: larger key = larger
    monomial."""
    return (tuple(m[:pk.lead]), grevlex_key(m[pk.lead:]))


# -- Polynomials, sums and products ----------------------------------------

def linear_polynomial(vector):
    """The linear form with the coefficient vector, as a Polynomial."""
    return Polynomial(dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), vector)), 3)


def poly_add(p, q):
    """p + q, for Polynomials in one ring."""
    out = dict(p.terms)
    for m, c in q.terms.items():
        out[m] = out.get(m, 0) + c
    return Polynomial(out, p.variable_count)


def poly_mul(*factors):
    """The product of Polynomials in one ring, left to right: each term of
    the product so far times each term of the next factor, added in as it
    comes and dropped when its sum cancels."""
    f = factors[0]
    for g in factors[1:]:
        out = {}
        for (m1, c1), (m2, c2) in product(f.terms.items(), g.terms.items()):
            m = mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
        f = Polynomial(out, f.variable_count)
    return f


# -- independent exact linear algebra -------------------------------------

def rref_rank(rows):
    """Row rank by textbook Gaussian elimination over Fraction."""
    work = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = work[rank][col]
        work[rank] = [x / inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                c = work[r][col]
                work[r] = [a - c * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def monomials_of_degree(q, nvars=3):
    if q < 0:
        return []
    out = []
    for combo in combinations_with_replacement(range(nvars), q):
        expo = [0] * nvars
        for i in combo:
            expo[i] += 1
        out.append(tuple(expo))
    return sorted(out)


def _multiples_matrix(gens, q):
    nvars = gens[0].variable_count if gens else 3
    target = monomials_of_degree(q, nvars)
    index = {m: i for i, m in enumerate(target)}
    rows = []
    for g in gens:
        gdeg = max(sum(m) for m in g.terms)
        if gdeg > q:
            continue
        for shift in monomials_of_degree(q - gdeg, nvars):
            row = [Fraction(0)] * len(target)
            for mono, coeff in g.terms.items():
                lifted = tuple(a + b for a, b in zip(mono, shift))
                row[index[lifted]] = coeff
            rows.append(row)
    return rows, target, index


def in_ideal_graded(p, gens, q):
    """Membership test for homogeneous p of degree q via augmented rank."""
    gens = [g for g in gens if g.terms]
    rows, target, index = _multiples_matrix(gens, q)
    base = rref_rank(rows) if rows else 0
    row = [Fraction(0)] * len(target)
    for mono, coeff in p.terms.items():
        row[index[mono]] = coeff
    return rref_rank(rows + [row]) == base


# -- the rank route for weighted graded dimensions ------------------------

def weighted_monomials(w, q, variable_count=3):
    """All exponent tuples with weighted degree exactly q, in a fixed order."""
    W, L = w.scaled, w.denominator
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


def rank_route_dimension(ideal, w, q):
    """dim (R/I)_q for a weighted-homogeneous ideal, as the number of
    monomials of degree q minus the rank of the generator multiples."""
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


# -- one graded dimension at a time, by standard monomials ----------------

def graded_dimension(gb, w, q):
    """dim of (R/I)_q for a weighted-homogeneous ideal with Groebner basis
    gb, by counting standard monomials; 0 when q < 0 or q*w.denominator is
    not an int.  The ideal is homogeneous when every element of gb is,
    and otherwise exactly when its reduced basis is (a minimal basis keeps
    its generators as given), which is then checked."""
    W = w.scaled
    if gb.packing.n != 3 or len(W) != 3:
        raise PreconditionError("graded dimension needs 3 variables and 3 "
                                "weights")
    def homogeneous(g):
        return len({sum(map(mul, W, m)) for m in g.terms}) <= 1

    if not all(map(homogeneous, gb.elements)):
        for g in reduced_basis(gb):
            if not homogeneous(g):
                raise PreconditionError("basis element %s is not homogeneous"
                                        " for the given weights" % g)
    k = Fraction(q) * w.denominator
    if k.denominator != 1 or k < 0:
        return 0
    return hilbert_function_by_columns(gb.leading_monomials, int(k), W)[-1]


def der_log0_graded_dimension(f, w, k):
    """dim of the degree-k piece of the derivations annihilating f: the
    kernel of (a1,a2,a3) -> sum a_i * (d_i f) with a_i in R_{k+w_i}, whose
    image is the degree k+wdeg(f) piece of the Jacobian ideal.  Degrees are
    scaled by the weights' denominator L, so the domain's degrees K + W_i
    and the image's K + D are ints; dim R_t is read from one column walk on
    the zero ideal, M = ()."""
    d = _weighted_degree(f, w)
    gb = buchberger(jacobian_ideal(f))
    K = Fraction(k) * w.denominator
    if K.denominator != 1:
        return 0  # no monomial has a degree off the 1/L grid
    K, D, W = int(K), int(d * w.denominator), w.scaled
    top = K + max(D, *W)
    if top < 0:
        return 0
    dim_r = hilbert_function_by_columns((), top, W)
    domain = sum(dim_r[K + v] for v in W if K + v >= 0)
    if domain == 0 or K + D < 0:
        return domain
    image = (dim_r[K + D] - hilbert_function_by_columns(
        gb.leading_monomials, K + D, W)[-1])
    return domain - image


def der_log0_kernel_dimension_by_rank(f, w, k):
    """dim of the degree-k derivations annihilating f, via an explicit
    kernel matrix; independent of any Groebner basis."""
    d = wdeg(f, w)
    if d is None:
        raise PreconditionError("polynomial is not quasi-homogeneous")
    k = Fraction(k)
    n = f.variable_count
    partials = [partial_derivative(f, i + 1) for i in range(n)]
    target = weighted_monomials(w, k + d, n)
    index = {m: i for i, m in enumerate(target)}
    columns = []
    for i, wi in enumerate(w.scaled):
        for m in weighted_monomials(w, k + Fraction(wi, w.denominator), n):
            col = [0] * len(target)
            for pm, c in partials[i].terms.items():
                col[index[mono_mul(m, pm)]] = c
            columns.append(col)
    if not columns:
        return 0
    return len(columns) - linalg.rank(columns)


# -- reference saturation --------------------------------------------------

def block_basis(ideal, lead):
    """The minimal Groebner basis of the ideal under the block order that
    compares its first `lead` variables lexicographically and breaks ties
    by grevlex on the others: the package's loop under that packing, as
    groebner._weighted_colon runs it."""
    pk = groebner._packing(ideal.variable_count, lead)
    triples = [to_int_poly(g, pk) for g in ideal.generators]
    raw, tail, boxes = groebner._buchberger_int(triples, pk, _budget())
    return groebner.GroebnerBasis(pk, groebner._minimal(raw, pk), tail,
                                  boxes)


def eliminate(ideal, drop_count):
    """Intersect with the subring omitting the first drop_count variables.

    The result's generators are a graded-reverse-lex Groebner basis of
    the elimination ideal, viewed in the smaller ring: the monic elements
    of the minimal block basis whose leading monomial is free of the
    dropped variables.  The block order compares those variables first,
    so such an element is free of them throughout, and on the monomials
    free of them the block order is grevlex.
    """
    n = ideal.variable_count
    if not 0 < drop_count < n:
        raise ValueError("drop_count must be strictly between 0 and n")
    kept = []
    for p in block_basis(ideal, drop_count).elements:
        if not any(any(m[:drop_count]) for m in p.terms):
            kept.append(Polynomial({m[drop_count:]: c
                                    for m, c in p.terms.items()},
                                   n - drop_count))
    return Ideal(kept, n - drop_count)


def _lift_poly(p, power=0, scale=1):
    """scale * t^power * p, in the ring with a new first variable t."""
    return Polynomial({(power,) + m: scale * c for m, c in p.terms.items()},
                      p.variable_count + 1)


def _localized(ideal, g):
    """(I, t*g - 1) in the ring with a new first variable t."""
    n = ideal.variable_count
    lifted = [_lift_poly(f) for f in ideal.generators]
    lifted.append(Polynomial({**_lift_poly(g, 1).terms, (0,) * (n + 1): -1},
                             n + 1))
    return Ideal(lifted, n + 1)


def saturate_by_poly(ideal, g):
    """I : g^infinity via the extra-variable localization trick:
    adjoin t, add t*g - 1, eliminate t."""
    if g.is_zero():
        raise PreconditionError("cannot saturate by the zero polynomial")
    n = ideal.variable_count
    if ideal.is_zero():
        return Ideal((), n)
    return eliminate(_localized(ideal, g), 1)


def ideal_intersection(I, J):
    """I intersect J via t*I + (1-t)*J and elimination of t."""
    if I.variable_count != J.variable_count:
        raise ValueError("mixed variable counts")
    n = I.variable_count
    if I.is_zero() or J.is_zero():
        return Ideal((), n)
    gens = [_lift_poly(f, 1) for f in I.generators]
    gens += [Polynomial({**_lift_poly(g).terms, **_lift_poly(g, 1, -1).terms},
                        n + 1) for g in J.generators]
    return eliminate(Ideal(gens, n + 1), 1)


def saturation_by_columns(ideal):
    """I : (x, y, z)^infinity as the intersection of the three
    single-variable saturations I : x_i^infinity, each by elimination: the
    reference route, sharing no step with the certified colon."""
    meet = None
    for v in range(3):
        col = saturate_by_poly(ideal, parse_polynomial("xyz"[v]))
        meet = col if meet is None else ideal_intersection(meet, col)
    return meet


def regularity_by_ranks(ideal):
    """((h0_max, h1_max, regularity, e), H0, [HF(R/I^sat)_t]) under the
    standard grading, t = 0..deg lcm(in I) + 2, with no saturation or
    regularity reading of the package: HF(R/I) and HF(R/I^sat) by
    rank_route_dimension on I and on saturation_by_columns(I), H0 their
    difference.  The lcm of in(I^sat) divides that of in(I), so HF(R/I^sat)
    is its Hilbert polynomial from deg lcm(in I) - 2 on, and three equal
    values there make it the constant e; any other is refused as the
    package refuses it.  H1 is e - HF(R/I^sat), and the regularity is the
    largest of h0_max, h1_max + 1 and 0."""
    top = lcm_degree(buchberger(ideal).leading_monomials) + 2
    sat = saturation_by_columns(ideal)
    hf_i, hf = ([rank_route_dimension(J, STANDARD, t) for t in range(top + 1)]
                for J in (ideal, sat))
    if not hf[-3] == hf[-2] == hf[-1]:
        raise PreconditionError("Hilbert polynomial of R/I^sat is not "
                                "constant")
    e = hf[-1]
    h0 = {t: a - b for t, (a, b) in enumerate(zip(hf_i, hf)) if a != b}
    h0_max = max(h0, default=None)
    h1_max = max((t for t, v in enumerate(hf) if v < e), default=-1) \
        if e else None
    regularity = max(h0_max or 0, h1_max + 1 if e else 0)
    return (h0_max, h1_max, regularity, e), degree_data(h0), hf


# -- the line z = 0 against V(I), by restriction ----------------------------

def _gcd_over_q(f, g):
    """A gcd over Q of two coefficient lists (lowest first, no trailing
    zero), by Euclid on Fraction remainders."""
    while g:
        f = [Fraction(v) for v in f]
        while len(f) >= len(g):
            q, shift = f[-1] / g[-1], len(f) - len(g)
            for i, v in enumerate(g):
                f[shift + i] -= q * v
            while f and f[-1] == 0:
                f.pop()
        f, g = g, f
    return f


def misses_z_zero(ideal):
    """The line z = 0 of weighted P^2 misses V(I), for I graded by positive
    weights: the generators restricted to z = 0, forms in x and y, have no
    common zero, neither at (1:0), where each would lose its x-power term,
    nor in the chart y = 1, where their gcd over Q would be nonconstant."""
    common, at_x = [], False
    for g in ideal.generators:
        restricted = {}  # x-exponent -> coefficient, z = 0 and y = 1
        for (a, b, k), v in g.terms.items():
            if not k:
                restricted[a] = restricted.get(a, 0) + v
                at_x = at_x or not b
        form = [restricted.get(a, 0) for a in range(max(restricted,
                                                        default=-1) + 1)]
        while form and form[-1] == 0:
            form.pop()
        common = _gcd_over_q(common, form)
    return at_x and len(common) == 1


# -- the Hilbert-polynomial certificate by its values at 0, 1, 2 -----------

def same_hilbert_polynomial_at_0_1_2(lms_a, lms_b):
    """R/(lms_a) and R/(lms_b) have the same Hilbert polynomial, compared by
    its values at t = 0, 1, 2, which determine it: each is carried back
    from the Hilbert function at s, s + 1, s + 2, s = max(deg lcm - 2, 0),
    by Newton's forward differences."""
    def at_0_1_2(lms):
        s = max(lcm_degree(lms) - 2, 0)
        v, w, u = hilbert_function(lms, s + 2)[s:]
        d1, d2 = w - v, u - 2 * w + v
        return [v + k * d1 + k * (k - 1) // 2 * d2
                for k in (t - s for t in range(3))]
    return at_0_1_2(lms_a) == at_0_1_2(lms_b)


# -- the Hilbert function column by column ----------------------------------

def hilbert_function(lead_monomials, top):
    """[dim (R/M)_t for t = 0..top] under the standard grading, at any
    top: the staircase of M (groebner._staircase) counted by degree up to
    top (groebner._excess_degrees), which drops every box corner past top.
    The package reads the same count only as far as a tail
    (groebner._hilbert_tail)."""
    return _excess_degrees(_staircase(lead_monomials), (1, 1, 1), top)


def hilbert_function_by_columns(lead_monomials, top, weights=(1, 1, 1)):
    """[dim (R/M)_t for t = 0..top] by a walk over every column (a, b) of
    the staircase: the corners of row a kept as the engine keeps them
    (groebner._add_corner), low(a, b) read off them by a bisect, and the
    column's z-powers below it entered as one run, two entries of a
    difference array of stride w_z summed by one pass.  Row a holds the
    columns of degree at most top, and none from a z-free last corner on."""
    wx, wy, wz = weights
    gens = sorted(lead_monomials)
    unbounded = top // wz + 1
    corner_b, corner_c = [], []
    values = [0] * max(top + 1, 0)
    i = 0
    for a in count():
        while i < len(gens) and gens[i][0] <= a:
            _add_corner(corner_b, corner_c, gens[i])
            i += 1
        span = (top - a * wx) // wy + 1
        if corner_c and not corner_c[-1]:
            span = min(span, corner_b[-1])
        if span <= 0:
            break
        for b in range(span):
            j = bisect_right(corner_b, b)
            low = corner_c[j - 1] if j else unbounded
            s = a * wx + b * wy
            values[s] += 1
            if s + low * wz <= top:
                values[s + low * wz] -= 1
    for t in range(wz, top + 1):
        values[t] += values[t - wz]
    return values


def box_monomials(boxes, cut):
    """The monomials x^a y^b z^c of the boxes (a0, a1, b0, b1, c0, c1)
    with every exponent below cut, one entry per box that holds one: so
    boxes are disjoint exactly when no entry repeats."""
    return [(a, b, c) for a0, a1, b0, b1, c0, c1 in boxes
            for a in range(a0, min(a1, cut)) for b in range(b0, min(b1, cut))
            for c in range(c0, min(c1, cut))]


def z_colon_excess_by_division(ideal):
    """The boxes of the monomials of in(I) : z^infinity outside in(I), or
    None when they are infinitely many, for a standard-homogeneous I: the
    basis of I divided by z (groebner._saturate_by_z, Bayer-Stillman), the
    route by which the saturation once computed its colon by z, cut out
    of the staircase of in(I) by the certificate (groebner._saturation_excess).
    The package reads the same colon off the boxes of in(I)
    (groebner._z_colon_excess)."""
    gb = buchberger(ideal)
    return groebner._saturation_excess(gb.leading_monomials, gb._boxes,
                                       groebner._saturate_by_z(gb))


def lcm_degree(lead_monomials, weights=(1, 1, 1)):
    """Weighted degree of the lcm of the monomials."""
    return sum(w * max((m[i] for m in lead_monomials), default=0)
               for i, w in enumerate(weights))


# -- --weights over Fraction ------------------------------------------------

def weights_by_fractions(text):
    """The WeightSystem of a --weights value, each of its three
    comma-separated parts stripped and read by Fraction; a part Fraction
    cannot read is a ParseError, and a weight that is not positive a
    PreconditionError from WeightSystem."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError("expected three comma-separated weights", 0)
    try:
        values = [Fraction(p.strip()) for p in parts]
    except (ValueError, ZeroDivisionError):
        raise ParseError("malformed weight in %r" % text, 0)
    return WeightSystem(values)


# -- saturated monomial ideals by a box search -------------------------------

def socle_monomial_by_box(lms):
    """A monomial u outside M = (lms) with x*u, y*u and z*u in M, so that
    M : (x, y, z) != M, or None.  Each exponent u_i of such a u is below
    some generator's i-th exponent, or a generator dividing x_i*u would
    divide u, so every monomial of the box [0, top)^3 is tried, top the
    largest exponent of the generators."""
    top = max((max(m) for m in lms), default=0)
    for u in product(range(top), repeat=3):
        if (not any(mono_divides(m, u) for m in lms)
                and all(any(mono_divides(m, mono_mul(u, e)) for m in lms)
                        for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))):
            return u
    return None


# -- degree data from a {degree: dimension} dict ---------------------------

def degree_data(entries):
    """The DegreeData of a dict from degrees, Fractions or ints, to
    dimensions, over the least common denominator of the degrees; zero
    dimensions are dropped and a negative one is a ValueError."""
    L = lcm(*(q.denominator for q in entries))
    pairs = sorted((int(q * L), d) for q, d in entries.items() if d)
    if any(d < 0 for _, d in pairs):
        raise ValueError("negative dimension in degree data")
    return DegreeData._over(L, dict(pairs))


# -- Milnor algebra degrees by the staircase box ---------------------------

def _artinian_degree_data(gb, w, n=3):
    """Degree data of R/I for Artinian I, every standard monomial below the
    pure powers of the reduced basis gb enumerated and graded by w."""
    lms = gb.leading_monomials
    bounds = []
    for i in range(n):
        pure = [m[i] for m in lms
                if m[i] > 0 and all(m[j] == 0 for j in range(n) if j != i)]
        bounds.append(min(pure))
    entries = {}
    for e in product(*(range(b) for b in bounds)):
        if any(mono_divides(lm, e) for lm in lms):
            continue
        q = Fraction(sum(map(mul, e, w.scaled)), w.denominator)
        entries[q] = entries.get(q, 0) + 1
    return degree_data(entries)


# -- full reduction over Fraction ------------------------------------------

def normal_form_by_fractions(p, gb):
    """Remainder of p modulo the Groebner basis gb, every step in Fraction
    arithmetic on its monic elements: the leading term is cancelled when
    some leading monomial divides it, and moved to the remainder
    otherwise.  The remainder has no term in in(I), so it is the same for
    every Groebner basis of I."""
    return _remainder_by_fractions(
        p, gb.packing, list(zip(gb.leading_monomials, gb.elements)))


def _remainder_by_fractions(p, pk, pairs):
    """normal_form_by_fractions against (leading monomial, monic element)
    pairs in the order of the packing pk."""
    work, result = dict(p.terms), {}
    while work:
        lm = max(work, key=lambda m: order_key(pk, m))
        lc = work.pop(lm)
        hit = next(((blm, b) for blm, b in pairs if mono_divides(blm, lm)),
                   None)
        if hit is None:
            result[lm] = lc
            continue
        blm, b = hit
        q = mono_div(lm, blm)
        for bm, bv in b.terms.items():
            if bm == blm:
                continue
            mm = mono_mul(bm, q)
            work[mm] = work.get(mm, Fraction(0)) - lc * bv
            if work[mm] == 0:
                del work[mm]
    return Polynomial(result, p.variable_count)


def reduced_basis(gb):
    """The reduced Groebner basis of the ideal that gb, a minimal basis
    sorted by increasing leading monomial, is a Groebner basis of: monic,
    in gb's order, each element's tail replaced by its normal form against
    the reduced elements before it (_remainder_by_fractions).  A leading
    monomial that divides a term of the tail is smaller than that term, so
    those elements reduce it to its normal form, and the reduced element is
    the one of the reduced basis with that leading monomial."""
    pk, n = gb.packing, gb.packing.n
    done = []
    for m, g in zip(gb.leading_monomials, gb.elements):
        tail = Polynomial({k: v for k, v in g.terms.items() if k != m}, n)
        nf = _remainder_by_fractions(tail, pk, done)
        done.append((m, Polynomial({m: 1, **nf.terms}, n)))
    return tuple(g for _, g in done)


def s_polynomial(f, g, pk):
    """S-polynomial of two rational polynomials, by the package's integer
    S-polynomial under the packing pk."""
    f, g = to_int_poly(f, pk), to_int_poly(g, pk)
    lcm = pk.lcm(f[0], g[0])
    if lcm & pk.guard:
        raise groebner._too_large()
    return _from_int_poly(_s_poly_int(f, g, lcm, pk, _budget()), pk)


def reduce_stripping_every_step(d, basis, pk, budget):
    """groebner._reduce with the content stripped after every step, not
    only as the head's bits double: each step is charged by the words of
    the stripped head it cancels.  The remainder is returned as the last
    step left it, primitive when d is."""
    G = pk.guard
    work = dict(d)
    while work:
        lm = max(work)
        lg = lm | G
        for hit in basis:
            if (lg - hit[0]) & G == G:
                break
        else:
            return work
        blm, blc, bterms = hit
        budget.spend(_scaling_steps(work[lm], blc))
        g = gcd(work[lm], blc)
        a, c = blc // g, work[lm] // g
        work = {m: a * v for m, v in work.items()}
        q = lm - blm
        for bm, bv in bterms.items():
            mm = bm + q
            if mm & G:
                raise groebner._too_large()
            s = work.get(mm, 0) - c * bv
            if s:
                work[mm] = s
            else:
                del work[mm]
        work = _strip_content(work)
    return work


# -- Buchberger's loop by the chain criterion ------------------------------

def buchberger_by_chain_criterion(triples, pk, budget, tail=None):
    """Buchberger's loop on (lm, lc, dict) triples, taking pairs by least
    degree, then least lcm: a pair of coprime leading monomials is never
    formed (product criterion), and a pair is skipped when some third
    element's leading monomial divides its lcm and forms a different lcm
    with each of the pair's (chain criterion), scanned over the whole basis
    when the pair is taken.  It runs where groebner._buchberger_int does,
    with the same contract; it reduces every such pair, so it ignores a
    proven Hilbert tail, which only skips pairs that reduce to 0, and
    hands over no tail or boxes of its own."""
    G = pk.guard
    lcm_of = pk.lcm
    basis = list(triples)
    heap = []

    def push_pairs(t):
        b = basis[t][0]
        for i in range(t):
            a = basis[i][0]
            lcm = lcm_of(a, b)
            if lcm == a + b:
                continue
            if lcm & G:
                raise groebner._too_large()
            heapq.heappush(heap, (pk.degree(lcm), lcm, i, t))

    for t in range(1, len(basis)):
        push_pairs(t)
    while heap:
        _, lcm, i, j = heapq.heappop(heap)
        lg = lcm | G
        a, b = basis[i][0], basis[j][0]
        if any((lg - m) & G == G and lcm_of(a, m) != lcm
               and lcm_of(b, m) != lcm
               for k, (m, _, _) in enumerate(basis) if k != i and k != j):
            continue
        r = groebner._reduce(
            groebner._s_poly_int(basis[i], basis[j], lcm, pk, budget), basis,
            pk, budget)
        if r:
            basis.append(groebner._int_triple(r))
            push_pairs(len(basis) - 1)
    return basis, None, None


# -- decomposability by every bipartition ----------------------------------

def decomposable_by_bitmask(forms):
    """Some split of the normals into two nonempty blocks has rank sum 3,
    tried over all 2^(d-1) bipartitions (use for d <= 9)."""
    normals = [list(f.coefficients) for f in forms]
    d = len(normals)
    for mask in range(1, 1 << (d - 1)):
        left = [normals[i] for i in range(d) if mask >> i & 1]
        right = [normals[i] for i in range(d) if not mask >> i & 1]
        if rref_rank(left) + rref_rank(right) == 3:
            return True
    return False


def indecomposable_by_lattice(lattice, d):
    """No intersection point of the lattice lies on exactly d - 1 of the d
    reduced essential forms: the lattice reading of indecomposability that
    bs3.arrangement._indecomposable replaced by three candidate points."""
    return all(len(lines) != d - 1 for lines in lattice.values())


# -- the intersection lattice over Fraction ----------------------------------

def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def lattice_by_fractions(forms):
    """Each intersection point of the forms, the cross product of two lead-1
    rational normals scaled so its first nonzero coordinate is 1, mapped to
    the sorted indices of the forms through it; in ascending point order."""
    through = {}
    for i, j in combinations(range(len(forms)), 2):
        p = _cross(forms[i].coefficients, forms[j].coefficients)
        lead = next(c for c in p if c != 0)
        point = tuple(c / lead for c in p)
        through.setdefault(point, set()).update((i, j))
    return {pt: sorted(lines) for pt, lines in sorted(through.items())}


def linear_form_by_polynomial(text):
    """(normal, coefficients, printed form) of the linear form the text
    writes: parsed to a Polynomial, each coefficient divided by the first
    nonzero one as a Fraction, then scaled by the lcm of the denominators.
    Raises what LinearForm.parse raises on a text that is not one."""
    coeffs = [Fraction(0)] * 3
    for m, c in parse_polynomial(text).terms.items():
        if sum(m) != 1:
            raise PreconditionError(
                "%r is not a homogeneous linear form" % text)
        coeffs[m.index(1)] = Fraction(c)
    lead = next((c for c in coeffs if c != 0), None)
    if lead is None:
        raise PreconditionError("zero linear form")
    coefficients = tuple(c / lead for c in coeffs)
    scale = lcm(*(c.denominator for c in coefficients))
    normal = tuple(c.numerator * (scale // c.denominator)
                   for c in coefficients)
    return normal, coefficients, str(linear_polynomial(coefficients))


def form_product_by_polynomials(vectors):
    """The product of the linear forms with the given coefficient vectors,
    one Polynomial product per factor; each term product is one step."""
    budget = _budget()
    f = Polynomial({(0, 0, 0): 1}, 3)
    for vector in vectors:
        p = linear_polynomial(vector)
        budget.spend(len(f.terms) * len(p.terms))
        f = poly_mul(f, p)
    return f


# -- Jacobians by Polynomials -------------------------------------------------

def form_product(vectors):
    """The product of the linear forms with the given coefficient vectors
    (ints or Fractions) as one Polynomial, the terms multiplied as numbers
    in one dict, factor by factor: each product of a term with a
    coefficient is added in as it comes and dropped when its sum cancels.
    Each term product is one step."""
    budget = _budget()
    terms = {(0, 0, 0): 1}
    for vector in vectors:
        a, b, c = vector
        budget.spend(len(terms) * ((a != 0) + (b != 0) + (c != 0)))
        out = {}
        for (i, j, k), u in terms.items():
            for key, v in (((i + 1, j, k), a), ((i, j + 1, k), b),
                           ((i, j, k + 1), c)):
                if v:
                    s = out.get(key, 0) + u * v
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        terms = out
    return Polynomial(terms, 3)


def to_int_poly(p, pk):
    """Polynomial -> (lead mono, lead coeff, primitive int dict), lead > 0,
    under the packing pk."""
    return _int_triple({pk.pack(m): v for m, v in _int_terms(p)[0].items()})


def partial_derivative(p, i):
    """Formal partial of the Polynomial p with respect to the i-th
    variable, 1-based."""
    if not 1 <= i <= p.variable_count:
        raise PreconditionError("variable index %d out of range" % i)
    out = {}
    j = i - 1
    for m, c in p.terms.items():
        if m[j] == 0:
            continue
        mm = list(m)
        mm[j] -= 1
        out[tuple(mm)] = c * m[j]
    return Polynomial(out, p.variable_count)


def jacobian_by_polynomials(f):
    """The nonzero partials of the Polynomial f by partial_derivative, and
    their triples under the grevlex packing by to_int_poly: the route from
    a polynomial to the triples a basis run starts from that the package's
    packed Jacobian replaced."""
    partials = [p for p in (partial_derivative(f, i) for i in (1, 2, 3))
                if not p.is_zero()]
    pk = groebner._packing(3)
    return partials, [to_int_poly(p, pk) for p in partials]


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_int(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def take_var(self):
        self.skip_ws()
        ch = self.peek()
        if ch not in ("x", "y", "z"):
            raise ParseError("expected a variable", self.pos)
        self.pos += 1
        if ch == "x" and self.pos < len(self.text) and self.text[self.pos] in "123":
            self.pos += 1
            return int(self.text[self.pos - 1]) - 1
        return {"x": 0, "y": 1, "z": 2}[ch]


def parse_terms_by_characters(text):
    """The terms of the text as {exponent tuple: int or Fraction}, each
    coefficient the sum over the terms with that monomial, 0 when they
    cancel."""
    toks = _Tokens(text)
    terms = {}
    sign = 1
    if toks.peek() == "-":
        toks.pos += 1
        sign = -1
    elif toks.peek() == "+":
        raise ParseError("unexpected '+'", toks.pos)
    while True:
        exponents, coeff = _parse_term(toks)
        terms[exponents] = terms.get(exponents, 0) + sign * coeff
        ch = toks.peek()
        if ch is None:
            return terms
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            raise ParseError("expected '+' or '-'", toks.pos)
        toks.pos += 1
        if toks.peek() in ("+", "-", None):
            raise ParseError("expected a term", toks.pos)


def _parse_term(toks):
    """One term as (exponent tuple, int or Fraction coefficient)."""
    ch = toks.peek()
    if ch is None:
        raise ParseError("expected a term", toks.pos)
    coeff = 1
    have_coeff = False
    if ch.isdigit():
        num = toks.take_int()
        if toks.peek() == "/":
            toks.pos += 1
            denpos = toks.pos
            den = toks.take_int()
            if den == 0:
                raise ParseError("zero denominator", denpos)
            coeff = Fraction(num, den)
        else:
            coeff = num
        have_coeff = True
        if toks.peek() == "*":
            toks.pos += 1
            if toks.peek() is None or toks.peek() not in "xyz":
                raise ParseError("expected a variable after '*'", toks.pos)
    exponents = [0, 0, 0]
    saw_var = False
    while toks.peek() in ("x", "y", "z"):
        idx = toks.take_var()
        e = 1
        if toks.peek() == "^":
            toks.pos += 1
            e = toks.take_int()
        exponents[idx] += e
        saw_var = True
        if toks.peek() == "*":
            nxt = toks.text[toks.pos + 1:].lstrip()[:1]
            if nxt in ("x", "y", "z"):
                toks.pos += 1
            else:
                break
    if not saw_var and not have_coeff:
        raise ParseError("expected a term", toks.pos)
    return tuple(exponents), coeff


def length3_relations_by_triples(forms):
    """One relation vector per concurrent triple of forms, C(m, 3) of them
    at a point on m lines, from the adjugate of the 3 x 3 matrix of the
    lead-1 rational coefficients (the first nonzero column of it)."""
    relations = []
    for lines in lattice_by_fractions(forms).values():
        for idx in combinations(lines, 3):
            n0, n1, n2 = (forms[i].coefficients for i in idx)
            adj = (_cross(n1, n2), _cross(n2, n0), _cross(n0, n1))
            rel = next(col for col in zip(*adj) if any(col))
            vec = [0] * len(forms)
            for pos, v in zip(idx, rel):
                vec[pos] = v
            relations.append(vec)
    return relations


# -- the six conditions in the original coordinates -------------------------

def condition_report_in_original_coordinates(arr):
    """The ConditionReport read from the Jacobian ideal of the product of
    the normalized forms itself.  Its saturation certifies the first line
    z + c*x + c^2*y that misses the singular points, with a second
    Buchberger run in the coordinates where that line is z when c != 0,
    and the Milnor and derivation dimensions come from graded_dimension
    and der_log0_graded_dimension on that f.  The package reads the same
    numbers from one basis in the moved coordinates; this is the route it
    replaced."""
    d = arr.degree
    f = arr.defining_polynomial()
    jac = jacobian_ideal(f)
    gb = buchberger(jac)
    reg = regularity_report(jac)
    h0 = reg.h0
    e = reg.sheaf_dim_e
    h0_d1 = h0.dimension(d - 1)
    h0_2d5 = h0.dimension(2 * d - 5)
    milnor_d1 = graded_dimension(gb, STANDARD, d - 1)
    milnor_2d5 = graded_dimension(gb, STANDARD, 2 * d - 5)
    der0 = der_log0_graded_dimension(f, STANDARD, d - 2)
    binom = (d + 1) * d // 2 - 3
    sections_d1 = milnor_d1 - h0_d1 + der0
    witness = {
        "sheaf_dim_e": e,
        "milnor_dim_2d_minus_5": milnor_2d5,
        "milnor_dim_d_minus_1": milnor_d1,
        "h0_dim_d_minus_1": h0_d1,
        "h0_dim_2d_minus_5": h0_2d5,
        "der_log0_dim_d_minus_2": der0,
        "binom_d_plus_1_2_minus_3": binom,
        "sections_twist_d_minus_1": sections_d1,
        "sections_bound_twist_d_minus_1": der0 + binom,
        "regularity": reg.regularity,
        "regularity_target": 2 * d - 5,
    }
    return ConditionReport(h0_d1 > 0, h0_2d5 > 0,
                           reg.regularity == 2 * d - 5, e < milnor_2d5,
                           sections_d1 < der0 + binom,
                           not is_formal(arr), witness, h0)


# -- H0 degrees and root sets over Fraction ---------------------------------

def is_generic(arr):
    """No three of the forms through one point: every triple of normals
    has a nonzero determinant.  The package counts the points of its
    lattice instead."""
    normals = [f.normal for f in arr.forms]
    return all(sum(map(mul, a, _cross(b, c)))
               for a, b, c in combinations(normals, 3))


def reads_closed_forms(arr):
    """Whether the lattice certifies the closed form, by the peel itself:
    drop, one at a time, any line whose crossings with the lines left each
    lie on no third line left, until none can go; the lines left must be
    at most two, three through one point, or five with no four through
    one point.  Every concurrence is read from a determinant of normals,
    with no lattice.  The package reads the lines through its points of
    three or more lines instead (arrangement._peels), and reads its report
    from the closed form, with no basis run, exactly on these."""
    left = [f.normal for f in arr.forms]

    def concurrent(a, b, c):
        return not sum(map(mul, a, _cross(b, c)))

    def on_a_triple(a):
        return any(concurrent(a, b, c) for b, c in
                   combinations([n for n in left if n != a], 2))

    while (line := next((a for a in left if not on_a_triple(a)),
                        None)) is not None:
        left.remove(line)
    if len(left) <= 2:
        return True
    if len(left) == 3:
        return concurrent(*left)
    return len(left) == 5 and not any(
        concurrent(a, b, c) and concurrent(a, b, d)
        for a, b, c, d in combinations(left, 4))


def jacobian(arr):
    """The moved Jacobian ideal a request on the arrangement builds, with
    e summed over its lattice."""
    e = sum((len(lines) - 1) ** 2 for lines in arr.lattice.values())
    return arrangement._jacobian(arr, e)


def condition_report_by_the_run(arr):
    """The ConditionReport of a validated arrangement read from the basis
    run of its moved Jacobian, the source the package takes for every
    arrangement whose lattice does not certify its closed form: the oracle
    the closed form (arrangement._closed_hilbert) is checked against."""
    jac = jacobian(arr)
    h0 = h0_degree_data(jac, STANDARD)
    return arrangement._conditions(arr, jac.hilbert_tail[1],
                                   buchberger(jac).tail, h0)


def h0_entries_by_fractions(I, w):
    """{t: dim H0_t} for the degrees t = k/L with a Fraction key each: the
    Hilbert functions of R/in(I) and R/in(I^sat) under the scaled weights,
    differenced degree by degree up to the proven top."""
    W, L = w.scaled, w.denominator
    g = gcd(*W)
    _, in_sat = saturated_leading_monomials(I, tuple(v // g for v in W))
    in_i = buchberger(I).leading_monomials
    top = max(lcm_degree(in_i, W), lcm_degree(in_sat, W)) - sum(W)
    return {Fraction(k, L): a - b for k, (a, b) in
            enumerate(zip(hilbert_function_by_columns(in_i, top, W),
                          hilbert_function_by_columns(in_sat, top, W)))
            if a != b}


def fraction_root_set(roots):
    """Ascending distinct Fractions (duplicates dropped in input order, so
    monotone runs sort linearly)."""
    return tuple(sorted(dict.fromkeys(map(Fraction, roots))))


def h0_root_sets_by_fractions(entries, w, d):
    """The four root sets the H0 degrees t give, each root
    shift - (t + sum(w))/d in Fraction arithmetic: new (shift 0), blf
    (shift 2), xi (shifts 0 and 1) and isolated (shift 0, plus -1)."""
    sw = Fraction(sum(w.scaled), w.denominator)
    new = [-(t + sw) / d for t in entries]
    return {"new": fraction_root_set(new),
            "blf": fraction_root_set(r + 2 for r in new),
            "xi": fraction_root_set(new + [r + 1 for r in new]),
            "isolated": fraction_root_set(new + [-1])}


def h0_symmetric_by_fractions(entries, center):
    """The degrees pair up about center with equal dimensions."""
    return all(entries.get(center - t) == dim for t, dim in entries.items())


def tlct_by_fractions(entries, w, d, lam):
    """The twisted comparison test: -(lam - 2)*d - sum(w) is no H0
    degree."""
    sw = Fraction(sum(w.scaled), w.denominator)
    return -(Fraction(lam) - 2) * d - sw not in entries


# -- frozen text reports, without timing_ms: a weighted Brieskorn-Pham
# milnor request, a weighted roots lqh request with a non-empty H0 and
# --lct-lambda, and the arrangement Ziegler g.  They pin how every exact
# value prints (-1 as "-1", never "-1/1") and the order of every root set.

GOLDEN_REPORTS = [
    (("milnor", "--poly", "x^2+y^3+z^5", "--weights", "1/2,1/3,1/5"),
     [
         "command: milnor",
         "poly: z^5 + y^3 + x^2",
         "weights: 1/2,1/3,1/5",
         "wdeg: 1",
         "is_isolated: true",
         "h0.0: 1",
         "h0.1/5: 1",
         "h0.1/3: 1",
         "h0.2/5: 1",
         "h0.8/15: 1",
         "h0.3/5: 1",
         "h0.11/15: 1",
         "h0.14/15: 1",
         "milnor_algebra_degrees.0: 1",
         "milnor_algebra_degrees.1/5: 1",
         "milnor_algebra_degrees.1/3: 1",
         "milnor_algebra_degrees.2/5: 1",
         "milnor_algebra_degrees.8/15: 1",
         "milnor_algebra_degrees.3/5: 1",
         "milnor_algebra_degrees.11/15: 1",
         "milnor_algebra_degrees.14/15: 1",
         "milnor_number: 8",
         "new_roots: -59/30, -53/30, -49/30, -47/30, -43/30, -41/30, "
         "-37/30, -31/30",
         "blf_roots: 1/30, 7/30, 11/30, 13/30, 17/30, 19/30, 23/30, 29/30",
         "assertions[0]: reduced: asserted by caller, not verified",
         "assertions[1]: locally quasi-homogeneous: asserted by caller, "
         "not verified",
     ]),
    (("roots", "lqh", "--poly", "x^6*y*z+2*x*y^3*z+3*x*y*z^3",
      "--weights", "1/5,1/2,1/2", "--lct-lambda=-1/2"),
     [
         "command: roots lqh",
         "poly: x^6*y*z + 2*x*y^3*z + 3*x*y*z^3",
         "weights: 1/5,1/2,1/2",
         "wdeg: 11/5",
         "h0.6/5: 1",
         "h0.7/5: 1",
         "h0.8/5: 1",
         "h0.17/10: 2",
         "h0.9/5: 1",
         "h0.19/10: 2",
         "h0.2: 1",
         "h0.21/10: 2",
         "h0.11/5: 1",
         "h0.23/10: 2",
         "h0.12/5: 1",
         "h0.5/2: 2",
         "h0.13/5: 1",
         "h0.14/5: 1",
         "h0.3: 1",
         "new_roots: -21/11, -20/11, -19/11, -37/22, -18/11, -35/22, "
         "-17/11, -3/2, -16/11, -31/22, -15/11, -29/22, -14/11, -13/11, "
         "-12/11",
         "blf_roots: 1/11, 2/11, 3/11, 7/22, 4/11, 9/22, 5/11, 1/2, 6/11, "
         "13/22, 7/11, 15/22, 8/11, 9/11, 10/11",
         "small_roots: (none)",
         "xi_set: -21/11, -20/11, -19/11, -37/22, -18/11, -35/22, -17/11, "
         "-3/2, -16/11, -31/22, -15/11, -29/22, -14/11, -13/11, -12/11, "
         "-10/11, -9/11, -8/11, -15/22, -7/11, -13/22, -6/11, -1/2, -5/11, "
         "-9/22, -4/11, -7/22, -3/11, -2/11, -1/11",
         "tlct_lambda: -1/2",
         "tlct_holds: true",
         "assertions[0]: reduced: asserted by caller, not verified",
         "assertions[1]: locally quasi-homogeneous: asserted by caller, "
         "not verified",
     ]),
    (("arrangement", "--forms", ZIEGLER_G),
     [
         "command: arrangement",
         "forms: x, y, z, x + 5*z, x + y + z, x + 3*y + 5*z, x + 1/2*y + "
         "1/2*z, x + 3/2*y + 1/2*z, x + 3/2*y + 2*z",
         "degree: 9",
         "weights: 1,1,1",
         "singular_points: (0:0:1) multiplicity 2, (0:1:-3) multiplicity "
         "2, (0:1:-1) multiplicity 3, (0:1:-3/4) multiplicity 2, "
         "(0:1:-3/5) multiplicity 2, (0:1:0) multiplicity 3, (1:-6:4) "
         "multiplicity 2, (1:-9/2:5/2) multiplicity 2, (1:-2:0) "
         "multiplicity 2, (1:-2:1) multiplicity 3, (1:-9/5:-1/5) "
         "multiplicity 2, (1:-1:0) multiplicity 2, (1:-4/5:-1/5) "
         "multiplicity 2, (1:-3/4:1/4) multiplicity 2, (1:-2/3:0) "
         "multiplicity 3, (1:-3/5:-1/5) multiplicity 2, (1:-1/2:-1/2) "
         "multiplicity 2, (1:-2/5:-1/5) multiplicity 2, (1:-1/3:0) "
         "multiplicity 2, (1:0:-2) multiplicity 3, (1:0:-1) multiplicity "
         "2, (1:0:-1/2) multiplicity 2, (1:0:-1/5) multiplicity 3, (1:0:0) "
         "multiplicity 2",
         "h0.9: 4",
         "h0.10: 6",
         "h0.11: 6",
         "h0.12: 4",
         "comb_roots: -5/3, -14/9, -13/9, -4/3, -11/9, -10/9, -1, -8/9, "
         "-7/9, -2/3, -5/9, -4/9, -1/3",
         "non_comb_root: -16/9",
         "non_comb_present: false",
         "full_zero_set: -5/3, -14/9, -13/9, -4/3, -11/9, -10/9, -1, -8/9, "
         "-7/9, -2/3, -5/9, -4/9, -1/3",
         "conditions.b: false",
         "conditions.c: false",
         "conditions.d: false",
         "conditions.e: false",
         "conditions.f: false",
         "conditions.g: false",
         "conditions_consistent: true",
         "witness_dims.sheaf_dim_e: 42",
         "witness_dims.milnor_dim_2d_minus_5: 42",
         "witness_dims.milnor_dim_d_minus_1: 42",
         "witness_dims.h0_dim_d_minus_1: 0",
         "witness_dims.h0_dim_2d_minus_5: 0",
         "witness_dims.der_log0_dim_d_minus_2: 24",
         "witness_dims.binom_d_plus_1_2_minus_3: 42",
         "witness_dims.sections_twist_d_minus_1: 66",
         "witness_dims.sections_bound_twist_d_minus_1: 66",
         "witness_dims.regularity: 12",
         "witness_dims.regularity_target: 13",
         "formal: true",
         "assertions[0]: reduced: verified (pairwise distinct normalized "
         "forms)",
         "assertions[1]: central: by construction (homogeneous linear "
         "forms)",
         "assertions[2]: essential, indecomposable: verified",
         "assertions[3]: locally quasi-homogeneous: automatic for "
         "hyperplane arrangements",
     ]),
]
