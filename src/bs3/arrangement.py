"""Central essential indecomposable line arrangement pipeline.

Validates arrangements of linear forms in three variables, computes the
intersection lattice, the combinatorial root set, formality, and the six
equivalent conditions deciding whether the single candidate non-combinatorial
root (-2d+2)/d actually occurs, then assembles the full Bernstein-Sato zero
set.

The conditions are read from numbers an invertible linear change of
coordinates does not change: Hilbert function values of R/J and R/J^sat,
degrees of H0, the regularity and counts of logarithmic derivations, for J
the Jacobian ideal of f.  So condition_report builds f in an adapted basis
{p, q, r} (_adapted_normals): p and q two input normals of least height,
r = (a, b, 1) the line z + a*x + b*y through no intersection point of
least height h = max(|a|, |b|) (_free_line).  Each point rules out at most
2h + 1 pairs of the box [-h, h]^2, so h <= ceil(N/2) for N points.

Why the report cannot change.  Let B be the matrix of rows p, q, r and
(u, v, w) = B (x, y, z) the new coordinates.  det B = r.(p x q) is not 0:
p x q is the point where the lines p and q meet, and r misses every point.
A form n.(x, y, z) is n B^-1 (u, v, w), and det B * B^-1 has the columns
q x r, r x p, p x q, so the product f' of the moved integer normals
(n.(q x r), n.(r x p), n.(p x q)), each made primitive, is a nonzero
constant times f o B^-1, and its Jacobian ideal is J moved.  So every
witness keeps its value, the Hilbert tail (2d - 4, e) below holds for f',
and w = 0, the free line, misses the singular points: the saturation of J
certifies c = 0 on the one basis of J, with no second basis.  Moving only
the free line to z is the case p = x, q = y, which an arrangement
containing x and y still takes.

Why it is faster.  p goes to x and q to y, so f' = x y g: at most C(d, 2)
terms where f may have C(d + 2, 2), and sparser partials, so each
reduction step touches fewer terms and fewer steps are needed.  f' is the
product of integer normals, so its Jacobian carries int coefficients only,
and both are computed on packed monomials (_product, milnor._jacobian_of).

The one Buchberger run of J starts knowing where its Hilbert function
ends (_jacobian): HF(R/J)_t = e = sum over the points of (m_p - 1)^2 for
every t >= 2d - 4.  The proof:

* The syzygies of the three partials, each of degree d - 1, are the
  derivations that kill f: Syz(J) = D0(-(d - 1)), D0 the module of those
  derivations (der0 counts its degree d - 2 piece).  Schenck (Elementary
  modifications and line configurations in P^2, 2003) bounds
  reg D0 <= d - 2, so 0 -> D0(-(d - 1)) -> R(-(d - 1))^3 -> J -> 0 gives
  reg J <= 2d - 4 and reg R/J <= 2d - 5: the value condition (d) tests for.
* HF(R/J)_t - HP(R/J)(t) = dim H0_m(R/J)_t - dim H1_m(R/J)_t, and both
  vanish for t > reg R/J, so HF(R/J)_t = HP(R/J) for t >= 2d - 4.
* HP(R/J) is the constant length of the Jacobian scheme, the sum of the
  Tjurina numbers of the points.  Near an m-fold point the curve is m
  lines through it, a homogeneous germ g with g in (g_u, g_v) by Euler,
  so its Tjurina number is its Milnor number (m - 1)^2.

The tail also gives der0 in closed form.  The degree d - 2 derivations
that kill f are the kernel of (a1, a2, a3) -> a1 f_x + a2 f_y + a3 f_z on
R_{d-1}^3, whose image is J_{2d-2}; R_t has dimension C(t + 2, 2), and
2d - 2 >= 2d - 4, so

    der0 = 3 C(d + 1, 2) - (C(2d, 2) - e) = 3 C(d + 1, 2) - C(2d, 2) + e.

groebner._buchberger_int skips the pairs the tail proves to reduce to 0
(Traverso's criterion), so the basis is the one the full run returns.  A
wrong tail ends in a named check, exit 4: in the run, or in
condition_report, where e must equal the saturation's e read from the
basis and the regularity must be at most 2d - 5.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count
from math import gcd, lcm, prod

from . import linalg
from .bsroots import RootSet
from .graded import STANDARD, check_h0_symmetry, regularity_report
from .groebner import (_GREVLEX, MAX_DEGREE, _budget, _hilbert_values,
                       _too_large, buchberger)
from .milnor import _jacobian_of, milnor_profile
from .polyring import (_VARIABLE_INDEX, Bs3Error, Polynomial,
                       PreconditionError, _parse_terms, format_ratio)

# A linear form of at most three terms, each [int ['*']] var, signed as the
# grammar signs terms, with whitespace around any token; int and var are
# written as polyring._TOKEN reads them (LinearForm.parse).  Groups:
# (sign, int, var) per term, the first sign '-' or empty.
_TERM = r"(?:(\d{1,4300})\s*\*?\s*)?(x[123]|[xyz])"
_FORM = re.compile(r"\s*(-?)\s*{0}(?:\s*([+-])\s*{0}"
                   r"(?:\s*([+-])\s*{0})?)?\s*".format(_TERM))


class LinearForm:
    """A nonzero linear form ax+by+cz, stored as `normal`: its primitive
    integer vector with first nonzero entry positive, which the lattice
    reads.  `coefficients` is derived from it: the same form as Fractions
    scaled so the first nonzero coefficient is 1."""

    __slots__ = ("normal",)

    def __init__(self, coefficients):
        coeffs = list(coefficients)
        if len(coeffs) != 3:
            raise ValueError("a linear form needs exactly 3 coefficients")
        a, b, c = coeffs
        if not (a.__class__ is b.__class__ is c.__class__ is int):
            # Fraction(4, 2) is not an int, so it is scaled here too
            coeffs = [Fraction(v) for v in coeffs]
            scale = lcm(*(v.denominator for v in coeffs))
            a, b, c = (v.numerator * (scale // v.denominator) for v in coeffs)
        self.normal = _primitive(a, b, c)

    @classmethod
    def parse(cls, text):
        """The form the text writes in the polynomial grammar; terms whose
        coefficients sum to 0 are dropped, any other term must be linear.

        A text _FORM matches is read from its one match: the signed int
        coefficients are summed per variable.  Every other text goes
        through polyring._parse_terms.  Both give the same form, because
        _FORM's language is a subset of the grammar, read as _TOKEN reads
        it, on which _parse_terms returns exactly those sums:

        * Tokens.  A digit run in a match is followed by whitespace, '*' or
          a variable, so the match reads the whole run, at most 4300
          digits, as _TOKEN does (a longer run, which _TOKEN splits into
          two ints, matches nowhere).  A variable is followed by
          whitespace, a sign or the end, never by a digit, so x1, x2 and
          x3 are read as aliases, as _TOKEN tries them first.  Whitespace
          stands only before a token or at the end, where _TOKEN skips
          it.
        * Grammar.  The match is ['-'] term (('+'|'-') term)*, with at
          most three terms, each coeff ['*'] monos or monos, coeff an int
          and monos one variable with no '^'.  So each term has degree 1
          and an int coefficient, and _parse_terms adds sign * coeff into
          that variable's entry, which is the sum taken here.  A variable
          whose terms cancel is 0 on both routes."""
        match = _FORM.fullmatch(text)
        coeffs = [0, 0, 0]
        if match is None:
            for m, c in _parse_terms(text).items():
                if not c:
                    continue
                if sum(m) != 1:
                    raise PreconditionError(
                        "%r is not a homogeneous linear form" % text)
                coeffs[m.index(1)] = c
            return cls(coeffs)
        g = match.groups()
        for sign, num, var in (g[:3], g[3:6], g[6:]):
            if var is None:
                break
            c = int(num) if num else 1
            coeffs[_VARIABLE_INDEX[var]] += -c if sign == "-" else c
        # the sums are ints, so the normal is set with no pass through
        # __init__
        form = cls.__new__(cls)
        form.normal = _primitive(*coeffs)
        return form

    @property
    def coefficients(self):
        return _scaled(self.normal)

    def __str__(self):
        """The form as a Polynomial prints it, written from the normal:
        each nonzero entry v over the lead entry, with no Fraction."""
        lead = self.normal[0] or self.normal[1] or self.normal[2]
        text = ""
        for v, name in zip(self.normal, "xyz"):
            if not v:
                continue
            body = (name if abs(v) == lead
                    else format_ratio(abs(v), lead) + "*" + name)
            if not text:
                text = body  # the lead entry is positive
            else:
                text += (" - " if v < 0 else " + ") + body
        return text

    def __repr__(self):
        return "LinearForm(%s)" % self


class Arrangement:
    """A validated arrangement; use validate() to construct one.  The
    intersection lattice (see _lattice) is built on the first read of
    `lattice`, spending its pair steps then, and kept."""

    __slots__ = ("forms", "_points")

    def __init__(self, forms):
        self.forms = tuple(forms)
        self._points = None

    @property
    def lattice(self):
        if self._points is None:
            self._points = _lattice(self.forms)
        return self._points

    @property
    def degree(self):
        return len(self.forms)

    def defining_polynomial(self):
        """The product of the forms, each with first nonzero coefficient 1
        (LinearForm.coefficients): the product of the normals over the
        product of their first nonzero entries.  Each term product is one
        step (_product)."""
        normals = [f.normal for f in self.forms]
        lead = prod(a or b or c for a, b, c in normals)
        unpack = _GREVLEX.unpack
        return Polynomial({unpack(m): Fraction(v, lead)
                           for m, v in _product(normals).items()}, 3)

    def __repr__(self):
        return "Arrangement(%s)" % ", ".join(str(f) for f in self.forms)


class SingularPoint:
    """An intersection point on `multiplicity` lines, stored as `vector`:
    its primitive integer vector with first nonzero entry positive."""

    __slots__ = ("vector", "multiplicity")

    def __init__(self, vector, multiplicity):
        self.vector = vector
        self.multiplicity = multiplicity

    def __repr__(self):
        return "SingularPoint(%s, m=%d)" % (list(_scaled(self.vector)),
                                            self.multiplicity)


class ConditionReport:
    """The six condition flags, their witness dimensions, and the H0
    degree data of the Jacobian ideal they were read from."""

    __slots__ = ("cond_b", "cond_c", "cond_d", "cond_e", "cond_f", "cond_g",
                 "witness_dims", "h0", "consistent")

    def __init__(self, cond_b, cond_c, cond_d, cond_e, cond_f, cond_g,
                 witness_dims, h0):
        self.cond_b = cond_b
        self.cond_c = cond_c
        self.cond_d = cond_d
        self.cond_e = cond_e
        self.cond_f = cond_f
        self.cond_g = cond_g
        self.witness_dims = witness_dims
        self.h0 = h0
        flags = (cond_b, cond_c, cond_d, cond_e, cond_f, cond_g)
        self.consistent = len(set(flags)) == 1

    def flags(self):
        return {"b": self.cond_b, "c": self.cond_c, "d": self.cond_d,
                "e": self.cond_e, "f": self.cond_f, "g": self.cond_g}

    def __repr__(self):
        return "ConditionReport(%s, consistent=%s)" % (self.flags(),
                                                       self.consistent)


class ArrangementRootReport:
    __slots__ = ("comb_roots", "non_comb_root", "non_comb_present",
                 "full_zero_set", "conditions", "singular_points")

    def __init__(self, comb_roots, non_comb_root, non_comb_present,
                 full_zero_set, conditions, singular_points):
        self.comb_roots = comb_roots
        self.non_comb_root = non_comb_root
        self.non_comb_present = non_comb_present
        self.full_zero_set = full_zero_set
        self.conditions = conditions
        self.singular_points = singular_points

    def __repr__(self):
        return ("ArrangementRootReport(full=%r, non_comb_present=%s)"
                % (self.full_zero_set, self.non_comb_present))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _primitive(a, b, c):
    """The int vector (a, b, c) over the gcd of its entries, signed so its
    first nonzero entry is positive; the zero vector is refused."""
    g = gcd(a, b, c)
    if not g:
        raise PreconditionError("zero linear form")
    if (a or b or c) < 0:
        g = -g
    return (a // g, b // g, c // g)


def _scaled(vector):
    """The integer vector as Fractions over its first nonzero entry."""
    a, b, c = vector
    lead = a or b or c
    return (Fraction(a, lead), Fraction(b, lead), Fraction(c, lead))


def _product(normals):
    """The product of the linear forms with the int normals given, as an
    int dict of monomials packed by the grevlex packing of x, y, z.  The
    terms are multiplied factor by factor, a product with x, y or z an
    addition of its packed monomial: each product of a term with a nonzero
    entry is added in as it comes, and dropped when its sum cancels.  Each
    term product is one step.  More than MAX_DEGREE + 1 forms would give
    partials past MAX_DEGREE, and are refused with ResourceLimitError
    before any product."""
    if len(normals) > MAX_DEGREE + 1:
        raise _too_large()
    budget = _budget()
    terms = {0: 1}
    for normal in normals:
        factor = [(c, v) for c, v in zip(_GREVLEX.coeffs, normal) if v]
        budget.spend(len(terms) * len(factor))
        out = {}
        for m, u in terms.items():
            for c, v in factor:
                key = m + c
                s = out.get(key, 0) + u * v
                if s:
                    out[key] = s
                else:
                    del out[key]
        terms = out
    return terms


def _indecomposable(normals):
    """No partition of the normals into two blocks with rank sum 3, for the
    normals of reduced essential forms (validate checks both first).

    Both blocks are nonempty and the normals span rank 3, so the ranks are
    1 and 2: the rank-1 block is one line (no duplicates) and the rank-2
    block is every other line, all through one point that the single line
    misses (else all d lines would meet).  So the forms decompose iff some
    point lies on exactly d - 1 of them.  Such a point misses at most one
    line, so it lies on two of the first three, n_i and n_j, and is their
    crossing n_i x n_j (not 0: no duplicates).  So each of the at most
    three crossings of n0, n1, n2 is tested for missing exactly one line,
    O(d) steps; it misses at least one, since the forms are essential."""
    n0, n1, n2 = normals[:3]
    for u, v, w in (_cross(n0, n1), _cross(n0, n2), _cross(n1, n2)):
        misses = 0
        for a, b, c in normals:
            if a * u + b * v + c * w:
                misses += 1
                if misses > 1:
                    break
        else:
            return False
    return True


def _require_essential(normals):
    """Refuse pairwise non-parallel normals of rank below 3: fewer than
    three span at most a plane, and of three or more, w = n0 x n1 is not 0,
    so they span rank 3 iff some normal has w.n != 0."""
    if len(normals) >= 3:
        w0, w1, w2 = _cross(normals[0], normals[1])
        if any(w0 * a + w1 * b + w2 * c for a, b, c in normals):
            return
    raise PreconditionError("not essential: normals span rank 2 < 3")


def validate(forms):
    """Check reduced + central + essential + indecomposable; raise otherwise.

    Essential is tested in O(d) once the duplicate test has made the
    normals pairwise non-parallel (_require_essential).  Indecomposable is
    read from three candidate points (_indecomposable), so validate spends
    no step and builds no lattice: the returned Arrangement builds it when
    read."""
    forms = [f if isinstance(f, LinearForm) else LinearForm.parse(f)
             for f in forms]
    if len(forms) < 3:
        raise PreconditionError("an arrangement needs at least 3 forms")
    seen = set()
    for f in forms:
        if f.normal in seen:
            raise PreconditionError("not reduced: duplicate form %s" % f)
        seen.add(f.normal)
    normals = [f.normal for f in forms]
    _require_essential(normals)
    if not _indecomposable(normals):
        raise PreconditionError("decomposable: the forms split into blocks "
                                "using disjoint coordinates")
    return Arrangement(forms)


def _lattice(forms):
    """Each intersection point, as the primitive integer vector with first
    nonzero entry positive, mapped to the ascending indices of the forms
    through it; every pair of forms meets once, one step per pair."""
    d = len(forms)
    _budget().spend(d * (d - 1) // 2)
    normals = [f.normal for f in forms]
    through = {}
    for i in range(d):
        a = normals[i]
        for j in range(i + 1, d):
            v = _cross(a, normals[j])
            lead = v[0] or v[1] or v[2]
            if not lead:
                # parallel normals cannot happen in a reduced arrangement
                raise Bs3Error("internal: duplicate forms slipped through")
            g = gcd(*v) if lead > 0 else -gcd(*v)
            pt = (v[0] // g, v[1] // g, v[2] // g)
            lines = through.get(pt)
            if lines is None:
                through[pt] = [i, j]
            elif lines[0] == i:
                # pairs arrive in order: the first pair through a point is
                # its two lowest lines, and (i, j) adds a line only while i
                # is the lowest
                lines.append(j)
    return through


def singular_points(arr):
    """All pairwise intersection points in the projective plane with their
    line counts, in ascending order of the points scaled so the first
    nonzero coordinate is 1.  The order is read exactly, with no Fraction,
    from the primitive vectors scaled to one common first entry, the lcm
    of theirs.  The sort spends one step per point before it runs."""
    lattice = arr.lattice
    _budget().spend(len(lattice))
    top = lcm(*(a or b or c for a, b, c in lattice))

    def key(pt):
        s = top // (pt[0] or pt[1] or pt[2])
        return (pt[0] * s, pt[1] * s, pt[2] * s)

    return [SingularPoint(pt, len(lattice[pt]))
            for pt in sorted(lattice, key=key)]


def comb_roots(arr):
    """CombRoots: -k/d for 3 <= k <= 2d-3 together with -i/m_z for
    2 <= i <= 2m_z - 2 at every singular point, one step per root listed,
    spent before the list is built."""
    d = arr.degree
    multiplicities = {len(lines) for lines in arr.lattice.values()}
    _budget().spend(2 * d - 5 + sum(2 * m - 3 for m in multiplicities))
    D = lcm(d, *multiplicities)
    roots = [-k * (D // d) for k in range(3, 2 * d - 2)]
    for m in multiplicities:
        roots.extend(-i * (D // m) for i in range(2, 2 * m - 1))
    return RootSet._over(roots, D)


def relation_space_dimension(arr):
    """Kernel dimension of the 3 x d matrix of normal columns (= d - 3)."""
    rows = [[f.normal[i] for f in arr.forms] for i in range(3)]
    return len(arr.forms) - linalg.rank(rows)


def _length3_relations(arr):
    """m - 2 relation vectors at a point on m lines: one per triple (first
    line, second line, k) for each further line k, coefficients from the
    adjugate of the 3 x 3 normal matrix.  The normals through the point
    span a plane, so the relations among them form an (m - 2)-dimensional
    space; each vector here is the only one nonzero at its k, so together
    they span that space, as the C(m, 3) triple relations do.  Each vector
    is d entries long, and spends d steps before it is allocated."""
    forms = arr.forms
    d = len(forms)
    budget = _budget()
    relations = []
    for lines in arr.lattice.values():
        i, j = lines[0], lines[1]
        for k in lines[2:]:
            n0, n1, n2 = forms[i].normal, forms[j].normal, forms[k].normal
            # (w0.u) n0 + (w1.u) n1 + (w2.u) n2 = det(n0,n1,n2) u = 0 for
            # every u, w0 = n1 x n2, w1 = n2 x n0, w2 = n0 x n1.  _lattice
            # puts no two parallel normals on one point, so w2 != 0 and
            # u = e_c with w2[c] != 0 gives a relation nonzero at k.
            w2 = _cross(n0, n1)
            c = next(c for c in range(3) if w2[c])
            budget.spend(d)
            vec = [0] * d
            vec[i] = _cross(n1, n2)[c]
            vec[j] = _cross(n2, n0)[c]
            vec[k] = w2[c]
            relations.append(vec)
    return relations


def is_formal(arr):
    """Formal iff length-3 relations span the whole relation space, whose
    dimension is d - 3 for essential normals.  An arrangement built without
    validate may not be essential, and is refused as validate refuses it;
    the relations read the lattice first, which refuses duplicate forms,
    so the normals are pairwise non-parallel when that test reads them."""
    relations = _length3_relations(arr)
    _require_essential([f.normal for f in arr.forms])
    return linalg.rank(relations) == arr.degree - 3


def _free_line(points):
    """The (a, b) of least height h = max(|a|, |b|), then least |a| + |b|,
    then least (a, b), whose line z + a*x + b*y passes through none of the
    points, integer vectors (p_x, p_y, p_z) other than 0.

    The line passes through p exactly when p_z + a*p_x + b*p_y = 0.  When
    p_x = p_y = 0 this never holds; otherwise each a fixes at most one b
    when p_y != 0, and each b at most one a when p_x != 0, so p rules out
    at most 2h + 1 of the (2h + 1)^2 pairs in the box [-h, h]^2.  N points
    rule out at most N*(2h + 1) of them, fewer than all once 2h + 1 > N:
    so h <= ceil(N/2).  Each candidate line spends one step per point it
    is tested against, up to and including the first one it passes
    through, or N when it passes through none.
    """
    budget = _budget()
    for h in count():
        ring = [(a, b) for a in range(-h, h + 1) for b in range(-h, h + 1)
                if max(abs(a), abs(b)) == h]
        for a, b in sorted(ring, key=lambda p: (abs(p[0]) + abs(p[1]), p)):
            hit = next((i for i, (px, py, pz) in enumerate(points, 1)
                        if not pz + a * px + b * py), None)
            budget.spend(hit or len(points))
            if hit is None:
                return a, b


def _adapted_normals(arr):
    """The normals in the adapted basis {p, q, r} (see condition_report):
    p and q the first two normals of least height (largest |entry|, then
    sum of |entries|, then index), r = (a, b, 1) from _free_line.  Normal n
    goes to (n.(q x r), n.(r x p), n.(p x q)), the row n B^-1 times
    det B for B the matrix of rows p, q, r, made primitive with first
    nonzero entry positive: p to (1, 0, 0), q to (0, 1, 0)."""
    a, b = _free_line(arr.lattice)
    normals = [form.normal for form in arr.forms]
    p, q = sorted(normals, key=lambda n: (max(map(abs, n)),
                                          sum(map(abs, n))))[:2]
    r = (a, b, 1)
    columns = (_cross(q, r), _cross(r, p), _cross(p, q))
    return [_primitive(*(n[0] * c[0] + n[1] * c[1] + n[2] * c[2]
                         for c in columns)) for n in normals]


def _jacobian(arr):
    """The Jacobian ideal of f moved to the adapted basis, where two
    least-height lines are x and y and the free line is z (see
    condition_report), with its proven Hilbert tail (2d - 4, e),
    e = sum over the points of (m_p - 1)^2 (module docstring).  f is the
    product of the moved normals, multiplied on packed monomials
    (_product), and its partials are taken there too
    (milnor._jacobian_of): the ideal is born packed, with no Polynomial."""
    f = _product(_adapted_normals(arr))
    e = sum((len(lines) - 1) ** 2 for lines in arr.lattice.values())
    return _jacobian_of(f, 1, (2 * arr.degree - 4, e))


def condition_report(arr):
    """Evaluate the six equivalent conditions for the presence of the
    non-combinatorial root, with every dimension witness recorded.

    Every witness is a Hilbert function value of R/J or R/J^sat, a degree
    of H0 = J^sat/J, or a count of degree-0 logarithmic derivations, for J
    the Jacobian ideal of f; an invertible linear change of coordinates
    maps each of them to itself.  So the conditions are read in the
    adapted basis {p, q, r} (_adapted_normals): two least-height lines p
    and q become x and y, and the line r = z + a*x + b*y of least height
    through no intersection point becomes z.  With B the matrix of rows
    p, q, r, det B = r.(p x q) != 0 since r misses the point p x q, the
    product f' of the moved integer normals is a nonzero constant times
    f o B^-1, and its Jacobian ideal is J moved (module docstring).
    z = 0 misses the singular points, which are the intersection points,
    so the saturation of J certifies c = 0 on its own minimal basis: one
    Buchberger run serves the whole report, told the Hilbert tail
    (2d - 4, e) of J (module docstring).  J is born packed from the moved
    normals (_jacobian), as the integer triples that run starts from.
    """
    d = arr.degree
    jac = _jacobian(arr)
    e = jac.hilbert_tail[1]
    gb = buchberger(jac)
    reg = regularity_report(jac)
    h0 = reg.h0
    check_h0_symmetry(h0, 3 * d - 6)  # the arrangement is reduced
    if reg.sheaf_dim_e != e:
        raise Bs3Error("internal inconsistency: check 'lattice e' failed: "
                       "the saturation gives e = %d, the lattice %d"
                       % (reg.sheaf_dim_e, e))
    if reg.regularity > 2 * d - 5:
        raise Bs3Error("internal inconsistency: check 'regularity bound' "
                       "failed: reg R/J = %d exceeds 2d - 5 = %d"
                       % (reg.regularity, 2 * d - 5))
    h0_d1 = h0.dimension(d - 1)
    h0_2d5 = h0.dimension(2 * d - 5)
    # the saturation has checked that the generators are homogeneous; the
    # run has read the tail of in(J), and the basis holds it
    milnor = _hilbert_values(gb.tail, max(d - 1, 2 * d - 5))
    milnor_d1, milnor_2d5 = milnor[d - 1], milnor[2 * d - 5]
    # 2d - 2 >= 2d - 4, where the run has checked HF(R/in J) = e (module
    # docstring)
    der0 = 3 * (d + 1) * d // 2 - d * (2 * d - 1) + e
    binom = (d + 1) * d // 2 - 3
    # global sections of the twisted Milnor sheaf at twist d-1, computed
    # through the exact sequence with H1 realized by degree-(d-2) derivations
    sections_d1 = milnor_d1 - h0_d1 + der0
    cond_b = h0_d1 > 0
    cond_c = h0_2d5 > 0
    cond_d = reg.regularity == 2 * d - 5
    cond_e = e < milnor_2d5
    cond_f = sections_d1 < der0 + binom
    cond_g = not is_formal(arr)
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
    return ConditionReport(cond_b, cond_c, cond_d, cond_e, cond_f, cond_g,
                           witness, h0)


def full_root_report(arr):
    """CombRoots plus the non-combinatorial root exactly when the six
    conditions hold; raises if the six conditions disagree.  The
    combinatorial parts are read first, so is_formal's rank, the last
    condition, spends a request's last steps."""
    comb, points = comb_roots(arr), singular_points(arr)
    conditions = condition_report(arr)
    if not conditions.consistent:
        raise Bs3Error("the six equivalent conditions disagree; this "
                       "signals an implementation bug, not a property of "
                       "the input: %r" % conditions)
    d = arr.degree
    non_comb = Fraction(-2 * d + 2, d)
    present = conditions.cond_b
    full = comb.union([non_comb]) if present else comb
    if any(not -3 * full.denominator < n < 0 for n in full.numerators):
        raise Bs3Error("root outside (-3, 0); implementation bug")
    return ArrangementRootReport(comb, non_comb, present, full, conditions,
                                 points)


def arrangement_profile(arr):
    """MilnorProfile of the defining polynomial under the standard grading."""
    return milnor_profile(arr.defining_polynomial(), STANDARD)
