"""Buchberger's algorithm over Q and saturation by the irrelevant ideal.

Every basis computation runs on integer coefficient dictionaries, and one
routine, _reduce, does every reduction: it reduces an S-polynomial in
Buchberger's loop only until its head is irreducible.  Every number a
request reports is read from leading monomials, and the leading monomials
of a Groebner basis do not depend on its tails, so no tail is ever
reduced: a tail step scales the whole remainder by a reducer's leading
coefficient, which is where coefficients grow.  _reduce strips the content
whenever the head's bits double past their last strip, and on return, so
no Fraction arithmetic happens in inner loops and the remainder is the
primitive one that stripping after every step leaves.  An Ideal holds
its generators as the packed integer triples (lm, lc, primitive dict) a
run starts from, each with the rational scale that gives it back, and a
GroebnerBasis holds only the triples of a minimal basis.  A request's
Jacobian is born packed (milnor.jacobian_ideal, arrangement._jacobian), so
Fractions and Polynomials appear only at the edges: a Polynomial handed to
Ideal is cleared of denominators and packed once, and Polynomials are
built only when Ideal.generators or GroebnerBasis.elements is read, never
on a request.

Inside those dictionaries a monomial is one int, packed by its order
(Monagan-Pearce, _packing(n, lead)): pack(m) = sum e_i * C_i lays 16-bit
fields side by side, each holding a sum of some of the exponents in its
low 15 bits and a guard bit, always clear, on top.  The most significant
fields hold the order's key: for grevlex (lead = 0, every basis but an
elimination's) the partial sums s_n = deg, s_(n-1), ..., s_1 with
s_k = e_1 + ... + e_k (at equal degree grevlex is lex on these sums), for
the block order of an elimination (_weighted_colon) e_1, ..., e_lead and
then the grevlex sums of the other variables.
Below them come the total degree and each raw exponent that is not a field
yet.  So the int order is the monomial order, a product is +, a quotient
is -, the leading monomial of a dict d is max(d), and a divides b iff
((b | G) - a) & G == G for the guard mask G: a field of b below a's clears
its guard bit, and no borrow crosses a field.  The two packings a request
uses, grevlex on three variables and the block order of an elimination's
four, are built at import; any other is built on its first use and kept.

Every field is a sum of exponents, so none exceeds the total degree, and a
monomial enters only if its total degree is at most MAX_DEGREE = 2^15 - 1.
A sum of two packed monomials then has fields below 2^16, and a field past
MAX_DEGREE shows as a set guard bit: every product that can pass the bound
is checked, and one that does raises ResourceLimitError.  A field never
wraps silently.  A field holds MAX_DEGREE + 1 too, in its guard bit, so
the terms of a polynomial whose partials are taken may reach that degree
(milnor.jacobian_ideal): each partial term is one degree lower.

An Ideal may carry a proven Hilbert tail (t0, e), dim (R/I)_t = e for
every t >= t0; its runs skip the pairs that tail proves to reduce to 0
(Traverso's criterion, _buchberger_int).  Only arrangement Jacobians carry
one (arrangement module docstring).

Saturation by the irrelevant ideal m = (x, y, z) takes the positive
integer weights w of the caller's grading and, before any basis work,
checks that they make every generator homogeneous: an ideal they do not
grade is refused with PreconditionError, since the colons below rest on
that grading.  It then takes one of three routes, each resting on a proof
rather than a trial:

* Artinian: when the grevlex basis has a pure power of every variable, R/I
  has finite length, so the graded ideal I is m-primary and
  I : m^infinity = (1).
* in(I) saturated: when the monomial ideal in(I) : m is in(I), I^sat = I,
  and in(I) is returned with no colon.  The normal form r of an f in
  I^sat lies in I^sat too.  Were r nonzero, m^k*r would lie in I for some
  k, so u*in(r) = in(u*r) would lie in in(I) for every monomial u of
  degree k, and in(r) in in(I) : m^k = in(I), though no term of r is in
  in(I).  So r = 0 and f lies in I.  No weight, grading or dimension is
  used.  The test is sufficient, not necessary: a saturated I can have an
  unsaturated in(I), and then takes the colon below.  Under standard
  weights the colon by z decides it first (below); the socle test
  (_is_saturated) decides it where that colon is refused, and under other
  weights.
* anything else: J = I : l_c^infinity for the first c whose colon passes
  the certificate, in(J) holds finitely many monomials outside in(I),
  l_c the moment form z^(D/w_z) + c*x^(D/w_x) + c^2*y^(D/w_y),
  D = lcm(w) (_moment_form; the line z + c*x + c^2*y under standard
  weights).  The c tried are 0, 1, ... under standard weights and 1, 2,
  ... under others.

What saturated_leading_monomials returns, under any weights: the leading
monomials of the grevlex basis of I^sat in the input's coordinates.  Each
colon is built one of two ways.  Under standard weights l_0 = z, and
dividing every element of a grevlex basis of I by its largest power of z
gives a grevlex basis of I : z^infinity (Bayer-Stillman), so
in(I : z^infinity) = in(I) : z^infinity: the colon by z is read off the
staircase of in(I) the basis keeps (below), and its monomials are the
division of that basis (_saturate_by_z), made only when
saturated_leading_monomials asks for them.  Every other colon is one
elimination in the same coordinates, one Buchberger run on
(I, t*l_c - 1) (_weighted_colon).  Under other weights l_0 = z^(D/w_z)
would cost an elimination too, and it vanishes on the whole line z = 0,
through the coordinate points (1:0:0) and (0:1:0), while every l_c with
c >= 1 takes the values c, c^2 and 1 at (1:0:0), (0:1:0) and (0:0:1) and
misses all three: so there the loop starts at c = 1.  The weights choose
the forms l_c tried, and so the certified c; the monomials are those of
I^sat whichever weights grade I, since an ideal can be homogeneous for
(1, 1, 1) and for other weights at once.

Why the certificate proves J = I^sat: l_c is homogeneous and lies in m,
which is all the proof needs of it.  J contains I^sat, and J is graded.
The monomials outside in(I) are a basis of R/I, and those outside in(J)
of R/J; I lies in J, so in(I) lies in in(J), and dim_Q J/I is the number
of monomials of in(J) outside in(I).  Grevlex is degree-compatible, so
that number is finite exactly when R/in(I) and R/in(J) have the same
standard Hilbert polynomial.  Then J/I^sat is a finite-dimensional graded
submodule of R/I^sat, killed by a power of m, hence zero.  No weighted
Hilbert start is needed.  Grading is essential: (x - 1, y + 1, z) with
h = z + x + y gives J = (1), one monomial more than in(I) = (x, y, z).

The certificate of a colon c >= 1 and H0 = I^sat/I read one pass
(_saturation_excess), which lists the monomials of in(J) outside in(I) as
boxes, or finds them infinite, with no window: it checks that every
generator of in(I) has a divisor among those of in(J), then cuts the
staircase of in(I) the basis keeps by each generator of in(J)
(_cut_orthant).  A cut by n removes the monomials outside in(I) that n
divides and no earlier generator does, so the removed parts list the
difference, each monomial once.  A part keeps the far ends of its box,
and a box of the staircase reaches _UNBOUNDED exactly where it is
unbounded, so the difference is infinite exactly when some removed part
reaches it, and the pass stops at the first.

Why the colon by z needs no pass: x^a y^b z^c lies outside in(I) exactly
when c < low(a, b), the least z-exponent of a generator dividing x^a y^b
in x and y, and in(I) : z^infinity holds it exactly when low(a, b) is
finite.  The boxes of the monomials outside in(I) (_staircase) hold one
z-range [0, low) on each of their pairs (a, b), so those of finite
z-extent are exactly the monomials of in(I) : z^infinity outside in(I)
(_z_colon_excess).  One of them unbounded in x or y makes them infinitely
many, and the certificate refuses c = 0.  All bounded, they are the
certificate's finite difference, and H0's boxes.  None at all means z is
a nonzerodivisor on R/in(I), so in(I) : m lies in in(I) : z^infinity =
in(I): in(I) is saturated, and I^sat = I as above.  A finite nonempty
difference is a finite-length submodule of R/in(I), killed by a power of
m, so in(I) is then not saturated.  So the colon by z gives every (c, M)
that the socle test followed by the certificate of c = 0 gives, and the
socle test runs only where the colon by z is refused.

Each route hands its boxes on with the monomials (_saturate): the colon
by z those of finite z-extent, a certified colon c >= 1 its
certificate's, the Artinian route the whole staircase of in(I), and a
saturated in(I) none.  Counted by weighted degree (_excess_degrees) the
boxes are H0, and HF(R/I^sat) = HF(R/I) - H0 (graded module docstring).

One walk reads every staircase that is counted (_staircase): the
generators of M, sorted by their x-exponent, enter one corner list
(_add_corner) as the walk reaches them, and the rows from one
generator's x-exponent to the next, which hold the same corners, are one
row range, read once.  Each column range of a row range on which low is
constant and positive is one box, whatever the number of rows, and every
extent is cut at _UNBOUNDED = 3 * MAX_DEGREE + 1, above every exponent
and every degree M's Hilbert tail reads.  Its boxes are counted by degree
(_excess_degrees), each box eight entries of a third-difference array
before one prefix pass per weight, up to the top of M's Hilbert tail
(_hilbert_tail).  A basis keeps its staircase beside its tail
(GroebnerBasis), and a run told a tail walks the staircase of its
leading monomials in play at each Hilbert read and hands over the boxes
of its last, so the colon by z, every certificate and H0 read them with
no walk of their own: an arrangement request walks about twice, once per
read of its run.  The socle test (_is_saturated) keeps a corner walk of
its own (its docstring says why).

Why the loop ends: when the Hilbert polynomial of R/in(I) is a constant e
(dim R/I <= 1), e is the degree of the affine curve V(I), so V(I) has at
most e points in weighted P^2.  l_c vanishes at a point p for the roots c
of p_z^a + c*p_x^b + c^2*p_y^d only, at most two, so among any 2e + 1
values of c one passes: c <= 2e under standard weights, c <= 2e + 1 under
others.  e is read only once c passes first + 2, first the c the loop
starts at: on this route e >= 1, so the first three c lie within the
bound (_saturate).  The certificate alone decides each c.  A point p of
V(I) on the curve l_c = 0 is a minimal prime of I^sat that contains
l_c, so the colon drops it, its Hilbert polynomial is smaller, in(J)
holds infinitely many monomials outside in(I) and the certificate
rejects it; a curve that misses V(I) gives J = I^sat, which it passes.
So the certified c is the first one tried whose curve misses V(I).
When dim R/I = 2, each of the finitely many associated primes of I^sat
other than m contains l_c for at most two values of c (three would put a
power of every variable in it), so the loop still ends, and the request's
step budget bounds it.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from itertools import accumulate, count, groupby
from math import gcd, lcm
from operator import itemgetter, mul

from .polyring import Bs3Error, Polynomial, PreconditionError

DEFAULT_STEP_CAP = 10_000_000
MAX_DEGREE = (1 << 15) - 1
# the top of a walk whose boxes may be unbounded: above every exponent, so
# an extent that reaches it is unbounded, and above the degree of the lcm
# of any monomials, so a Hilbert tail counts every monomial it reads
_UNBOUNDED = 3 * MAX_DEGREE + 1
_FIELD = 16


class ResourceLimitError(Bs3Error):
    """Raised when a computation exceeds its step cap or a monomial's total
    degree exceeds MAX_DEGREE."""


def _too_large():
    return ResourceLimitError(
        "exponents too large: a monomial of total degree above %d"
        % MAX_DEGREE)


class _Budget:
    """Steps spent against a cap.  This is the full step model; the README
    lists it for users.  Each of these is one step:

    * a reduction step or an S-pair, and one more per 64-bit word past the
      first of each of the two coefficients it scales by
      (_scaling_steps); a reduction step's head is priced as it holds it,
      at most twice its bits at the last strip of its content plus one
      word (_reduce);
    * a generator of the staircase walk (_staircase), charged before it
      walks, and a corner of one of its row ranges, charged before that
      range's boxes are listed;
    * a box compared by a cut (_cut_orthant), charged before it compares
      them, which pays for the at most three parts it keeps and the one it
      removes;
    * a pair of generators the certificate's containment check compares
      (_saturation_excess), each generator of in(I) against those of
      in(J) up to the first that divides it, charged once that generator
      is decided;
    * a degree of the count of boxes (_excess_degrees), charged before it
      builds its degree list; the walk or the cut that listed the boxes
      paid for each;
    * a generator or a compared drop of the socle test (_is_saturated);
    * in an arrangement, a pair of lines of the lattice, spent on its
      first read (validate spends none, nor does any parse); a point a
      candidate free line is tested against, up to the first it passes
      through (_free_line); an entry of a length-3 relation vector, d per
      vector (_length3_relations); a row operation of linalg.rank, priced
      by the words of its two multipliers as a reduction step is; a term
      product of the polynomial; a singular point, before they are sorted
      (singular_points); a combinatorial root, before they are listed
      (comb_roots);
    * a term of a polynomial whose partials a Jacobian ideal takes
      (milnor._jacobian_of).

    Reading the colon by z off kept boxes (_z_colon_excess) is paid by the
    walk that made them.  Every count is deterministic."""

    __slots__ = ("cap", "used")

    def __init__(self, cap):
        self.cap = cap if cap is not None else DEFAULT_STEP_CAP
        self.used = 0

    def spend(self, n=1):
        self.used += n
        if self.used > self.cap:
            raise ResourceLimitError(
                "computation too large: exceeded %d steps" % self.cap)


_OPEN_BUDGET = ContextVar("bs3_step_budget", default=None)


@contextmanager
def step_budget(cap=None):
    """One step budget shared by every computation in the block; None
    means DEFAULT_STEP_CAP.  Yields the budget, whose `used` counts the
    steps spent so far.  An Ideal keeps the basis of its first run
    (buchberger), so only a second read of that one object costs
    nothing."""
    budget = _Budget(cap)
    token = _OPEN_BUDGET.set(budget)
    try:
        yield budget
    finally:
        _OPEN_BUDGET.reset(token)


def _budget():
    """The open budget, or outside any step_budget block a fresh one with
    the default cap, so each library call is bounded on its own."""
    budget = _OPEN_BUDGET.get()
    return budget if budget is not None else _Budget(None)


class _Packing:
    """The packing constants of the order on n variables that compares the
    first `lead` exponents lexicographically and breaks ties by graded
    reverse lex on the others (grevlex when lead = 0): C_i per variable,
    the guard mask, the shift of each raw exponent and of the total
    degree, the pairs (shift, C_i) of the raw exponents, and their lcm
    (_unrolled_lcm)."""

    __slots__ = ("n", "lead", "coeffs", "guard", "shifts", "degree_shift",
                 "raw_fields", "lcm")

    def __init__(self, n, lead):
        # each field is the set of variables it sums, most significant first
        fields = [(i,) for i in range(lead)]
        fields += [tuple(range(lead, j)) for j in range(n, lead, -1)]
        for f in [tuple(range(n))] + [(i,) for i in range(n)]:
            if f not in fields:
                fields.append(f)
        shift = {f: _FIELD * (len(fields) - 1 - j)
                 for j, f in enumerate(fields)}
        self.n = n
        self.lead = lead
        self.coeffs = tuple(sum(1 << s for f, s in shift.items() if i in f)
                            for i in range(n))
        self.guard = sum(1 << (s + _FIELD - 1) for s in shift.values())
        self.shifts = tuple(shift[(i,)] for i in range(n))
        self.degree_shift = shift[tuple(range(n))]
        self.raw_fields = tuple(zip(self.shifts, self.coeffs))
        self.lcm = _unrolled_lcm(self.guard, self.raw_fields)

    def pack(self, m, top=MAX_DEGREE):
        """m packed; a total degree above top, at most MAX_DEGREE + 1,
        raises ResourceLimitError."""
        if sum(m) > top:
            raise _too_large()
        return sum(map(mul, m, self.coeffs))

    def unpack(self, p):
        # a field of a product of MAX_DEGREE + 1 forms holds that degree in
        # its guard bit (arrangement._product)
        return tuple(p >> s & 0xFFFF for s in self.shifts)

    def degree(self, p):
        return p >> self.degree_shift & MAX_DEGREE

    def exponent(self, p, i):
        return p >> self.shifts[i] & MAX_DEGREE


def _unrolled_lcm(guard, raw_fields):
    """lcm(a, b) of two monomials packed with the guard mask and raw
    fields given, unchecked: a field of it is at most the sum of the
    fields of a and b, below 2^16, so its guard bit tells whether it passed
    MAX_DEGREE.  (b | G) - a holds 2^15 + b_i - a_i in the field of each
    raw exponent, and a gains the positive differences.  A run forms an lcm
    for every pair it weighs, so the walk over the raw fields is unrolled
    into straight-line code, with the shifts and C_i as constants, once per
    packing."""
    lines = ["def lcm(a, b):", "    d = (b | %d) - a" % guard]
    for s, c in raw_fields:
        lines += ["    e = (d >> %d & 0xFFFF) - 0x8000" % s,
                  "    if e > 0:", "        a += e * %d" % c]
    namespace = {}
    exec("\n".join(lines + ["    return a"]), namespace)
    return namespace["lcm"]


_PACKINGS = {}


def _packing(n, lead=0):
    """The packing of the order (n, lead), built on its first use and kept
    for the life of the process."""
    pk = _PACKINGS.get((n, lead))
    if pk is None:
        pk = _PACKINGS[n, lead] = _Packing(n, lead)
    return pk


# the grevlex packing of every request's basis, and the block packing of
# its eliminations (_weighted_colon)
_GREVLEX = _packing(3)
_BLOCK = _packing(4, 1)


class Ideal:
    """An ideal given by a finite list of generators, held packed.

    Each nonzero Polynomial handed in is cleared of denominators and packed
    once, by the grevlex packing of variable_count variables, into the
    triple (lm, lc, primitive dict) a Buchberger run starts from, and its
    scale s, an int or a Fraction, with g = s * dict; zero generators are
    dropped, and the zero ideal has none.  A term of total degree above
    MAX_DEGREE is refused with ResourceLimitError.  `generators` builds
    the Polynomials s * dict, in the order given, on each read; no request
    reads it.  `hilbert_tail`, None or (t0, e), is a proven fact the caller
    hands to the ideal's Buchberger runs: the generators are
    standard-homogeneous and dim (R/I)_t = e for every t >= t0
    (_buchberger_int).

    Equality compares the variable count, the tail, and the generators in
    order, each by its triple and its scale: two ideals are equal exactly
    when their generators are, as Polynomials, so it is a literal
    comparison; use Groebner bases for equality of the ideals generated.
    The tail takes part, since a run under a wrong tail may end in a wrong
    basis.  An ideal keeps the basis of its first buchberger run that
    returns (_basis); an equal ideal built anew runs again.
    """

    __slots__ = ("variable_count", "hilbert_tail", "_triples", "_scales",
                 "_basis")

    def __init__(self, generators, variable_count=None, hilbert_tail=None):
        gens = [g for g in generators if not g.is_zero()]
        if variable_count is None:
            if not gens:
                raise ValueError("variable_count required for the zero ideal")
            variable_count = gens[0].variable_count
        for g in gens:
            if g.variable_count != variable_count:
                raise ValueError("mixed variable counts among generators")
        pk = _packing(variable_count)
        self._hold([_held(*_packed_terms(g, pk)) for g in gens],
                   variable_count, hilbert_tail)

    @classmethod
    def _packed(cls, held, variable_count, hilbert_tail=None):
        """The ideal of the generators held as (triple, scale) pairs
        (_held) under the grevlex packing, built with no Polynomial."""
        ideal = cls.__new__(cls)
        ideal._hold(held, variable_count, hilbert_tail)
        return ideal

    def _hold(self, held, variable_count, hilbert_tail):
        self._triples = tuple(t for t, _ in held)
        self._scales = tuple(s for _, s in held)
        self.variable_count = variable_count
        self.hilbert_tail = hilbert_tail
        self._basis = None

    @property
    def generators(self):
        """The generators as Polynomials, built on each read."""
        n = self.variable_count
        unpack = _packing(n).unpack
        return tuple(Polynomial({unpack(m): s * v for m, v in d.items()}, n)
                     for (_, _, d), s in zip(self._triples, self._scales))

    def is_zero(self):
        return not self._triples

    def __eq__(self, other):
        return (isinstance(other, Ideal)
                and self.variable_count == other.variable_count
                and self.hilbert_tail == other.hilbert_tail
                and self._scales == other._scales
                and self._triples == other._triples)

    def __hash__(self):
        return hash((self.variable_count, self.hilbert_tail, self._scales,
                     tuple(frozenset(d.items()) for _, _, d in self._triples)))

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(str(g) for g in self.generators)


class GroebnerBasis:
    """A minimal Groebner basis, sorted by increasing leading monomial and
    held as packed integer triples (lm, lc, primitive dict) under the
    packing of its order.  Its leading monomials are the reduced basis's,
    and a request reads nothing else.  Its tails are as the run left them,
    not reduced, so two runs on one ideal may hold different elements;
    elements builds them, monic, on each access.  leading_monomials is
    unpacked once, when the basis is built: a request reads it several
    times.  In three variables, _boxes are the monomials outside in(I)
    (_staircase) and tail is _hilbert_tail of them: the run that built the
    basis hands over those of its last Hilbert read, if any, and otherwise
    each is computed on its first read and kept."""

    __slots__ = ("packing", "_int_basis", "leading_monomials", "_tail",
                 "_kept_boxes")

    def __init__(self, packing, triples, tail, boxes=None):
        self.packing = packing
        self._int_basis = tuple(triples)
        unpack = packing.unpack
        self.leading_monomials = tuple(unpack(b[0]) for b in self._int_basis)
        self._tail = tail
        self._kept_boxes = boxes

    @property
    def _boxes(self):
        if self._kept_boxes is None:
            self._kept_boxes = _staircase(self.leading_monomials)
        return self._kept_boxes

    @property
    def tail(self):
        self._tail = self._tail or _hilbert_tail(self.leading_monomials,
                                                 self._boxes)
        return self._tail

    @property
    def elements(self):
        """The minimal basis as held, each element made monic."""
        return tuple(_from_int_poly(d, self.packing, lc)
                     for _, lc, d in self._int_basis)

    def __repr__(self):
        return "GroebnerBasis(%s)" % ", ".join(str(g) for g in self.elements)


# -- integer polynomial plumbing --------------------------------------------


def _strip_content(d):
    """d over the gcd of its coefficients."""
    g = 0
    for v in d.values():
        g = gcd(g, v)
        if g == 1:
            return d
    return {m: v // g for m, v in d.items()} if g > 1 else d


def _int_terms(p):
    """Polynomial p -> (dict exponent tuple -> int, denominator D) with
    p = dict / D; p's own terms when its coefficients are all ints."""
    denom = 1
    for c in p.terms.values():
        if c.__class__ is not int:
            denom = lcm(denom, c.denominator)
    if denom == 1:
        return p.terms, 1
    return ({m: c.numerator * (denom // c.denominator)
             for m, c in p.terms.items()}, denom)


def _packed_terms(p, pk, top=MAX_DEGREE):
    """Polynomial p -> (dict packed monomial -> int, denominator D) with
    p = dict / D, its terms packed by pk once; a term of total degree above
    top, at most MAX_DEGREE + 1, raises ResourceLimitError."""
    terms, denom = _int_terms(p)
    pack = pk.pack
    return {pack(m, top): v for m, v in terms.items()}, denom


def _int_triple(d):
    """Nonzero int dict -> (lead mono, lead coeff > 0, primitive dict)."""
    d = _strip_content(d)
    lm = max(d)
    if d[lm] < 0:
        d = {m: -v for m, v in d.items()}
    return (lm, d[lm], d)


def _held(d, denom=1):
    """(triple, scale) of the nonzero int dict d over the denominator: its
    triple (_int_triple), and the scale s with d / denom = s * the triple's
    dict, read off the leading coefficients, an int when denom is 1."""
    triple = _int_triple(d)
    lm, lc, _ = triple
    if denom == 1:
        return triple, d[lm] // lc
    return triple, Fraction(d[lm], denom * lc)


def _from_int_poly(d, pk, scale=1):
    """Int dict d -> the Polynomial d / scale."""
    unpack = pk.unpack
    return Polynomial({unpack(m): Fraction(v, scale) for m, v in d.items()},
                      pk.n)


def _scaling_steps(a, b):
    """The steps of a reduction step or an S-pair that scales terms by the
    coefficients a and b: one, and one more per 64-bit word of each past
    its first.  Its products and gcds take longer as those words grow, and
    so does its count: a cap bounds the time of a run whose coefficients
    grow, and a step whose coefficients fit in a word is one."""
    return (a.bit_length() >> 6) + (b.bit_length() >> 6) + 1


def _reduce(d, basis, pk, budget):
    """Reduce the int dict d against basis, (lm, lc, dict) triples, until
    its head is irreducible: returns a primitive int dict r: {} or one
    whose leading monomial no leading monomial of the basis divides, with
    r - u*d in the ideal the basis generates for some rational u > 0.
    Its tail is left as the steps leave it.  Each step scales the terms by
    the basis leading coefficient over a gcd, so coefficients stay
    integers.  The content is stripped only when the head passes twice
    its bits at the last strip plus one 64-bit word, and once more on
    return.  That leaves r as stripping after every step would: a strip
    divides by a positive integer, and a step from a positive multiple
    s*w of w gives s*u/u' times the step from w, with u, u' the gcds the
    two steps divide by, so every step's remainder is a positive multiple
    of the other's, with the same terms, the same head and the same
    reducer, and the two primitive results are one dict.  A step is
    charged by the words of the head as it holds it, at most twice its
    bits at the last strip plus one word, and of the reducer's leading
    coefficient (_scaling_steps).  The quotient q of two leading monomials
    fits, so each product bm + q is checked by its guard bits alone.
    """
    G = pk.guard
    work = dict(d)
    limit = 0  # the head bits past which the content is stripped
    while work:
        lm = max(work)
        lg = lm | G
        for hit in basis:
            if (lg - hit[0]) & G == G:
                break
        else:
            break
        head = work[lm]
        if head.bit_length() > limit:
            work = _strip_content(work)
            head = work[lm]
            limit = 2 * head.bit_length() + 64
        blm, blc, bterms = hit
        budget.spend(_scaling_steps(head, blc))
        g = gcd(head, blc)
        a, c = blc // g, head // g
        if a != 1:
            work = {m: a * v for m, v in work.items()}
        q = lm - blm
        for bm, bv in bterms.items():
            mm = bm + q
            if mm & G:
                raise _too_large()
            s = work.get(mm, 0) - c * bv
            if s:
                work[mm] = s
            else:
                del work[mm]
    return _strip_content(work)


def _s_poly_int(f, g, lcm, pk, budget):
    """Integer S-polynomial of two (lm, lc, dict) triples whose leading
    monomials have the lcm given, one the caller has checked against the
    guard bits: so the quotients fit and each product term is checked by
    its guard bits alone.  Its content is left in: _reduce strips it
    before its first step, or on return."""
    budget.spend(_scaling_steps(f[1], g[1]))
    G = pk.guard
    g0 = gcd(f[1], g[1])
    af = g[1] // g0
    ag = f[1] // g0
    qf = lcm - f[0]
    qg = lcm - g[0]
    out = {}
    for m, v in f[2].items():
        mm = m + qf
        if mm & G:
            raise _too_large()
        out[mm] = af * v
    for m, v in g[2].items():
        mm = m + qg
        if mm & G:
            raise _too_large()
        s = out.get(mm, 0) - ag * v
        if s == 0:
            out.pop(mm, None)
        else:
            out[mm] = s
    return out


# -- Buchberger --------------------------------------------------------------


def _buchberger_int(triples, pk, budget, tail=None):
    """Core loop on (lm, lc, dict) triples; returns the final list of
    triples, a Groebner basis that is neither minimal nor reduced, and,
    when a tail was given, the _hilbert_tail of its leading monomials and
    the boxes of the monomials outside them (_staircase), else None and
    None.

    Each S-polynomial is reduced only until its head is irreducible
    (_reduce): its head steps are those of a full reduction, so the
    remainder is 0 exactly when the fully reduced one is, and has the same
    leading monomial otherwise.  Its tail stays unreduced, and so does
    every element's, so the S-polynomials the loop forms, and the pairs
    and steps it takes, may differ from those of a loop that reduces
    fully.  The result is still a Groebner basis: a head reduction to 0 is
    a standard representation of the S-polynomial, which is all
    Buchberger's criterion and the pair criteria below need, and the
    leading monomials of any Groebner basis of I generate in(I), so its
    minimal ones, all a request reads, are those of the reduced basis.

    Each generator and each nonzero remainder enters through the
    Gebauer-Moller update (1988).  Its pairs with the elements in play are
    grouped by lcm: a group whose lcm another group's properly divides is
    dropped (M), so is a group holding a pair of coprime leading monomials
    (product criterion), and of every other group one pair is kept (F).  A
    waiting pair is dropped when the new leading monomial divides its lcm
    and forms a different lcm with each of its two elements (B).  An
    element whose leading monomial the new one divides leaves play: it
    forms no further pairs.  Pairs are taken by least degree, then least
    lcm.  The waiting pairs (degree, lcm, i, j) are distinct and totally
    ordered, so they pop in the same order however the heap was built: it
    is rebuilt only when B drops a pair, and otherwise each new pair is
    pushed.  A new pair's lcm is checked against the guard bits unless its
    leading monomials are coprime; a coprime pair whose lcm does not fit
    is dropped unchecked and never compared.  Every lcm the B criterion
    forms divides a checked one.

    A tail (t0, e) states that the triples generate a standard-homogeneous
    ideal I in three variables with dim (R/I)_t = e for every t >= t0, and
    the loop skips the pairs whose remainder it fixes (Traverso, "Hilbert
    functions and the Buchberger algorithm", 1996).  Let M be the ideal of
    the leading monomials in play.  M lies in in(I), so
    h = dim (R/M)_t >= dim (R/I)_t = e, and h is read once per degree
    t >= t0, when its first pair is taken: every later element of degree t
    has a leading monomial outside M, and lowers h by exactly 1.  Once
    h == e, M_t = in(I)_t, so every remaining pair of degree t reduces to
    0: its remainder lies in I_t with a leading monomial outside M_t.  A
    zero remainder changes nothing, so skipping the pair leaves the basis,
    the pairs in play and every later step as they were.  Once
    dim (R/M)_u = e for every u >= t, every pair left reduces to 0, and
    the loop stops.  Both are read off _hilbert_tail of M, computed once
    for each M read: a degree whose M has not grown since the last read
    reuses it, and so does the closing check.  Each read walks the
    staircase of M (_staircase), and the loop hands over the boxes of the
    last, those of the final M.  The basis is the one the loop returns
    without the tail, pair for pair.  A wrong
    tail raises Bs3Error where it shows: h < e, or a finished basis whose
    Hilbert function is not e in every degree from t0.
    """
    G = pk.guard
    lcm_of = pk.lcm
    degree = pk.degree
    basis, play, heap = [], [], []

    def update(h):
        t, b = len(basis), h[0]
        groups = {}  # lcm -> (first element in play, coprime pair seen)
        mine = {}  # element in play -> lcm of its leading monomial and b
        for i in play:
            a = basis[i][0]
            lcm = mine[i] = lcm_of(a, b)
            coprime = lcm == a + b
            if lcm & G:
                if coprime:
                    continue
                raise _too_large()
            first, seen = groups.get(lcm, (i, False))
            groups[lcm] = (first, seen or coprime)
        # M: a proper divisor of an lcm precedes it in any monomial order,
        # and divisibility is transitive, so the kept smaller lcms suffice
        kept = []
        for lcm in sorted(groups):
            lg = lcm | G
            for m in kept:
                if (lg - m) & G == G:
                    break
            else:
                kept.append(lcm)
        # B reads the lcms with b kept above, and forms only those of
        # elements that left play
        waiting = [p for p in heap
                   if ((p[1] | G) - b) & G != G
                   or (mine.get(p[2]) or lcm_of(basis[p[2]][0], b)) == p[1]
                   or (mine.get(p[3]) or lcm_of(basis[p[3]][0], b)) == p[1]]
        new = [(degree(lcm), lcm, groups[lcm][0], t) for lcm in kept
               if not groups[lcm][1]]
        if len(waiting) < len(heap):
            heap[:] = waiting + new
            heapq.heapify(heap)
        else:
            for p in new:
                heapq.heappush(heap, p)
        play[:] = [i for i in play if ((basis[i][0] | G) - b) & G != G]
        play.append(t)
        basis.append(h)

    def in_play():
        return tuple(pk.unpack(b[0])
                     for b in _minimal([basis[i] for i in play], pk))

    def hilbert_tail():
        nonlocal boxes
        lms = in_play()
        boxes = _staircase(lms)
        return _hilbert_tail(lms, boxes)

    for g in triples:
        update(g)
    t0, e = tail or (None, None)
    read = h = None  # the degree h was read in, and dim (R/M)_read
    known = None  # _hilbert_tail of M, once read and until M grows
    boxes = None  # the monomials outside M at the last read
    while heap:
        t = heap[0][0]
        if tail and t >= t0:
            if t != read:
                hf, stable = known = known or hilbert_tail()
                if stable == e and all(v == e for v in hf[t:]):
                    break
                read, h = t, _hilbert_values(known, t)[t]
                if h < e:
                    raise Bs3Error("internal inconsistency: check 'Hilbert "
                                   "tail' failed: dim (R/in I)_%d is at "
                                   "most %d, below the proven %d" % (t, h, e))
            if h == e:
                heapq.heappop(heap)
                continue
        _, lcm, i, j = heapq.heappop(heap)
        r = _reduce(_s_poly_int(basis[i], basis[j], lcm, pk, budget), basis,
                    pk, budget)
        if r:
            update(_int_triple(r))
            known = None
            if read == t:
                h -= 1
    if tail:
        hf, stable = known = known or hilbert_tail()
        if stable != e or any(v != e for v in hf[t0:]):
            raise Bs3Error("internal inconsistency: check 'Hilbert tail' "
                           "failed: dim (R/in I)_t is not %d for some "
                           "t >= %d" % (e, t0))
    return basis, known, boxes


def buchberger(ideal):
    """A minimal graded reverse lex Groebner basis of an ideal, whose
    leading monomials are the reduced basis's (GroebnerBasis): Buchberger's
    loop, then _minimal, with no interreduction.

    The ideal keeps the basis once the run returns, and every later call
    on that ideal returns it with no step spent; a run that raises keeps
    nothing.  The pipeline reads one request's basis from several entry
    points, and each request builds its own ideals.  Outside any
    step_budget block a run opens one of its own, so the staircase walks
    it makes spend from the budget its reductions do.
    """
    if ideal._basis is None:
        if _OPEN_BUDGET.get() is None:
            with step_budget():
                return buchberger(ideal)
        pk = _packing(ideal.variable_count)
        triples, tail, boxes = _buchberger_int(ideal._triples, pk, _budget(),
                                               ideal.hilbert_tail)
        ideal._basis = GroebnerBasis(pk, _minimal(triples, pk), tail, boxes)
    return ideal._basis


def _minimal(triples, pk):
    """The triples, smallest leading monomial first, without those whose
    leading monomial an earlier one divides."""
    G = pk.guard
    kept = []
    for b in sorted(triples, key=itemgetter(0)):
        bg = b[0] | G
        for k in kept:
            if (bg - k[0]) & G == G:
                break
        else:
            kept.append(b)
    return kept


# -- saturation with respect to the irrelevant maximal ideal -----------------


def _is_artinian(lead_monomials):
    """A power of every variable (or 1) among the leading monomials."""
    return all(any(sum(m) == m[i] for m in lead_monomials) for i in range(3))


def _is_saturated(lead_monomials):
    """M : m = M for M generated by the monomials: R/M has no socle
    monomial.  On the staircase of M (_staircase), x^a y^b z^c is a socle
    monomial exactly when c = low(a, b) - 1 >= 0 and low drops at both
    a + 1 and b + 1.  In row a, low drops in y only at a corner
    (b1, .) past the first, from the previous corner's c, so the candidates
    are x^a y^(b1 - 1) z^(c - 1); low drops in x only where a generator
    enters, so a is one below the next row with a new generator, and the
    candidate is a socle monomial when that row's low at b1 - 1, read with
    one bisect on its corners, is below c.  One step per generator and one
    per drop compared.

    The test walks the corners itself rather than read the boxes a basis
    keeps: it runs first under weights other than (1, 1, 1), where no
    boxes exist yet, and a saturated in(I) then needs no walk at all.  On
    the 160 lqh Jacobians of seeds 0-19 (tests/test_groebner.lqh_jacobians,
    one core of a Xeon) this walk takes 5.7 us a call, a socle test over
    boxes 3.4 us once they exist but 10.5 us with the walk that lists
    them, and that version reads the next row's low at a column no box
    holds with an index and a bisect of its own, so it saves no line."""
    gens = sorted(lead_monomials)
    budget = _budget()
    budget.spend(len(gens))
    corner_b, corner_c = [], []  # b ascending, c descending
    for _, row in groupby(gens, itemgetter(0)):
        drops = list(zip(corner_b[1:], corner_c))
        for m in row:
            _add_corner(corner_b, corner_c, m)
        budget.spend(len(drops))
        for b1, c in drops:
            if corner_c[bisect_right(corner_b, b1 - 1) - 1] < c:
                return False
    return True


def _dimension_at_most_one(lead_monomials):
    """dim R/M <= 1 for M generated by the monomials: no variable divides
    all of them.  The minimal primes of M are generated by variables, so
    dim R/M = 2 exactly when one of them is some (x_i), which holds M."""
    return all(any(not m[i] for m in lead_monomials) for i in range(3))


def _lcm_degree(lead_monomials):
    """Degree of the lcm of the monomials, 0 for none."""
    return sum(map(max, zip(*lead_monomials)))


def _add_corner(corner_b, corner_c, monomial):
    """Enter x^a y^b z^c into a row's corner lists (b ascending, c
    descending) as the corner (b, c), unless an earlier corner divides it
    in b and c; the corners it divides leave."""
    _, b, c = monomial
    j = bisect_right(corner_b, b)
    if j and corner_c[j - 1] <= c:
        return
    j = k = bisect_left(corner_b, b, 0, j)
    while k < len(corner_c) and corner_c[k] >= c:
        k += 1
    corner_b[j:k] = [b]
    corner_c[j:k] = [c]


def _staircase(lead_monomials):
    """The monomials outside M, M generated by the monomials, as boxes
    (a0, a1, b0, b1, 0, low), each the monomials x^a y^b z^c with
    a0 <= a < a1, b0 <= b < b1 and c < low, every extent cut at
    _UNBOUNDED: above every exponent, so an extent that reaches it is
    unbounded, and above the degree of the lcm of any monomials, so every
    monomial of a degree a Hilbert tail of M reads lies below it in each
    exponent.  low(a, b) is the same on all of a box, and no two boxes
    share a pair (a, b).

    x^a y^b z^c lies outside M iff c is below low(a, b), the least
    z-exponent of a generator dividing x^a y^b in x and y.  Row a of low
    is a step function of b, stepping down at the corners (b', c') of the
    generators with x-exponent at most a that no other one beats in both
    (_add_corner).  The rows from one generator's x-exponent to the next
    hold the same corners, so the walk visits each such row range once,
    every generator entering the one corner list as the range reaches it,
    and each column range on which low is constant and positive makes one
    box with the whole row range.  The budget is charged for every
    generator before the walk, and for each row range before its boxes
    are listed, one step per corner."""
    gens = sorted(lead_monomials)
    budget = _budget()
    budget.spend(len(gens))
    corner_b, corner_c = [], []  # b ascending, c descending
    boxes = []
    a0 = k = 0
    while a0 < _UNBOUNDED:
        while k < len(gens) and gens[k][0] == a0:
            _add_corner(corner_b, corner_c, gens[k])
            k += 1
        a1 = gens[k][0] if k < len(gens) else _UNBOUNDED
        budget.spend(len(corner_b))
        b0 = 0  # low is _UNBOUNDED before the first corner
        for b1, low in zip(corner_b + [_UNBOUNDED], [_UNBOUNDED] + corner_c):
            if b0 < b1 and low:
                boxes.append((a0, a1, b0, b1, 0, low))
            b0 = b1
        a0 = a1
    return boxes


def _cut_orthant(boxes, monomial):
    """(kept, removed): the boxes of the monomials outside M + (m), and
    those of the monomials of (m) outside M, from the boxes of the
    monomials outside M (_staircase, or a cut of it).  m divides exactly
    the monomials at or past it in every exponent, so a box that meets
    that orthant keeps at most three parts, its part below m in x, its
    part at or past m in x and below it in y, and its part at or past m in
    x and y and below it in z, and gives up the rest, one box with its far
    ends.  Each kept part keeps its box's z-range for its pairs (a, b), so
    a cut of the staircase keeps the form _staircase lists it in.  One
    step per box compared."""
    a, b, c = monomial
    _budget().spend(len(boxes))
    kept, removed = [], []
    for box in boxes:
        a0, a1, b0, b1, c0, c1 = box
        if a1 <= a or b1 <= b or c1 <= c:
            kept.append(box)
            continue
        if a0 < a:
            kept.append((a0, a, b0, b1, c0, c1))
            a0 = a
        if b0 < b:
            kept.append((a0, a1, b0, b, c0, c1))
            b0 = b
        if c0 < c:
            kept.append((a0, a1, b0, b1, c0, c))
            c0 = c
        removed.append((a0, a1, b0, b1, c0, c1))
    return kept, removed


def _saturation_excess(lms_i, boxes, lms_j):
    """The monomials of in(J) outside in(I), for generators of in(I) and of
    in(J), I in J, and the boxes of the monomials outside in(I)
    (_staircase): the tuple of boxes the cuts of those boxes by each
    generator of in(J) remove (_cut_orthant), or None at the first
    unbounded one, when they are infinitely many.

    A generator of in(I) that no generator of in(J) divides is an internal
    inconsistency, Bs3Error; the check spends one step per pair it
    compares.  Then in(I) lies in in(J), so the monomials of in(J) outside
    in(I) are those outside in(I) that some generator n of in(J) divides,
    and the cut by n removes exactly those that no earlier generator
    divides: the removed parts are disjoint and together list them.  A
    generator shared with in(I) divides no monomial outside in(I), so it
    is not cut by.  A removed part keeps its box's far ends, and a box of
    the staircase with a far end at _UNBOUNDED is unbounded, so a part
    reaching it holds infinitely many monomials; every other part is
    finite.  A finite difference lies below the lcm of in(I) in each
    exponent: past the largest x- or y-exponent of its generators the
    staircase of in(I) is constant, so a monomial of the difference out
    there would repeat forever, as would one under an infinite low.  So
    the lcm of in(J) divides that of in(I)."""
    budget = _budget()
    for m in lms_i:
        for pairs, n in enumerate(lms_j, 1):
            if n[0] <= m[0] and n[1] <= m[1] and n[2] <= m[2]:
                break
        else:
            raise Bs3Error("internal inconsistency: saturation smaller than "
                           "the ideal: x^%d*y^%d*z^%d lies in in(I) only" % m)
        budget.spend(pairs)
    shared = set(lms_i)
    excess = []
    for n in lms_j:
        if n not in shared:
            boxes, removed = _cut_orthant(boxes, n)
            if any(_UNBOUNDED in box for box in removed):
                return None
            excess += removed
    return tuple(excess)


def _excess_degrees(boxes, weights, top=None):
    """[the number of box monomials of weighted degree t for t = 0..top],
    top by default the largest such degree.  A box's degrees are the sums
    of three strided ranges, so it enters a third-difference array as its
    eight corners, those past top dropped since the prefix sums only carry
    upward, and one prefix pass per weight, of that stride, counts every
    box at once.  The budget is charged for every degree before the degree
    list is built; the walk or the cut that listed the boxes was charged
    for each."""
    wx, wy, wz = weights
    if top is None:
        top = max(((a1 - 1) * wx + (b1 - 1) * wy + (c1 - 1) * wz
                   for _, a1, _, b1, _, c1 in boxes), default=-1)
    end = max(top + 1, 0)
    _budget().spend(end)
    values = [0] * (end + 1)  # entry end gathers the corners past top
    for a0, a1, b0, b1, c0, c1 in boxes:
        s = a0 * wx + b0 * wy + c0 * wz
        da, db, dc = (a1 - a0) * wx, (b1 - b0) * wy, (c1 - c0) * wz
        # a corner with an even number of far ends adds, an odd one takes
        for t in s, s + da + db, s + da + dc, s + db + dc:
            values[t if t < end else end] += 1
        for t in s + da, s + db, s + dc, s + da + db + dc:
            values[t if t < end else end] -= 1
    del values[end]
    for stride in weights:
        for r in range(min(stride, len(values))):
            values[r::stride] = accumulate(values[r::stride])
    return values


def _hilbert_tail(lead_monomials, boxes):
    """(dim (R/M)_t for t = 0..s + 2), s = max(deg lcm(M) - 2, 0), and the
    value e of the Hilbert polynomial of R/M if it is constant, else None
    (dim R/M > 1), counted over the boxes of the monomials outside M
    (_staircase): deg lcm(M) is at most 3 * MAX_DEGREE, so they hold every
    monomial of a degree counted.  From s on the Hilbert function is that
    polynomial: the Taylor resolution puts every syzygy of M in a degree
    at most deg lcm(M), so the Hilbert series is K(t)/(1-t)^3 with
    deg K <= deg lcm(M).  Its degree is at most two, so three values from
    s decide it.  A request reads the tail of in(I) off
    its basis (GroebnerBasis.tail), which computes it at most once."""
    s = max(_lcm_degree(lead_monomials) - 2, 0)
    hf = tuple(_excess_degrees(boxes, (1, 1, 1), s + 2))
    return hf, hf[s] if hf[s] == hf[s + 1] == hf[s + 2] else None


def _hilbert_values(tail, top):
    """[dim (R/M)_t for t = 0..top] under (1, 1, 1), for a top a theorem
    bounds, from the _hilbert_tail of M given: the tail and past it the
    Hilbert polynomial, carried from the tail's last three values by
    Newton's forward differences, with no step charged.  No caller reads a
    degree of its own choosing."""
    hf, _ = tail
    s = len(hf) - 3
    v, d1, d2 = hf[s], hf[s + 1] - hf[s], hf[s + 2] - 2 * hf[s + 1] + hf[s]
    return list(hf[:max(top + 1, 0)]) + [
        v + k * d1 + k * (k - 1) // 2 * d2 for k in range(3, top + 1 - s)]


def _z_colon_excess(boxes):
    """The monomials of in(I) : z^infinity outside in(I), from the boxes
    of the monomials outside in(I) (_staircase): the tuple of those boxes,
    or None when they are infinitely many.  in(I) : z^infinity holds
    x^a y^b z^c exactly when some power of z times x^a y^b lies in in(I),
    that is when low(a, b) is finite, so those monomials are the boxes
    with a finite z-extent, and they are infinitely many exactly when one
    of them is unbounded in x or y."""
    excess = tuple(box for box in boxes if box[5] < _UNBOUNDED)
    if any(_UNBOUNDED in box for box in excess):
        return None
    return excess


def _saturate_by_z(gb):
    """Minimal leading monomials of a grevlex basis of I : z^infinity, for
    standard-homogeneous I with grevlex basis gb (Bayer-Stillman, module
    docstring).  A homogeneous grevlex basis element's largest power of z
    is the one in its leading term, so dividing the leading monomial by it
    is all the division the colon needs."""
    pk = gb.packing
    Z = pk.coeffs[2]
    divided = [(b[0] - pk.exponent(b[0], 2) * Z,) for b in gb._int_basis]
    return tuple(pk.unpack(m) for m, in _minimal(divided, pk))


def _moment_form(weights):
    """The monomials (m_0, m_1, m_2) = (z^(D/w_z), x^(D/w_x), y^(D/w_y)),
    D = lcm(w), of the moment form l_c = m_0 + c*m_1 + c^2*m_2."""
    wx, wy, wz = weights
    D = lcm(*weights)
    return ((0, 0, D // wz), (D // wx, 0, 0), (0, D // wy, 0))


def _weighted_colon(ideal, weights, c):
    """Leading monomials of a grevlex basis of I : l_c^infinity, l_c the
    moment form of the weights: the t-free minimal leading monomials, t
    dropped, of a basis of (I, t*l_c - 1) under the block order lex on t,
    then grevlex.  The colon is that ideal's part without t, and a basis
    element with a t-free leading monomial is t-free throughout, so those
    elements are a grevlex basis of it (elimination theorem), and _minimal
    lists their leading monomials as the reduced basis does.  I's triples
    are lifted field by field into the block packing: on t-free monomials
    the block order is grevlex, so each keeps its leading term."""
    pk = _BLOCK
    (sx, sy, sz), (_, cx, cy, cz) = _GREVLEX.shifts, pk.coeffs

    def lift(m):
        return ((m >> sx & MAX_DEGREE) * cx + (m >> sy & MAX_DEGREE) * cy
                + (m >> sz & MAX_DEGREE) * cz)

    form = {0: -1}
    for k, m in enumerate(_moment_form(weights)):
        if c ** k:
            form[pk.pack((1,) + m)] = c ** k
    gens = [(lift(lm), lc, {lift(m): v for m, v in d.items()})
            for lm, lc, d in ideal._triples]
    raw, _, _ = _buchberger_int(gens + [_int_triple(form)], pk, _budget())
    return tuple(pk.unpack(m)[1:] for m, _, _ in _minimal(raw, pk)
                 if not pk.exponent(m, 0))


def saturated_leading_monomials(ideal, weights):
    """(c, M) for I : (x, y, z)^infinity, I graded by the positive integer
    weights: M the leading monomials of the reduced grevlex basis of the
    saturation in the input's coordinates, the same under any weights that
    grade I, and c the certified colon I : l_c^infinity it equals, l_c the
    moment form of the weights, or None when no colon is computed: when I
    is Artinian, or when in(I) is saturated, and so is I (module
    docstring).  The weights may be any sequence of three ints, read as a
    tuple; a weight that is not an int (a bool or a float is not), weights
    that are not positive or do not make every generator homogeneous are
    refused with PreconditionError before any basis work.  A colon by z
    read off the boxes of in(I) (_saturate) is divided out of the basis of
    I here (_saturate_by_z), the only reader of its monomials, and the
    division is checked against the boxes: its monomials outside in(I),
    cut out of the staircase of in(I) (_saturation_excess), must be
    finitely many, which puts every monomial it gives in in(I) :
    z^infinity, and then as many as the boxes hold."""
    c, sat, boxes = _saturate(ideal, weights)
    if sat is None:
        gb = buchberger(ideal)
        sat = _saturate_by_z(gb)
        divided = _saturation_excess(gb.leading_monomials, gb._boxes, sat)
        if divided is None or _volume(divided) != _volume(boxes):
            raise Bs3Error("internal inconsistency: check 'colon by z' "
                           "failed: the basis divided by z does not give "
                           "in(I) : z^infinity")
    return c, sat


def _volume(boxes):
    """The number of monomials the finite boxes hold."""
    return sum((a1 - a0) * (b1 - b0) * (c1 - c0)
               for a0, a1, b0, b1, c0, c1 in boxes)


def _saturate(ideal, weights):
    """(c, M, boxes): saturated_leading_monomials's (c, M), and the boxes
    of the monomials of M outside in(I), which H0 counts: the staircase of
    in(I) the basis keeps (GroebnerBasis._boxes) when I is Artinian, none
    when in(I) is saturated, the boxes of in(I) : z^infinity outside in(I)
    (_z_colon_excess) when c = 0, and the certificate's own boxes, cut out
    of that staircase (_saturation_excess), when a colon c >= 1 is
    certified.  When c = 0, M is None: in(I : z^infinity) = in(I) :
    z^infinity (Bayer-Stillman), so the certificate reads that colon off
    the boxes the basis keeps, and only saturated_leading_monomials
    divides the basis for its monomials.

    Under standard weights, when I is not Artinian, the colon by z is
    read first.  No excess at all means z is a nonzerodivisor on R/in(I),
    so in(I) is saturated and I^sat = I.  A finite nonempty excess is a
    nonzero submodule of H0_m(R/in(I)), so in(I) is not saturated, and the
    certificate passes c = 0.  An infinite excess refuses c = 0.  So the
    socle test (_is_saturated) runs only where the colon by z is refused,
    or under other weights, and every (c, M) is the one of the route that
    tests the socle first.

    The colon loop reads e, the constant Hilbert polynomial of R/in(I)
    that bounds it by c <= first + 2e (module docstring), only once c
    passes first + 2.  It needs no e before: the colon route is reached
    only when in(I) is neither Artinian nor saturated, so dim R/I >= 1,
    and a constant Hilbert polynomial is then e >= 1, so first, first + 1
    and first + 2 all lie within first + 2e.  When e is None (dim R/I = 2)
    the loop has no bound, and the request's step budget ends it.  Under
    weights other than (1, 1, 1) most colons pass at c = first or
    first + 1, and then the basis computes the tail of in(I) only if
    another caller reads it (GroebnerBasis.tail)."""
    if ideal.variable_count != 3:
        raise PreconditionError("irrelevant-ideal saturation needs 3 variables")
    weights = tuple(weights)
    if len(weights) != 3:
        raise PreconditionError("irrelevant-ideal saturation needs 3 weights")
    if any(w.__class__ is not int for w in weights):
        raise PreconditionError("irrelevant-ideal saturation needs integer "
                                "weights, got %r" % (weights,))
    if min(weights) <= 0:
        raise PreconditionError("irrelevant-ideal saturation needs positive "
                                "weights")
    # the weighted degrees are read off the packed fields
    (sx, sy, sz), (wx, wy, wz) = _GREVLEX.shifts, weights
    for i, (_, _, d) in enumerate(ideal._triples):
        if len({(m >> sx & MAX_DEGREE) * wx + (m >> sy & MAX_DEGREE) * wy
                + (m >> sz & MAX_DEGREE) * wz for m in d}) > 1:
            raise PreconditionError("generator %s is not homogeneous for the "
                                    "given weights" % ideal.generators[i])
    gb = buchberger(ideal)
    lms = gb.leading_monomials
    if _is_artinian(lms):
        boxes = tuple(gb._boxes)
        if any(_UNBOUNDED in box for box in boxes):
            raise Bs3Error("internal inconsistency: check 'finite H0' failed: "
                           "in(I^sat) has infinitely many monomials outside "
                           "in(I)")
        return None, ((0, 0, 0),), boxes
    # under other weights l_0, a power of z, vanishes on all of z = 0
    first = 0 if weights == (1, 1, 1) else 1
    if first == 0:
        boxes = _z_colon_excess(gb._boxes)
        if boxes == ():
            return None, lms, ()
        if boxes is not None:
            return 0, None, boxes
    if _is_saturated(lms):
        return None, lms, ()
    e = None
    for c in count(1):
        if c == first + 3:
            _, e = gb.tail
        if e is not None and c > first + 2 * e:
            break
        sat = _weighted_colon(ideal, weights, c)
        boxes = _saturation_excess(lms, gb._boxes, sat)
        if boxes is not None:
            return c, sat, boxes
    form = " + ".join(p + str(Polynomial({m: 1}, 3)) for p, m in
                      zip(("", "c*", "c^2*"), _moment_form(weights)))
    raise Bs3Error("internal: no colon by %s with %d <= c <= %d keeps the "
                   "Hilbert polynomial, though V(I) has at most %d points"
                   % (form, first, first + 2 * e, e))
