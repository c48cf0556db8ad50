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
primitive one that stripping after every step leaves.  A
GroebnerBasis holds only the packed integer triples (lm, lc, primitive
dict) of a minimal basis.  Fractions appear only where a value leaves the
program: generators are cleared of denominators on the way in, and monic
Polynomials are built only when GroebnerBasis.elements is read, never on
a request.

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
its guard bit, and no borrow crosses a field.

Every field is a sum of exponents, so none exceeds the total degree, and a
monomial enters only if its total degree is at most MAX_DEGREE = 2^15 - 1.
A sum of two packed monomials then has fields below 2^16, and a field past
MAX_DEGREE shows as a set guard bit: every product that can pass the bound
is checked, and one that does raises ResourceLimitError.  A field never
wraps silently.

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
* in(I) saturated: when the monomial ideal in(I) : m is in(I)
  (_is_saturated), I^sat = I, and in(I) is returned with no colon.  The
  normal form r of an f in I^sat lies in I^sat too.  Were r nonzero,
  m^k*r would lie in I for some k, so u*in(r) = in(u*r) would lie in in(I)
  for every monomial u of degree k, and in(r) in in(I) : m^k = in(I),
  though no term of r is in in(I).  So r = 0 and f lies in I.  No weight,
  grading or dimension is used.  The test is sufficient, not necessary: a
  saturated I can have an unsaturated in(I), and then takes the colon
  below.
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
gives a grevlex basis of I : z^infinity (Bayer-Stillman), so c = 0 costs
only a division of the cached basis (_saturate_by_z).  Every other colon
is one elimination in the same coordinates, one Buchberger run on
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

The certificate and H0 = I^sat/I read one pass over the staircases of
in(I) and in(J) (_saturation_excess), which lists the monomials of in(J)
outside in(I) as runs of z-powers, or finds them infinite, with no
window: each staircase is constant past the largest x- and y-exponent of
the generators, so a monomial of the difference out there repeats
forever, and a finite difference lies below the lcm of in(I).  Each
route hands its runs on with the monomials (_saturate): the certified
colon its certificate's, the Artinian route one pass against (1), and a
saturated in(I) none.  Counted by weighted degree (_excess_degrees) the
runs are H0, and HF(R/I^sat) = HF(R/I) - H0 (graded module docstring).

Every staircase read walks the same rows: the generators sorted by their
x-exponent enter one corner list (_add_corner) as row a reaches them,
and the engine (_hilbert_function), the socle test (_is_saturated) and
the excess pass read each row off its corners.

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
from functools import lru_cache
from itertools import count, groupby
from math import gcd, lcm
from operator import itemgetter, mul

from .polyring import Bs3Error, Polynomial, PreconditionError

DEFAULT_STEP_CAP = 10_000_000
MAX_DEGREE = (1 << 15) - 1
_FIELD = 16


class ResourceLimitError(Bs3Error):
    """Raised when a computation exceeds its step cap or a monomial's total
    degree exceeds MAX_DEGREE."""


def _too_large():
    return ResourceLimitError(
        "exponents too large: a monomial of total degree above %d"
        % MAX_DEGREE)


class _Budget:
    """Steps spent against a cap: a reduction step or an S-pair, one step
    and one more per 64-bit word past the first of each of the two
    coefficients it scales by (_scaling_steps), a reduction step's head as
    it holds it, at most twice its bits at the last strip of its content
    plus one word (_reduce); a generator or degree of
    the graded engine (_hilbert_function), charged before it builds its
    degree list, or a column, charged row by row before the row is
    walked; a generator or a compared drop of the socle test
    (_is_saturated); a generator or column range of the excess pass
    (_saturation_excess), or a column or degree of the count of its runs
    (_excess_degrees); or in an arrangement a pair of lines of the
    lattice, spent on its first read (validate spends none), a point a
    candidate free line is tested against, up to the first it passes
    through (_free_line), an entry of a length-3 relation vector, d per
    vector (_length3_relations), a row operation of linalg.rank, priced by
    the words of its two multipliers as a reduction step is, or a term
    product of the polynomial.  Every count is deterministic."""

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
    steps spent so far.  A cached basis costs nothing when reused."""
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
    degree, and the pairs (shift, C_i) that lcm walks."""

    __slots__ = ("n", "lead", "coeffs", "guard", "shifts", "degree_shift",
                 "raw_fields")

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

    def pack(self, m):
        if sum(m) > MAX_DEGREE:
            raise _too_large()
        return sum(map(mul, m, self.coeffs))

    def unpack(self, p):
        return tuple(p >> s & MAX_DEGREE for s in self.shifts)

    def degree(self, p):
        return p >> self.degree_shift & MAX_DEGREE

    def exponent(self, p, i):
        return p >> self.shifts[i] & MAX_DEGREE

    def lcm(self, a, b):
        """lcm(a, b), unchecked: a field of it is at most the sum of the
        fields of a and b, below 2^16, so its guard bit tells whether it
        passed MAX_DEGREE.  (b | G) - a holds 2^15 + b_i - a_i in the field
        of each raw exponent, and a gains the positive differences.  Its
        pairs (shift, C_i) are zipped once, with the packing: a run forms
        an lcm for every pair it weighs."""
        d = (b | self.guard) - a
        for s, c in self.raw_fields:
            e = (d >> s & 0xFFFF) - 0x8000
            if e > 0:
                a += e * c
        return a


@lru_cache(maxsize=None)
def _packing(n, lead=0):
    return _Packing(n, lead)


class Ideal:
    """An ideal given by a finite list of generators.

    The zero ideal is represented by an empty generator tuple.
    `hilbert_tail`, None or (t0, e), is a proven fact the caller hands to
    the ideal's Buchberger runs: the generators are standard-homogeneous
    and dim (R/I)_t = e for every t >= t0 (_buchberger_int).
    """

    __slots__ = ("generators", "variable_count", "hilbert_tail", "_hash")

    def __init__(self, generators, variable_count=None, hilbert_tail=None):
        gens = tuple(g for g in generators if not g.is_zero())
        if variable_count is None:
            if not gens:
                raise ValueError("variable_count required for the zero ideal")
            variable_count = gens[0].variable_count
        for g in gens:
            if g.variable_count != variable_count:
                raise ValueError("mixed variable counts among generators")
        self.generators = gens
        self.variable_count = variable_count
        self.hilbert_tail = hilbert_tail
        self._hash = None

    def is_zero(self):
        return not self.generators

    def __eq__(self, other):
        # literal generator comparison; use groebner bases for true equality.
        # The tail takes part, so a run under a wrong tail, which may end in
        # a wrong basis, is never cached for the ideal without one.
        return (isinstance(other, Ideal)
                and self.variable_count == other.variable_count
                and self.generators == other.generators
                and self.hilbert_tail == other.hilbert_tail)

    def __hash__(self):
        # computed on the first lookup and kept: each buchberger() lookup
        # hashes the ideal, and a generator's hash walks all its terms
        if self._hash is None:
            self._hash = hash((self.variable_count, self.generators,
                               self.hilbert_tail))
        return self._hash

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
    times."""

    __slots__ = ("packing", "_int_basis", "leading_monomials")

    def __init__(self, packing, triples):
        self.packing = packing
        self._int_basis = tuple(triples)
        unpack = packing.unpack
        self.leading_monomials = tuple(unpack(b[0]) for b in self._int_basis)

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


def _to_int_poly(p, pk):
    """Polynomial -> (lead mono, lead coeff, primitive int dict), lead > 0."""
    return _int_triple({pk.pack(m): v for m, v in _int_terms(p)[0].items()})


def _int_triple(d):
    """Nonzero int dict -> (lead mono, lead coeff > 0, primitive dict)."""
    d = _strip_content(d)
    lm = max(d)
    if d[lm] < 0:
        d = {m: -v for m, v in d.items()}
    return (lm, d[lm], d)


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
    triples, a Groebner basis that is neither minimal nor reduced.

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
    dim (R/M)_u = e for every u >= t (the memoized _hilbert_tail of M),
    every pair left reduces to 0, and the loop stops.  The basis is the
    one the loop returns without the tail, pair for pair.  A wrong tail
    raises Bs3Error where it shows: h < e, or a finished basis whose
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

    for g in triples:
        update(g)
    t0, e = tail or (None, None)
    read = h = None  # the degree h was read in, and dim (R/M)_read
    while heap:
        t = heap[0][0]
        if tail and t >= t0:
            if t != read:
                lms = in_play()
                if _stable_from(lms, t, e):
                    break
                read, h = t, _hilbert_values(lms, t)[t]
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
            if read == t:
                h -= 1
    else:
        lms = in_play() if tail else ()
    # a stable test that ends the loop read the leading monomials in play
    if tail and not _stable_from(lms, t0, e):
        raise Bs3Error("internal inconsistency: check 'Hilbert tail' "
                       "failed: dim (R/in I)_t is not %d for some t >= %d"
                       % (e, t0))
    return basis


def buchberger(ideal):
    """A minimal graded reverse lex Groebner basis of an ideal, whose
    leading monomials are the reduced basis's (GroebnerBasis).

    Results are memoized: the function is pure and the pipeline asks for
    the same basis from several entry points.
    """
    return _buchberger_cached(ideal)


@lru_cache(maxsize=64)
def _buchberger_cached(ideal):
    """Buchberger's loop, then _minimal; no interreduction."""
    pk = _packing(ideal.variable_count)
    return GroebnerBasis(pk, _minimal(_buchberger_int(
        [_to_int_poly(g, pk) for g in ideal.generators], pk, _budget(),
        ideal.hilbert_tail), pk))


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
    monomial.  On the staircase of _hilbert_function, x^a y^b z^c is a
    socle monomial exactly when c = low(a, b) - 1 >= 0 and low drops at
    both a + 1 and b + 1.  In row a, low drops in y only at a corner
    (b1, .) past the first, from the previous corner's c, so the candidates
    are x^a y^(b1 - 1) z^(c - 1); low drops in x only where a generator
    enters, so a is one below the next row with a new generator, and the
    candidate is a socle monomial when that row's low at b1 - 1, read with
    one bisect on its corners, is below c.  One step per generator and
    one per drop compared."""
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


def _lcm_degree(lead_monomials, weights=(1, 1, 1)):
    """Weighted degree of the lcm of the monomials."""
    return sum(w * max((m[i] for m in lead_monomials), default=0)
               for i, w in enumerate(weights))


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


def _add_runs(values, starts, shift):
    """Enter into the difference array values, of stride w_z, one z-run per
    degree s of the range starts: the degrees s, s + w_z, ..., below
    s + shift.  A run that ends past the last degree has no end mark."""
    ends = max(0, (len(values) - 1 - shift - starts.start) // starts.step + 1)
    for s in starts[:ends]:
        values[s] += 1
        values[s + shift] -= 1
    for s in starts[ends:]:
        values[s] += 1


def _sum_runs(values, wz):
    """The counts per degree of the runs a difference array of stride w_z
    holds."""
    for t in range(wz, len(values)):
        values[t] += values[t - wz]
    return values


def _hilbert_function(lead_monomials, top, weights=(1, 1, 1)):
    """[dim (R/M)_t for t = 0..top], M generated by the monomials and
    graded by the positive integer weights.

    x^a y^b z^c is outside M iff c is below low(a, b), the least
    z-exponent of a generator dividing x^a y^b in x and y.  Row a of low
    is a step function of b, stepping down at the corners (b', c') of the
    generators with x-exponent at most a that no other one beats in both;
    the rows are visited in order and each generator enters the corner
    list once.  Each column (a, b) with low(a, b) > 0 adds one to the
    degrees s, s + w_z, ... of its z-powers below low(a, b), a run kept as
    two entries of a difference array of stride w_z, so the cost is one
    step per generator, one per column and one per degree.  Row a has
    (top - a*w_x)//w_y + 1 columns of degree at most top, and low(a, b) = 0
    from the last corner on when that corner is z-free, so its span is the
    lesser of the two; spans only fall as a grows, and the walk ends at
    the first that is not positive.  The budget is charged for every
    generator and degree before the degree list is built, and for each
    row's span before that row is walked.
    """
    wx, wy, wz = weights
    gens = sorted(lead_monomials)
    budget = _budget()
    budget.spend(len(gens) + max(top + 1, 0))
    unbounded = top // wz + 1
    corner_b, corner_c = [], []  # b ascending, c descending
    values = [0] * (top + 1)
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
        budget.spend(span)
        b, run = 0, unbounded
        for step_b, step_c in zip(corner_b + [span], corner_c + [0]):
            step_b = min(step_b, span)
            _add_runs(values, range(a * wx + b * wy, a * wx + step_b * wy, wy),
                      run * wz)
            if step_b == span:
                break
            b, run = step_b, step_c
    return _sum_runs(values, wz)


@lru_cache(maxsize=64)
def _hilbert_tail(lead_monomials):
    """(dim (R/M)_t for t = 0..s + 2), s = max(deg lcm(M) - 2, 0), and the
    value e of the Hilbert polynomial of R/M if it is constant, else None
    (dim R/M > 1).  From s on the Hilbert function is that polynomial: the
    Taylor resolution puts every syzygy of M in a degree at most
    deg lcm(M), so the Hilbert series is K(t)/(1-t)^3 with
    deg K <= deg lcm(M).  Its degree is at most two, so three values from s
    decide it.  Memoized: a request reads the tail of in(I) and of
    in(I^sat) from several places, and each is computed once."""
    s = max(_lcm_degree(lead_monomials) - 2, 0)
    hf = tuple(_hilbert_function(lead_monomials, s + 2))
    return hf, hf[s] if hf[s] == hf[s + 1] == hf[s + 2] else None


def _hilbert_values(lead_monomials, top):
    """[dim (R/M)_t for t = 0..top] under (1, 1, 1), for a top a theorem
    bounds: the memoized tail and past it the Hilbert polynomial, carried
    from the tail's last three values by Newton's forward differences, with
    no step charged.  No caller reads a degree of its own choosing."""
    hf, _ = _hilbert_tail(lead_monomials)
    s = len(hf) - 3
    v, d1, d2 = hf[s], hf[s + 1] - hf[s], hf[s + 2] - 2 * hf[s + 1] + hf[s]
    return list(hf[:max(top + 1, 0)]) + [
        v + k * d1 + k * (k - 1) // 2 * d2 for k in range(3, top + 1 - s)]


def _stable_from(lead_monomials, t, e):
    """dim (R/M)_u = e for every u >= t."""
    hf, stable = _hilbert_tail(lead_monomials)
    return stable == e and all(v == e for v in hf[t:])


def _saturation_excess(lms_i, lms_j):
    """The monomials of in(J) outside in(I), for generators of in(I) and of
    in(J), I in J: a tuple of runs (a, b0, b1, c0, c1), each the monomials
    x^a y^b z^c with b0 <= b < b1 and c0 <= c < c1, or None when they are
    infinitely many.  A monomial of in(I) outside in(J) is an
    internal inconsistency, Bs3Error.

    One walk over both staircases of _hilbert_function: row a holds the
    corners of each ideal's generators with x-exponent at most a, and each
    range of columns b on which both lows are constant is compared once.
    A range where low_J(a, b) < low_I(a, b) is a run.  Past the largest
    x-exponent A of both generator sets no corner enters, so row A is
    every row a >= A, and past the last corner the range runs to every
    b; a run there, or one under an infinite low_I, repeats forever.  So a
    finite difference lies in [0, A) x [0, B), B the largest y-exponent,
    and below the largest z-exponent of in(I): the lcm of in(J) divides
    that of in(I).  The budget is charged for every generator before the
    walk, and in each row for its column ranges, at most one more than
    the corners, before they are compared."""
    gens = sorted([(m, 0) for m in lms_i] + [(m, 1) for m in lms_j])
    last = gens[-1][0][0]
    budget = _budget()
    budget.spend(len(gens))
    top = MAX_DEGREE + 1  # low where no generator divides
    corners = ([], []), ([], [])  # per ideal: b ascending, c descending
    runs = []
    entered = 0
    for a in range(last + 1):
        while entered < len(gens) and gens[entered][0][0] <= a:
            m, k = gens[entered]
            _add_corner(*corners[k], m)
            entered += 1
        (bi, ci), (bj, cj) = corners
        budget.spend(len(bi) + len(bj) + 1)
        b, low_i, low_j = 0, top, top
        p = q = 0
        while True:
            step = min(bi[p] if p < len(bi) else top,
                       bj[q] if q < len(bj) else top)
            if low_j != low_i:
                if low_j > low_i:
                    raise Bs3Error("internal inconsistency: saturation "
                                   "smaller than the ideal: x^%d*y^%d*z^%d "
                                   "lies in in(I) only" % (a, b, low_i))
                if a == last or step == top or low_i == top:
                    return None
                runs.append((a, b, step, low_j, low_i))
            if step == top:
                break
            if p < len(bi) and bi[p] == step:
                low_i = ci[p]
                p += 1
            if q < len(bj) and bj[q] == step:
                low_j = cj[q]
                q += 1
            b = step
    return tuple(runs)


def _excess_degrees(runs, weights):
    """[the number of run monomials of weighted degree t for t = 0..top],
    top the largest such degree, summed as _hilbert_function sums its
    columns.  The budget is charged for every column and degree before the
    degree list is built."""
    wx, wy, wz = weights
    top = max((a * wx + (b1 - 1) * wy + (c1 - 1) * wz
               for a, _, b1, _, c1 in runs), default=-1)
    _budget().spend(sum(b1 - b0 for _, b0, b1, _, _ in runs) + top + 1)
    values = [0] * (top + 1)
    for a, b0, b1, c0, c1 in runs:
        start = a * wx + c0 * wz
        _add_runs(values, range(start + b0 * wy, start + b1 * wy, wy),
                  (c1 - c0) * wz)
    return _sum_runs(values, wz)


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
    lists their leading monomials as the reduced basis does."""
    pk = _packing(4, 1)
    form = {(0, 0, 0, 0): -1}
    for k, m in enumerate(_moment_form(weights)):
        if c ** k:
            form[(1,) + m] = c ** k
    gens = [{(0,) + m: v for m, v in _int_terms(g)[0].items()}
            for g in ideal.generators] + [form]
    raw = _buchberger_int([_int_triple({pk.pack(m): v for m, v in d.items()})
                           for d in gens], pk, _budget())
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
    refused with PreconditionError before any basis work."""
    return _saturate(ideal, weights)[:2]


def _saturate(ideal, weights):
    """(c, M, runs): saturated_leading_monomials's (c, M), and the runs of
    the monomials of M outside in(I) (_saturation_excess), which H0 counts:
    the standard monomials of R/in(I) when I is Artinian, none when in(I)
    is saturated, and the certificate's own runs when a colon is
    certified.

    The colon loop reads e, the constant Hilbert polynomial of R/in(I)
    that bounds it by c <= first + 2e (module docstring), only once c
    passes first + 2.  It needs no e before: the colon route is reached
    only when in(I) is neither Artinian nor saturated, so dim R/I >= 1,
    and a constant Hilbert polynomial is then e >= 1, so first, first + 1
    and first + 2 all lie within first + 2e.  When e is None (dim R/I = 2)
    the loop has no bound, and the request's step budget ends it.  Most
    colons pass at c = first or first + 1, and then the memoized tail of
    in(I) is computed only if another caller reads it."""
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
    for g in ideal.generators:
        if len({sum(map(mul, weights, m)) for m in g.terms}) > 1:
            raise PreconditionError("generator %s is not homogeneous for the "
                                    "given weights" % g)
    gb = buchberger(ideal)
    lms = gb.leading_monomials
    if _is_artinian(lms):
        runs = _saturation_excess(lms, ((0, 0, 0),))
        if runs is None:
            raise Bs3Error("internal inconsistency: check 'finite H0' failed: "
                           "in(I^sat) has infinitely many monomials outside "
                           "in(I)")
        return None, ((0, 0, 0),), runs
    if _is_saturated(lms):
        return None, lms, ()
    # under other weights l_0, a power of z, vanishes on all of z = 0
    first = 0 if weights == (1, 1, 1) else 1
    e = None
    for c in count(first):
        if c == first + 3:
            _, e = _hilbert_tail(lms)
        if e is not None and c > first + 2 * e:
            break
        if c == 0:
            sat = _saturate_by_z(gb)
        else:
            sat = _weighted_colon(ideal, weights, c)
        runs = _saturation_excess(lms, sat)
        if runs is not None:
            return c, sat, runs
    form = " + ".join(p + str(Polynomial({m: 1}, 3)) for p, m in
                      zip(("", "c*", "c^2*"), _moment_form(weights)))
    raise Bs3Error("internal: no colon by %s with %d <= c <= %d keeps the "
                   "Hilbert polynomial, though V(I) has at most %d points"
                   % (form, first, first + 2 * e, e))
