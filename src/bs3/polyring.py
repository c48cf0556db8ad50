"""Exact sparse polynomial arithmetic over Q in up to three variables.

Polynomials are dictionaries mapping exponent tuples to nonzero rationals:
an int when the coefficient is integral, a Fraction only when its
denominator is not 1.  The two compare and hash alike (hash(n) ==
hash(Fraction(n))), so equality and hashing do not see the difference, and
a product of integral polynomials never builds a Fraction.
A fourth variable named t is supported internally for elimination tricks;
the public grammar only knows x, y, z (aliases x1, x2, x3).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, mul


class Bs3Error(Exception):
    """Base class for all errors raised by this package."""


class ParseError(Bs3Error):
    """Malformed polynomial text; carries the 0-based offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class PreconditionError(Bs3Error):
    """A mathematical precondition of an operation is violated."""


VARIABLE_NAMES = {1: ("x",), 2: ("x", "y"),
                  3: ("x", "y", "z"), 4: ("t", "x", "y", "z")}


def mono_mul(a, b):
    return tuple(map(add, a, b))


def grevlex_key(m):
    """Sort key: larger key = larger monomial in graded reverse lex."""
    return (sum(m),) + tuple(-e for e in reversed(m))


class WeightSystem:
    """Positive rational weights, one per variable.  The weights times
    their common denominator are kept as integers, so a weighted degree is
    an integer sum over that denominator."""

    __slots__ = ("weights", "scaled", "denominator")

    def __init__(self, weights):
        ws = tuple(Fraction(w) for w in weights)
        if any(w <= 0 for w in ws):
            shown = ",".join(format_rational(w) for w in ws)
            raise PreconditionError("weights must be positive, got %s" % shown)
        self.weights = ws
        L = 1
        for w in ws:
            L = L * w.denominator // gcd(L, w.denominator)
        self.denominator = L
        self.scaled = tuple(int(w * L) for w in ws)

    @property
    def weight_sum(self):
        return sum(self.weights, Fraction(0))

    def mono_wdeg(self, m):
        return Fraction(sum(map(mul, m, self.scaled)), self.denominator)

    def __eq__(self, other):
        return isinstance(other, WeightSystem) and self.weights == other.weights

    def __hash__(self):
        return hash(self.weights)

    def __repr__(self):
        return "WeightSystem(%s)" % (self.weights,)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("terms", "variable_count")

    def __init__(self, terms, variable_count):
        clean = {}
        for m, c in terms.items():
            if c.__class__ is not int:
                c = Fraction(c)
                if c.denominator == 1:
                    c = c.numerator
            if c:
                if len(m) != variable_count:
                    raise ValueError("monomial %s has wrong arity" % (m,))
                clean[tuple(m)] = c
        self.terms = clean
        self.variable_count = variable_count

    @classmethod
    def zero(cls, n=3):
        return cls({}, n)

    @classmethod
    def constant(cls, c, n=3):
        return cls({(0,) * n: c}, n)

    @classmethod
    def variable(cls, i, n=3):
        e = [0] * n
        e[i] = 1
        return cls({tuple(e): 1}, n)

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.variable_count == other.variable_count
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.variable_count, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(out, self.variable_count)

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()}, self.variable_count)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial.zero(self.variable_count)
            return Polynomial({m: c * other for m, c in self.terms.items()},
                              self.variable_count)
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(out, self.variable_count)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(1, self.variable_count)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other, self.variable_count)
        if other.variable_count != self.variable_count:
            raise ValueError("mixed variable counts")
        return other

    def sorted_terms(self):
        """Terms in descending graded reverse lex order."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]),
                      reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        names = VARIABLE_NAMES[self.variable_count]
        pieces = []
        for m, c in self.sorted_terms():
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            if not factors:
                body = format_rational(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = format_rational(abs(c)) + "*" + "*".join(factors)
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self):
        return "Polynomial(%s)" % str(self)


def format_rational(q):
    """A Fraction or an int as p/q in lowest terms, or p when q is 1."""
    return format_ratio(q.numerator, q.denominator)


def format_ratio(n, d):
    """The rational n/d of ints n and d > 0 as p/q in lowest terms, or p
    when the reduced denominator is 1."""
    g = gcd(n, d)
    if g == d:
        return str(n // d)
    return "%d/%d" % (n // g, d // g)


def wdeg(p, w):
    """Weighted degree of p, or None when p is not weighted-homogeneous."""
    if p.is_zero():
        raise PreconditionError("wdeg of the zero polynomial is undefined")
    scaled = w.scaled
    degrees = {sum(map(mul, m, scaled)) for m in p.terms}
    if len(degrees) == 1:
        return Fraction(degrees.pop(), w.denominator)
    return None


def is_quasi_homogeneous(p, w):
    return wdeg(p, w) is not None


def partial_derivative(p, i):
    """Formal partial with respect to the i-th variable, 1-based."""
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


def euler_apply(p, w):
    """Apply the Euler derivation sum(w_i x_i d_i) to p."""
    out = {}
    for m, c in p.terms.items():
        scale = w.mono_wdeg(m)
        if scale != 0:
            out[m] = c * scale
    return Polynomial(out, p.variable_count)


# ---------------------------------------------------------------------------
# Parsing.  Grammar (whitespace insignificant):
#   poly  := ['-'] term (('+'|'-') term)*
#   term  := coeff ['*'] [monos] | monos
#   coeff := int | int '/' int
#   monos := var ['^' uint] ('*'? var ['^' uint])*
#   var in {x, y, z} or aliases {x1, x2, x3}
# The '*' between a coefficient and its monomial is optional on input
# ("2x" is accepted); canonical printing always writes it.


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


def parse_polynomial(text, variable_count=3):
    """Parse the ASCII grammar into an exact Polynomial."""
    if variable_count != 3:
        raise ValueError("the grammar only covers three variables")
    return Polynomial(_parse_terms(text), 3)


def _parse_terms(text):
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
