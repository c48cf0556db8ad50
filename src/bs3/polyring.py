"""Exact sparse polynomials over Q in three variables: parsing, printing
and weighted degrees, and the positive rational weights that grade them.

Polynomials are dictionaries mapping exponent tuples to nonzero rationals:
an int when the coefficient is integral, a Fraction only when its
denominator is not 1.  The two compare and hash alike (hash(n) ==
hash(Fraction(n))), so equality and hashing do not see the difference.
There is no Polynomial arithmetic and no Polynomial partial: the pipeline
multiplies, differentiates and reduces on int dictionaries of packed
monomials (arrangement._product, milnor._jacobian_of, the groebner
module), and a request builds no Polynomial past the one it parses.
Printing also names the variables of the other rings an elimination
works in, t first among four; the grammar knows only x, y, z (aliases x1,
x2, x3).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul


class Bs3Error(Exception):
    """Base class for all errors raised by this package."""


class ParseError(Bs3Error):
    """Malformed polynomial text; carries the bare message and the 0-based
    offending position, so a caller that parsed a piece of a longer text
    can raise it again at the piece's offset."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.message = message
        self.position = position


class PreconditionError(Bs3Error):
    """A mathematical precondition of an operation is violated."""


VARIABLE_NAMES = {1: ("x",), 2: ("x", "y"),
                  3: ("x", "y", "z"), 4: ("t", "x", "y", "z")}


def grevlex_key(m):
    """Sort key: larger key = larger monomial in graded reverse lex."""
    return (sum(m),) + tuple(-e for e in reversed(m))


class WeightSystem:
    """Positive rational weights, one per variable, each read by Fraction
    (an int, a Fraction or a text such as "1/2" or " 3 "), and kept as
    ints: `scaled`, the weights times their least common denominator, and
    that `denominator`, so a weighted degree is an integer sum over it."""

    __slots__ = ("scaled", "denominator")

    def __init__(self, weights):
        weights = [Fraction(q) for q in weights]
        L = lcm(*(q.denominator for q in weights))
        self.denominator = L
        self.scaled = tuple(q.numerator * (L // q.denominator)
                            for q in weights)
        if any(n <= 0 for n in self.scaled):
            raise PreconditionError("weights must be positive, got %s" % self)

    def __repr__(self):
        return "WeightSystem(%s)" % self

    def __str__(self):
        return ",".join(format_ratio(n, self.denominator) for n in self.scaled)


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

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.variable_count == other.variable_count
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.variable_count, frozenset(self.terms.items())))

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
    if len(w.scaled) != p.variable_count:
        raise PreconditionError("%d weights for %d variables"
                                % (len(w.scaled), p.variable_count))
    if p.is_zero():
        raise PreconditionError("wdeg of the zero polynomial is undefined")
    scaled = w.scaled
    degrees = {sum(map(mul, m, scaled)) for m in p.terms}
    if len(degrees) == 1:
        return Fraction(degrees.pop(), w.denominator)
    return None


# ---------------------------------------------------------------------------
# Parsing.  Grammar (whitespace allowed between any two tokens; an int and
# each of x1, x2, x3 is one token):
#   poly  := ['-'] term (('+'|'-') term)*
#   term  := coeff ['*'] [monos] | monos
#   coeff := int | int '/' int
#   monos := var ['^' int] ('*'? var ['^' int])*
#   var in {x, y, z} or aliases {x1, x2, x3}
# An int is a run of the decimal digits int() reads, at most 4300 of them
# (int()'s default limit): a longer run scans as two ints, which no rule
# accepts.  The '*' between a coefficient and its monomial is optional on
# input ("2x" is accepted); canonical printing always writes it.
# findall reads the text as tokens (whitespace, int, variable, other
# character), each with at most one of the last three set; the text ends in
# a token with none of them set.

_TOKEN = re.compile(r"(\s*)(?:(\d{1,4300})|(x[123]|[xyz])|(\S)|\Z)")
_VARIABLE_INDEX = {"x": 0, "y": 1, "z": 2, "x1": 0, "x2": 1, "x3": 2}


def parse_polynomial(text):
    """Parse the grammar above into an exact Polynomial in x, y, z."""
    return Polynomial(_parse_terms(text), 3)


def _position(toks, i):
    """Where token i starts, past its whitespace."""
    return len("".join(map("".join, toks[:i]))) + len(toks[i][0])


def _parse_terms(text):
    """The terms of the text as {exponent tuple: int or Fraction}, each
    coefficient the sum over the terms with that monomial, 0 when they
    cancel."""
    toks = _TOKEN.findall(text)
    i, sign = 0, 1
    if toks[0][3] == "-":
        i, sign = 1, -1
    elif toks[0][3] == "+":
        raise ParseError("unexpected '+'", _position(toks, 0))
    terms = {}
    while True:
        _, num, var, _ = toks[i]
        coeff = 1
        if num:
            coeff = int(num)
            i += 1
            if toks[i][3] == "/":
                i += 1
                if not toks[i][1]:
                    raise ParseError("expected an integer", _position(toks, i))
                den = int(toks[i][1])
                if not den:
                    raise ParseError("zero denominator",
                                     _position(toks, i - 1) + 1)
                coeff = Fraction(coeff, den)
                i += 1
            if toks[i][3] == "*":
                i += 1
                if not toks[i][2]:
                    raise ParseError("expected a variable after '*'",
                                     _position(toks, i))
        elif not var:
            raise ParseError("expected a term", _position(toks, i))
        exponents = [0, 0, 0]
        while toks[i][2]:
            name = toks[i][2]
            e = 1
            if toks[i + 1][3] == "^":
                i += 2
                if not toks[i][1]:
                    raise ParseError("expected an integer", _position(toks, i))
                e = int(toks[i][1])
            exponents[_VARIABLE_INDEX[name]] += e
            i += 1
            if toks[i][3] == "*" and toks[i + 1][2]:
                i += 1
        exponents = tuple(exponents)
        terms[exponents] = terms.get(exponents, 0) + sign * coeff
        _, num, _, op = toks[i]
        if not (num or op):
            return terms
        if op != "+" and op != "-":
            raise ParseError("expected '+' or '-'", _position(toks, i))
        sign = 1 if op == "+" else -1
        i += 1
