"""Polynomial ring basics: parsing, arithmetic, weights, derivations."""

import random
from fractions import Fraction
from itertools import accumulate

import pytest

from bs3.polyring import (ParseError, Polynomial, PreconditionError,
                          WeightSystem, _parse_terms, euler_apply,
                          format_rational, is_quasi_homogeneous,
                          parse_polynomial, partial_derivative, wdeg)
from oracles import parse_terms_by_characters

W1 = WeightSystem((1, 1, 1))


def P(text):
    return parse_polynomial(text)


def test_parse_monomials_and_coefficients():
    p = P("2*x*y - 1/2*z^2")
    assert p.terms == {(1, 1, 0): Fraction(2), (0, 0, 2): Fraction(-1, 2)}


def test_parse_accepts_juxtaposed_coefficient():
    assert P("2x+3y") == P("2*x + 3*y")
    assert P("2x+y+z") == P("2*x+y+z")


def test_parse_variable_aliases():
    assert P("x1^2 + x2*x3") == P("x^2 + y*z")


def test_parser_covers_three_variables_only():
    t = Polynomial.variable(0, 4)
    x = Polynomial.variable(1, 4)
    assert str(t * x - 1) == "t*x - 1"


@pytest.mark.parametrize("text", ["", "x^", "x**2", "x^3 + + y", "w", "3/0"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        P(text)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        P("x^3 + + y")
    assert info.value.position == 6


@pytest.mark.parametrize("text, message, position", [
    ("x + ", "expected a term", 4),
    ("+x", "unexpected '+'", 0),
    ("x y^2 ) z", "expected '+' or '-'", 6),
    ("x^ -2", "expected an integer", 3),
    ("3/ 0", "zero denominator", 2),
    ("2 * 3", "expected a variable after '*'", 4),
])
def test_each_parse_error_keeps_its_message_and_position(text, message,
                                                         position):
    with pytest.raises(ParseError) as info:
        P(text)
    assert info.value.position == position
    assert str(info.value) == "%s (at position %d)" % (message, position)


def test_digits_are_the_ones_int_reads():
    assert P("x^\u0663") == P("x^3")  # ARABIC-INDIC DIGIT THREE
    for text in ("x^\u00b2", "\u00b2x"):  # SUPERSCRIPT TWO
        with pytest.raises(ParseError):
            P(text)


def test_an_integer_past_the_int_digit_limit_is_refused():
    assert P("x^" + "9" * 4300).terms == {(10 ** 4300 - 1, 0, 0): 1}
    for text in ("x^" + "9" * 4301, "7" * 5000 + "x", "1/" + "0" * 4301):
        with pytest.raises(ParseError):
            P(text)


# the grammar's characters, two digits int() reads differently from
# str.isdigit, and the aliases
ALPHABET = ["x", "y", "z", "1", "2", "3", "4", "5", "0", "/", "*", "^", "+",
            "-", " ", "\t", "(", "x1", "x2", "x3", "\u00b2", "\u0663"]


# pieces of grammar-shaped text: signs, coefficients with spaces around '/'
# and '*', and powers with spaces around '^'; the valid ones weighted
# about six to one against the malformed ones after them, and '-' three to
# one against '+', since a leading '+' is an error
SIGNS = ["+", " + "] * 2 + ["-", " - ", "- "] * 4 + ["", " ", "+-"]
COEFFICIENTS = ["", "", "2", "13", "0", "3/4", "1 / 2", "7 /3", "2*",
                "2 * ", "3/4 *", "0*", "10 /4* "] * 6 + [
                    "5/ 0", "2/", "4 4", "\u00b2", "2 ^ 3"]
POWERS = ["", "x", "y", "z", "x1", "x2", "x3", "x^2", "y ^ 3", "z^ 0",
          "x2 ^13", "x^\u0663"] * 6 + [
              "x 1", "y^", "z^-1", "x^\u00b2", "(", "x4"]
JOINS = ["", "*", " * ", " ", "* ", " *"] * 6 + ["**"]


def runs(pieces, lengths):
    """The pieces joined in consecutive runs of the given lengths."""
    return ["".join(pieces[end - n:end])
            for end, n in zip(accumulate(lengths), lengths)]


def sample_texts(rng):
    """60,000 random strings of up to 12 ALPHABET entries, and 40,000
    grammar-shaped ones of one to four terms, each a sign, a coefficient
    and two powers (either may be empty) joined by '*', juxtaposition or a
    space."""
    lengths = rng.choices(range(13), k=60_000)
    texts = runs(rng.choices(ALPHABET, k=sum(lengths)), lengths)
    lengths = rng.choices(range(1, 5), k=40_000)
    terms = list(map("".join, zip(*(
        rng.choices(pieces, k=sum(lengths))
        for pieces in (SIGNS, COEFFICIENTS, POWERS, JOINS, POWERS)))))
    return texts + runs(terms, lengths)


def outcome(parse, text):
    """The terms, or the ParseError's text, or ValueError."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)
    except ValueError:
        return ValueError


def test_parser_agrees_with_the_character_scanner():
    # same terms, or the same ParseError; where the scanner crashes with a
    # ValueError (a digit int() cannot read) the parser raises ParseError
    outcomes = {dict: 0, str: 0, ValueError: 0}
    for text in sample_texts(random.Random(19)):
        expected = outcome(parse_terms_by_characters, text)
        got = outcome(_parse_terms, text)
        if expected is ValueError:
            outcomes[ValueError] += 1
            assert got.__class__ is str, text
        else:
            outcomes[expected.__class__] += 1
            assert got == expected, text
    assert min(outcomes.values()) > 5000, outcomes


def test_str_is_canonical_and_reparses():
    p = P("y + x^2 - 3*z^3 + 1/4")
    assert str(p) == "-3*z^3 + x^2 + y + 1/4"
    assert P(str(p)) == p


def random_polynomial(rng):
    """Up to six terms over exponents 0..2, so monomials often repeat
    between draws."""
    return Polynomial({tuple(rng.randint(0, 2) for _ in range(3)):
                       Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                       for _ in range(rng.randint(0, 6))}, 3)


def test_parse_adds_repeated_monomials():
    assert P("x + 2x - 3x") == Polynomial.zero(3)
    assert P("x*y - 1/2*y*x + z - 2z + 3 - 3") == P("1/2*x*y - z")
    rng = random.Random(17)
    for _ in range(300):
        parts = [random_polynomial(rng) for _ in range(3)]
        for p in parts:
            assert P(str(p)) == p
        text = str(parts[0])
        for p in parts[1:]:
            q = str(p)
            text += " - " + q[1:] if q.startswith("-") else " + " + q
        assert P(text) == parts[0] + parts[1] + parts[2], text


def test_arithmetic():
    x = Polynomial.variable(0, 3)
    y = Polynomial.variable(1, 3)
    assert (x + y) * (x - y) == x ** 2 - y ** 2
    assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2
    assert x - x == Polynomial.zero(3)
    assert (x * 0).terms == {}


def test_format_rational():
    assert format_rational(Fraction(-16, 9)) == "-16/9"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(-1) == "-1"


def test_wdeg_standard_and_weighted():
    assert wdeg(P("x^3+y^3+z^3"), W1) == 3
    w = WeightSystem((3, 2, 1))
    assert wdeg(P("x^2 + y^3"), w) == 6
    assert wdeg(P("x^2 + y^2 + z^2"), w) is None


def test_wdeg_of_zero_rejected():
    with pytest.raises(PreconditionError):
        wdeg(Polynomial.zero(3), W1)


def test_wdeg_refuses_a_weight_count_other_than_the_variable_count():
    # zipping two or four weights against three exponents read a degree
    for weights in ((1, 1), (1, 1, 1, 5)):
        with pytest.raises(PreconditionError, match="weights for 3"):
            wdeg(P("x^2*y + y^3"), WeightSystem(weights))


def test_is_quasi_homogeneous():
    assert is_quasi_homogeneous(P("x*y*z + x^3"), W1)
    assert not is_quasi_homogeneous(P("x^2 + y^3"), W1)
    assert is_quasi_homogeneous(P("x^2 + y^3"), WeightSystem((3, 2, 1)))


def test_weights_must_be_positive():
    with pytest.raises(PreconditionError):
        WeightSystem((1, 0, 1))
    with pytest.raises(PreconditionError):
        WeightSystem((1, -2, 1))


def test_partial_derivative():
    f = P("x^3 + x*y^2 + z")
    assert partial_derivative(f, 1) == P("3*x^2 + y^2")
    assert partial_derivative(f, 2) == P("2*x*y")
    assert partial_derivative(f, 3) == P("1")


def test_euler_derivation_recovers_weighted_degree():
    f = P("x^2 + y^3")
    w = WeightSystem((3, 2, 1))
    assert euler_apply(f, w) == f * Fraction(6)
    g = P("x*y*z")
    assert euler_apply(g, W1) == g * 3
