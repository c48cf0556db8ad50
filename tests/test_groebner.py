"""Buchberger engine: bases, normal forms, elimination, saturation."""

import random
from fractions import Fraction

import pytest

import corpus
import oracles
from bs3 import groebner
from bs3.arrangement import singular_points, validate
from bs3.groebner import (GroebnerBasis, Ideal, MonomialOrder,
                          ResourceLimitError, buchberger, eliminate,
                          ideal_intersection, normal_form, s_polynomial,
                          saturate_by_poly, saturate_irrelevant, step_budget)
from bs3.milnor import jacobian_ideal
from bs3.polyring import Polynomial, parse_polynomial

GREVLEX = MonomialOrder("grevlex", 3)
LEX = MonomialOrder("lex", 3)


def P(text):
    return parse_polynomial(text)


def ideal(*texts):
    return Ideal(tuple(P(t) for t in texts))


def basis_texts(gb):
    return sorted(str(g) for g in gb.elements)


def packed(order, *monomials):
    return [order.packing.pack(m) for m in monomials]


def test_grevlex_order_on_degree_ties():
    # same total degree: compare reversed exponents, last variable smallest
    a, b, c, d, e = packed(GREVLEX, (2, 0, 0), (1, 1, 0), (1, 0, 1),
                           (0, 0, 2), (1, 0, 0))
    assert a > b > c > d > e


def test_lex_order_ignores_total_degree():
    a, b = packed(LEX, (1, 0, 0), (0, 5, 5))
    assert a > b


def test_block_order_eliminates_leading_variables():
    order = MonomialOrder("block", 4, elim_count=1)
    # any power of the first variable beats anything without it
    a, b = packed(order, (1, 0, 0, 0), (0, 9, 9, 9))
    assert a > b


ENCODED_ORDERS = [MonomialOrder.grevlex(3), MonomialOrder.grevlex(4),
                  MonomialOrder.block(1, 4), MonomialOrder.lex(3)]
TOP = groebner.MAX_DEGREE


def random_exponents(rng, n):
    """An exponent vector whose total degree is small, anything up to the
    bound, or the bound itself, split at random among the variables."""
    top = rng.choice([rng.randint(0, 4), rng.randint(0, TOP), TOP])
    cuts = sorted(rng.randint(0, top) for _ in range(n - 1))
    return tuple(j - i for i, j in zip([0] + cuts, cuts + [top]))


def exponent_samples(n, count=300):
    rng = random.Random(97 + n)
    pure = [tuple(TOP if j == i else 0 for j in range(n)) for i in range(n)]
    return pure + [random_exponents(rng, n) for _ in range(count)]


@pytest.mark.parametrize("order", ENCODED_ORDERS, ids=repr)
def test_packed_order_matches_the_tuple_key(order):
    pk = order.packing
    samples = exponent_samples(order.variable_count)
    rng = random.Random(5)
    for a in samples:
        assert pk.unpack(pk.pack(a)) == a
        assert pk.degree(pk.pack(a)) == sum(a)
        for b in rng.sample(samples, 20) + [a]:
            ka, kb = oracles.order_key(order, a), oracles.order_key(order, b)
            pa, pb = pk.pack(a), pk.pack(b)
            assert (pa < pb, pa == pb) == (ka < kb, ka == kb), (a, b)


@pytest.mark.parametrize("order", ENCODED_ORDERS, ids=repr)
def test_packed_arithmetic_matches_the_tuple_primitives(order):
    pk = order.packing
    samples = exponent_samples(order.variable_count)
    rng = random.Random(6)
    for a in samples:
        pa = pk.pack(a)
        for b in rng.sample(samples, 20):
            pb = pk.pack(b)
            product, lcm = oracles.mono_mul(a, b), oracles.mono_lcm(a, b)
            # a field past the bound shows as a guard bit, never wraps
            if sum(product) <= TOP:
                assert pa + pb == pk.pack(product)
            else:
                assert (pa + pb) & pk.guard
            if sum(lcm) <= TOP:
                assert pk.lcm(pa, pb) == pk.pack(lcm)
            else:
                assert pk.lcm(pa, pb) & pk.guard
            assert pk.divides(pa, pb) == oracles.mono_divides(a, b)
            if oracles.mono_divides(b, a):
                assert pa - pb == pk.pack(oracles.mono_div(a, b))
            # a multiple of a, to test divisibility when it holds
            c = tuple(rng.randint(0, 1) * e for e in b)
            if sum(a) + sum(c) <= TOP:
                pac = pk.pack(oracles.mono_mul(a, c))
                assert pk.divides(pa, pac) and pac - pa == pk.pack(c)


def test_packing_refuses_a_degree_past_the_bound():
    pk = GREVLEX.packing
    assert pk.unpack(pk.pack((TOP - 2, 1, 1))) == (TOP - 2, 1, 1)
    with pytest.raises(ResourceLimitError):
        pk.pack((TOP - 1, 1, 1))
    with pytest.raises(ResourceLimitError):
        buchberger(ideal("x^40000 + y"), GREVLEX)


def test_pair_lcm_past_the_bound_raises():
    # the generators fit, their lcm x^20000*y^20000 does not
    with pytest.raises(ResourceLimitError):
        buchberger(ideal("x^20000*y - z", "x*y^20000 - z"), GREVLEX)


def test_s_polynomial_term_past_the_bound_raises():
    # lex: the lcm x*z^20000 fits, the term y^20000*z^20000 does not
    f, g = P("x - y^20000"), P("x*z^20000 - 1")
    assert s_polynomial(f, P("x*z^2 - 1"), LEX) == P("1 - y^20000*z^2")
    for pair in ((f, g), (g, f)):
        with pytest.raises(ResourceLimitError):
            s_polynomial(*pair, LEX)
    with pytest.raises(ResourceLimitError):
        buchberger(Ideal((f, g)), LEX)


def test_reduction_term_past_the_bound_raises():
    gb = buchberger(ideal("x - y^20000"), LEX)
    assert normal_form(P("x*z^2"), gb) == P("y^20000*z^2")
    with pytest.raises(ResourceLimitError):
        normal_form(P("x*z^20000"), gb)


def test_buchberger_principal_ideal():
    gb = buchberger(ideal("x"), GREVLEX)
    assert basis_texts(gb) == ["x"]


def test_buchberger_splits_sum_and_difference():
    gb = buchberger(ideal("x^2+y^2", "x^2-y^2"), GREVLEX)
    assert basis_texts(gb) == ["x^2", "y^2"]


def test_buchberger_rescales_to_monic():
    gb = buchberger(ideal("3*x^2", "3*y^2", "3*z^2"), GREVLEX)
    assert basis_texts(gb) == ["x^2", "y^2", "z^2"]


def test_reduced_basis_unique_under_generator_shuffle():
    gens = ["x^2*y - z^3", "x*z - y^2", "y^3 - x*z^2"]
    rng = random.Random(3)
    reference = None
    for _ in range(6):
        rng.shuffle(gens)
        gb = buchberger(Ideal(tuple(P(t) for t in gens)), GREVLEX)
        if reference is None:
            reference = gb.elements
        assert gb.elements == reference


def test_basis_is_interreduced():
    gb = buchberger(ideal("x^2*y - z^3", "x*z - y^2"), GREVLEX)
    leads = gb.leading_monomials
    for i, m in enumerate(leads):
        for j, other in enumerate(leads):
            if i != j:
                assert not all(a >= b for a, b in zip(m, other))


def test_every_s_polynomial_reduces_to_zero():
    gb = buchberger(ideal("x^2*y - z^3", "x*z - y^2", "y^3 - x*z^2"),
                    GREVLEX)
    for i in range(len(gb.elements)):
        for j in range(i + 1, len(gb.elements)):
            s = s_polynomial(gb.elements[i], gb.elements[j], GREVLEX)
            assert normal_form(s, gb).terms == {}


def test_normal_form_examples():
    gb = buchberger(ideal("x^2", "y^2", "z^2"), GREVLEX)
    assert normal_form(P("x^3"), gb) == Polynomial.zero(3)
    assert normal_form(P("x*y*z"), gb) == P("x*y*z")
    assert normal_form(P("x^2*y + z"), gb) == P("z")


def test_normal_form_is_linear_and_idempotent():
    gb = buchberger(ideal("x^2 - y*z", "y^3"), GREVLEX)
    p, q = P("x^4 + y*z^2"), P("x*y^2*z - z^4")
    nf = lambda r: normal_form(r, gb)
    assert nf(p + q) == nf(p) + nf(q)
    assert nf(nf(p)) == nf(p)


def random_polynomial(rng, top_degree=5):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        m = tuple(rng.randint(0, top_degree) for _ in range(3))
        if sum(m) <= top_degree:
            terms[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return Polynomial(terms, 3)


@pytest.mark.parametrize("texts, order", [
    (("x^2 - y*z", "y^3"), GREVLEX),
    (("x^2*y - z^3", "x*z - y^2", "y^3 - x*z^2"), GREVLEX),
    (("3*x^2 + 1/2*y*z", "2/3*x*y - 5*z^2", "x*z^2 - 7/4*y^3"), GREVLEX),
    (("x^2 + y*z - 1", "y^2 - 2*x + 1/3"), GREVLEX),
    (("x*y - z", "y^2 - 3/5*x"), LEX),
    (("x", "y^2 - z^3"), LEX),
])
def test_normal_form_matches_the_fraction_reducer(texts, order):
    gb = buchberger(ideal(*texts), order)
    rng = random.Random(len(gb) + 7 * len(texts))
    for _ in range(15):
        p = random_polynomial(rng)
        assert normal_form(p, gb) == oracles.normal_form_by_fractions(p, gb)


def test_corpus_jacobian_bases_are_fully_reduced():
    for name, arr in corpus.build_corpus():
        gb = buchberger(jacobian_ideal(arr.defining_polynomial()), GREVLEX)
        lms = gb.leading_monomials
        for lm, element in zip(lms, gb.elements):
            assert element.terms[lm] == 1, name
            for m in element.terms:
                assert m == lm or not any(
                    oracles.mono_divides(b, m) for b in lms), name


def test_membership_matches_linear_algebra_oracle():
    gens = [P("x^2 - y*z"), P("x*y - z^2")]
    gb = buchberger(Ideal(tuple(gens)), GREVLEX)
    rng = random.Random(11)
    for q in (2, 3, 4):
        for _ in range(8):
            monos = oracles.monomials_of_degree(q)
            p = Polynomial({m: rng.randint(-2, 2) for m in monos}, 3)
            if not p.terms:
                continue
            by_nf = normal_form(p, gb).terms == {}
            assert by_nf == oracles.in_ideal_graded(p, gens, q)


def test_eliminate_examples():
    # work in a ring read as (t,x,y); drop the first variable
    t = Polynomial.variable(0, 3)
    x = Polynomial.variable(1, 3)
    y = Polynomial.variable(2, 3)
    projected = eliminate(Ideal((t * x - 1, t * y)), 1)
    assert [str(g) for g in projected.generators] == ["y"]
    assert eliminate(Ideal((x,)), 1) == Ideal((Polynomial.variable(0, 2),))
    assert eliminate(Ideal((t - x,)), 1) == Ideal((), 2)


def test_saturate_by_poly():
    # x^2 lies in the ideal, so 1 enters the saturation at exponent 2
    assert saturate_by_poly(ideal("x^2", "x*y", "x*z"), P("x")) == ideal("1")
    assert saturate_by_poly(ideal("x"), P("y")) == ideal("x")
    assert saturate_by_poly(ideal("x^2"), P("x")) == ideal("1")


def gens_set(I):
    return {str(g) for g in I.generators}


def test_ideal_intersection():
    assert gens_set(ideal_intersection(ideal("x"), ideal("y"))) == {"x*y"}
    assert gens_set(ideal_intersection(ideal("x"), ideal("x"))) == {"x"}
    assert gens_set(ideal_intersection(ideal("x", "y"), ideal("z"))) == \
        {"x*z", "y*z"}


def test_saturate_irrelevant_examples():
    assert saturate_irrelevant(ideal("x^2", "x*y", "x*z")) == ideal("x")
    assert saturate_irrelevant(ideal("x^2", "y^2", "z^2")) == ideal("1")
    assert saturate_irrelevant(ideal("x")) == ideal("x")


def test_saturation_contains_ideal_and_is_idempotent():
    I = ideal("x^2*y", "y^2*z", "z^2*x")
    sat = saturate_irrelevant(I)
    gb = buchberger(sat, GREVLEX)
    for g in I.generators:
        assert normal_form(g, gb).terms == {}
    assert saturate_irrelevant(sat) == sat


def test_saturation_ignores_generator_scaling():
    I = ideal("x^2", "x*y", "x*z")
    J = ideal("5*x^2", "-2*x*y", "1/3*x*z")
    assert saturate_irrelevant(I) == saturate_irrelevant(J)


def times_maximal_ideal(*texts):
    """(generators) * (x, y, z): the same scheme with an embedded origin."""
    return Ideal(tuple(P(t) * P(v) for t in texts for v in ("x", "y", "z")))


def test_fast_saturation_agrees_with_colon_intersection():
    samples = [
        ideal("x^2*y", "y^2*z", "z^2*x"),
        ideal("x^3", "x*y^2 - x*z^2"),
        ideal("x*y*z", "x^2*y - y^2*z"),
        # cones over points of P^2, with an embedded component at the origin
        times_maximal_ideal("x*y", "x*z", "y*z"),
        times_maximal_ideal("x^2 - y*z", "y^2 - x*z"),
        times_maximal_ideal("x^2", "x*y", "y^2"),
        times_maximal_ideal("x*y - z^2", "x*z + y*z - 2*z^2"),
    ]
    for I in samples:
        expect = buchberger(oracles.saturation_by_columns(I), GREVLEX)
        got = buchberger(saturate_irrelevant(I), GREVLEX)
        assert got.elements == expect.elements


def hilbert_constant(I):
    lms = buchberger(I, GREVLEX).leading_monomials
    t = groebner._hilbert_start(lms)
    values = groebner._hilbert_function(lms, t + 2)[t:]
    assert len(set(values)) == 1, "dim R/I is not 1"
    return values[0]


def first_line_missing(points):
    c = 0
    while any(p[2] + c * p[0] + c * c * p[1] == 0 for p in points):
        c += 1
    return c


def test_chosen_line_is_first_moment_curve_line_missing_the_lattice():
    for name, arr in corpus.build_corpus():
        jac = jacobian_ideal(arr.defining_polynomial())
        points = singular_points(arr)
        # the Jacobian scheme has length (m - 1)^2 at a point of multiplicity m
        e = hilbert_constant(jac)
        assert e == sum((sp.multiplicity - 1) ** 2 for sp in points), name
        c, moved = groebner._avoiding_line(jac, e)
        assert c == first_line_missing([sp.point for sp in points]), name
        assert moved == groebner._move_line(jac, c), name


@pytest.fixture
def reference_calls(monkeypatch):
    """Calls into the reference route's saturate_by_poly, caches cold."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return saturate_by_poly(*args, **kwargs)

    monkeypatch.setattr(groebner, "saturate_by_poly", spy)
    groebner._saturate_cached.cache_clear()
    yield calls
    groebner._saturate_cached.cache_clear()


def test_corpus_saturations_never_take_the_reference_route(reference_calls):
    for _, arr in corpus.build_corpus():
        saturate_irrelevant(jacobian_ideal(arr.defining_polynomial()))
    assert reference_calls == []


def test_hilbert_certificate_rejects_a_line_through_a_singular_point():
    jac = jacobian_ideal(validate(oracles.ZIEGLER_G.split(",")).
                         defining_polynomial())
    gb = buchberger(jac, GREVLEX)
    # z is one of the lines, so it passes through singular points
    at_z = groebner._move_line(jac, 0)
    assert not groebner._line_misses(at_z)
    by_z = groebner._saturate_by_line(at_z, 0, gb)
    assert not groebner._same_hilbert_polynomial(gb.leading_monomials,
                                                 by_z.leading_monomials)
    c, moved = groebner._avoiding_line(jac, hilbert_constant(jac))
    assert c > 0
    by_c = groebner._saturate_by_line(moved, c, gb)
    assert groebner._same_hilbert_polynomial(gb.leading_monomials,
                                             by_c.leading_monomials)


def test_artinian_ideals_saturate_to_the_unit_ideal(reference_calls):
    fermat = jacobian_ideal(P("x^3+y^3+z^3"))
    # weights (1/3, 1/4, 1/6); isolated, so the Jacobian is m-primary
    brieskorn = jacobian_ideal(P("x^3+y^4+z^6+3*y^2*z^3"))
    assert saturate_irrelevant(fermat) == ideal("1")
    assert saturate_irrelevant(brieskorn) == ideal("1")
    assert reference_calls == []


@pytest.mark.parametrize("texts, graded", [
    (("x^2 - y*z", "y^3 - x*z^2"), True),     # standard weights
    (("x - y^2", "y - z^2"), True),             # weights (4, 2, 1)
    (("x^2", "y^3 + z^6"), True),               # differences span a line
    (("x^2 - x", "y"), False),                  # needs weight(x) = 0
    (("x - y*z", "y - x*z"), False),            # needs weight(z) = 0
    (("x - y^2", "y - z^2", "z - x^2"), False),  # no weights at all
])
def test_positive_grading_detection(texts, graded):
    assert groebner._positively_graded(ideal(*texts)) is graded


def test_artinian_shortcut_needs_a_positive_grading():
    # finite length, but V(I) also holds (1, 0, 0), which survives
    assert saturate_irrelevant(ideal("x^2 - x", "y", "z")) == \
        ideal("z", "y", "x - 1")


def test_step_cap_raises_resource_error():
    gens = tuple(P(t) for t in ("x^3*y - z^4", "x*z^2 - y^3",
                                "y^2*z - x^2"))
    groebner._buchberger_cached.cache_clear()
    with pytest.raises(ResourceLimitError), step_budget(3):
        buchberger(Ideal(gens), GREVLEX)


def test_zero_ideal_and_unit_ideal():
    assert buchberger(Ideal((), 3), GREVLEX).elements == ()
    gb = buchberger(ideal("1/2"), GREVLEX)
    assert [str(g) for g in gb.elements] == ["1"]
