"""Buchberger engine: bases, reduction, elimination, saturation."""

import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

import corpus
import oracles
from bs3 import arrangement, groebner
from bs3.arrangement import singular_points, validate
from bs3.graded import STANDARD, h0_degree_data
from bs3.groebner import (Ideal, ResourceLimitError, _packing, buchberger,
                          saturated_leading_monomials, step_budget)
from bs3.milnor import jacobian_ideal
from bs3.polyring import (ParseError, Polynomial, PreconditionError,
                          parse_polynomial, wdeg)
from oracles import (eliminate, ideal_intersection, normal_form_by_fractions,
                     poly_add, poly_mul, s_polynomial, saturate_by_poly)
from test_arrangement import product_draws
from test_fuzz import draw_polynomial
from test_graded import H0_CASES, random_monomial_ideal

GREVLEX = _packing(3)
# lex on x, y, z: the block order on x, y, with ties broken on z alone
LEX = _packing(3, 2)


def P(text):
    return parse_polynomial(text)


def ideal(*texts):
    return Ideal(tuple(P(t) for t in texts))


def basis_texts(gb):
    return sorted(str(g) for g in oracles.reduced_basis(gb))


def tail_of(lms):
    """The Hilbert tail of the monomial ideal, over its staircase."""
    return groebner._hilbert_tail(lms, groebner._staircase(lms))


def packed(pk, *monomials):
    return [pk.pack(m) for m in monomials]


def divides(pk, a, b):
    """The guard-bit divisibility test of packed monomials that the
    reductions, the pair update and the minimal basis write inline
    (groebner module docstring)."""
    return ((b | pk.guard) - a) & pk.guard == pk.guard


def test_grevlex_order_on_degree_ties():
    # same total degree: compare reversed exponents, last variable smallest
    a, b, c, d, e = packed(GREVLEX, (2, 0, 0), (1, 1, 0), (1, 0, 1),
                           (0, 0, 2), (1, 0, 0))
    assert a > b > c > d > e


def test_lex_order_ignores_total_degree():
    a, b = packed(LEX, (1, 0, 0), (0, 5, 5))
    assert a > b


def test_block_order_eliminates_leading_variables():
    # any power of the first variable beats anything without it
    a, b = packed(_packing(4, 1), (1, 0, 0, 0), (0, 9, 9, 9))
    assert a > b


# (n, lead) of each packing tested, under the ids the suite has always
# printed for these tests, so their results compare across versions
ENCODED_ORDERS = {"MonomialOrder.grevlex(3)": (3, 0),
                  "MonomialOrder.grevlex(4)": (4, 0),
                  "MonomialOrder.block(1, 4)": (4, 1),
                  "MonomialOrder.block(2, 3)": (3, 2)}
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


@pytest.mark.parametrize("n, lead", ENCODED_ORDERS.values(),
                         ids=list(ENCODED_ORDERS))
def test_packed_order_matches_the_tuple_key(n, lead):
    pk = _packing(n, lead)
    samples = exponent_samples(n)
    rng = random.Random(5)
    for a in samples:
        assert pk.unpack(pk.pack(a)) == a
        assert pk.degree(pk.pack(a)) == sum(a)
        for b in rng.sample(samples, 20) + [a]:
            ka, kb = oracles.order_key(pk, a), oracles.order_key(pk, b)
            pa, pb = pk.pack(a), pk.pack(b)
            assert (pa < pb, pa == pb) == (ka < kb, ka == kb), (a, b)


@pytest.mark.parametrize("n, lead", ENCODED_ORDERS.values(),
                         ids=list(ENCODED_ORDERS))
def test_packed_arithmetic_matches_the_tuple_primitives(n, lead):
    pk = _packing(n, lead)
    samples = exponent_samples(n)
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
            assert divides(pk, pa, pb) == oracles.mono_divides(a, b)
            if oracles.mono_divides(b, a):
                assert pa - pb == pk.pack(oracles.mono_div(a, b))
            # a multiple of a, to test divisibility when it holds
            c = tuple(rng.randint(0, 1) * e for e in b)
            if sum(a) + sum(c) <= TOP:
                pac = pk.pack(oracles.mono_mul(a, c))
                assert divides(pk, pa, pac) and pac - pa == pk.pack(c)


def test_packing_refuses_a_degree_past_the_bound():
    pk = _packing(3)
    assert pk.unpack(pk.pack((TOP - 2, 1, 1))) == (TOP - 2, 1, 1)
    with pytest.raises(ResourceLimitError):
        pk.pack((TOP - 1, 1, 1))
    with pytest.raises(ResourceLimitError):
        buchberger(ideal("x^40000 + y"))


def test_pair_lcm_past_the_bound_raises():
    # the generators fit, their lcm x^20000*y^20000 does not
    with pytest.raises(ResourceLimitError):
        buchberger(ideal("x^20000*y - z", "x*y^20000 - z"))


def test_coprime_pair_past_the_bound_is_dropped_unchecked():
    # every pair is coprime, and every lcm x^20000*y^20000 is past the bound
    gb = buchberger(ideal("x^20000", "y^20000", "z^20000"))
    assert len(gb.leading_monomials) == 3
    # the lcm of a pair that shares x is checked
    with pytest.raises(ResourceLimitError):
        buchberger(ideal("x^20000*y", "x*y^20000"))


def test_s_polynomial_term_past_the_bound_raises():
    # lex: the lcm x*z^20000 fits, the term y^20000*z^20000 does not
    f, g = P("x - y^20000"), P("x*z^20000 - 1")
    assert s_polynomial(f, P("x*z^2 - 1"), LEX) == P("1 - y^20000*z^2")
    for pair in ((f, g), (g, f)):
        with pytest.raises(ResourceLimitError):
            s_polynomial(*pair, LEX)
    with pytest.raises(ResourceLimitError):
        oracles.block_basis(Ideal((f, g)), 2)


def integer_remainder(p, gb):
    """The remainder of p by the package's integer reducer, _reduce, against
    the minimal basis gb, made monic: its head is irreducible, and it is
    p's remainder up to a nonzero rational factor."""
    pk = gb.packing
    r = groebner._reduce(
        {pk.pack(m): v for m, v in groebner._int_terms(p)[0].items()},
        gb._int_basis, pk, groebner._budget())
    return groebner._from_int_poly(r, pk, r[max(r)]) if r else Polynomial(
        {}, pk.n)


def monic(p, gb):
    """p over its leading coefficient in gb's order; 0 stays 0."""
    if p.is_zero():
        return p
    lc = p.terms[leading_monomial(p, gb)]
    return Polynomial({m: v / Fraction(lc) for m, v in p.terms.items()},
                      p.variable_count)


def leading_monomial(p, gb):
    return max(p.terms, key=lambda m: oracles.order_key(gb.packing, m))


def assert_head_reduced(p, gb):
    """p's integer remainder has an irreducible head, that of p's normal
    form by Fraction arithmetic, and the two have one monic normal form."""
    r = integer_remainder(p, gb)
    nf = normal_form_by_fractions(p, gb)
    assert r.is_zero() == nf.is_zero(), p
    if r.is_zero():
        return
    head = leading_monomial(r, gb)
    assert not any(oracles.mono_divides(m, head)
                   for m in gb.leading_monomials), p
    assert head == leading_monomial(nf, gb), p
    assert monic(normal_form_by_fractions(r, gb), gb) == monic(nf, gb), p


def test_reduction_term_past_the_bound_raises():
    gb = oracles.block_basis(ideal("x - y^20000"), 2)
    assert integer_remainder(P("x*z^2"), gb) == P("y^20000*z^2")
    with pytest.raises(ResourceLimitError):
        integer_remainder(P("x*z^20000"), gb)


def test_buchberger_principal_ideal():
    gb = buchberger(ideal("x"))
    assert basis_texts(gb) == ["x"]


def test_buchberger_splits_sum_and_difference():
    gb = buchberger(ideal("x^2+y^2", "x^2-y^2"))
    assert basis_texts(gb) == ["x^2", "y^2"]


def test_buchberger_rescales_to_monic():
    gb = buchberger(ideal("3*x^2", "3*y^2", "3*z^2"))
    assert basis_texts(gb) == ["x^2", "y^2", "z^2"]


def test_reduced_basis_unique_under_generator_shuffle():
    gens = ["x^2*y - z^3", "x*z - y^2", "y^3 - x*z^2"]
    rng = random.Random(3)
    reference = None
    for _ in range(6):
        rng.shuffle(gens)
        gb = buchberger(Ideal(tuple(P(t) for t in gens)))
        if reference is None:
            reference = oracles.reduced_basis(gb)
        assert oracles.reduced_basis(gb) == reference


def test_basis_is_interreduced():
    gb = buchberger(ideal("x^2*y - z^3", "x*z - y^2"))
    leads = gb.leading_monomials
    for i, m in enumerate(leads):
        for j, other in enumerate(leads):
            if i != j:
                assert not all(a >= b for a, b in zip(m, other))


def test_every_s_polynomial_reduces_to_zero():
    # of the basis as held and of the reduced basis
    gb = buchberger(ideal("x^2*y - z^3", "x*z - y^2", "y^3 - x*z^2"))
    for elements in (gb.elements, oracles.reduced_basis(gb)):
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                s = s_polynomial(elements[i], elements[j], GREVLEX)
                assert normal_form_by_fractions(s, gb).terms == {}


def test_normal_form_examples():
    gb = buchberger(ideal("x^2", "y^2", "z^2"))
    for nf in (integer_remainder, normal_form_by_fractions):
        assert nf(P("x^3"), gb) == Polynomial({}, 3)
        assert nf(P("x*y*z"), gb) == P("x*y*z")
        assert nf(P("x^2*y + z"), gb) == P("z")


def test_head_remainder_is_idempotent():
    # a remainder whose head is irreducible takes no step and comes back
    # as it went in, its tail unreduced
    gb = buchberger(ideal("x^2 - y*z", "y^3"))
    p, q = P("x^4 + y*z^2"), P("x*y^2*z - z^4")
    for r in (p, q, poly_add(p, q)):
        assert_head_reduced(r, gb)
        head = integer_remainder(r, gb)
        with step_budget(0):
            assert integer_remainder(head, gb) == head


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
    gb = basis(ideal(*texts), order.lead)
    rng = random.Random(len(gb.leading_monomials) + 7 * len(texts))
    for _ in range(15):
        assert_head_reduced(random_polynomial(rng), gb)


def basis(I, lead=0):
    """The minimal basis of I: grevlex by buchberger, or under lead > 0 the
    block basis lex on the first lead variables."""
    return oracles.block_basis(I, lead) if lead else buchberger(I)


def basis_and_pair_count(ideal, lead, loop):
    """The minimal leading monomials of the core loop given, and the
    number of S-polynomials the loop forms, on a copy of the ideal that
    holds no basis yet.  Each loop adds
    to the generators only remainders of S-polynomials, elements of I, so
    its basis generates I and is a Groebner basis of I exactly when its
    leading monomials generate in(I).  So two loops, one of them right,
    with the same minimal leading monomials have the same reduced basis,
    though their tails may differ."""
    pairs = []
    s_poly = groebner._s_poly_int

    def spy(*args):
        pairs.append(args)
        return s_poly(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_s_poly_int", spy)
        mp.setattr(groebner, "_buchberger_int", loop)
        gb = basis(Ideal(ideal.generators, ideal.variable_count,
                         ideal.hilbert_tail), lead)
    return gb.leading_monomials, len(pairs)


def test_gebauer_moeller_update_matches_the_chain_criterion_loop():
    # the loops may take different pairs of one lcm, so they agree on the
    # reduced basis, by its leading monomials, and not on the tails
    cases = [(name, jacobian_ideal(arr.defining_polynomial()), 0)
             for name, arr in corpus.build_corpus()]
    # past the corpus: x, y, z and the sweep and moment draws, d = 4..12
    cases += [("draw", jacobian_ideal(arr.defining_polynomial()), 0)
              for arr in product_draws()[len(cases):]]
    cases += [("lqh", I, 0) for I, _ in lqh_jacobians(8, 4)]
    cases += [("localized", oracles._localized(I, moment_form(weights, c)), 1)
              for I, weights in lqh_jacobians(8, 4) for c in (0, 1)]
    fewer = {}
    for name, I, lead in cases:
        got, formed = basis_and_pair_count(I, lead, groebner._buchberger_int)
        want, by_chain = basis_and_pair_count(
            I, lead, oracles.buchberger_by_chain_criterion)
        assert got == want, I
        assert formed <= by_chain, I
        fewer[name] = formed < by_chain
    assert fewer["ziegler_g"]


def test_the_loop_reduces_only_the_head_of_each_remainder(monkeypatch):
    # on the Ziegler f request's Jacobian: no remainder's head is
    # reducible, each is that of the Fraction reduction against the same
    # list, and some remainder keeps a tail term that a leading monomial
    # of the basis it was reduced against divides
    remainders = []
    reduce = groebner._reduce

    def spy(d, basis, *args):
        r = reduce(d, basis, *args)
        remainders.append((d, list(basis), r))
        return r

    monkeypatch.setattr(groebner, "_reduce", spy)
    buchberger(oracles.jacobian(validate(oracles.ZIEGLER_F.split(","))))
    assert any(r for _, _, r in remainders)
    for d, basis, r in remainders:
        lms = [b[0] for b in basis]
        if r:
            assert not any(divides(GREVLEX, m, max(r)) for m in lms)
        # both take the first reducer in list order, so both cancel the
        # same heads, whether or not the list is a Groebner basis yet
        listed = groebner.GroebnerBasis(GREVLEX, basis, None)
        nf = normal_form_by_fractions(
            groebner._from_int_poly(d, GREVLEX), listed)
        assert nf.is_zero() == (not r)
        if r:
            assert GREVLEX.pack(leading_monomial(nf, listed)) == max(r)
    assert any(divides(GREVLEX, m, t) for _, basis, r in remainders if r
               for t in r if t != max(r) for m, _, _ in basis)


def big_coefficient(rng):
    """A signed coefficient of up to about 1,200 bits: powers of small
    primes, so that the sums a reduction forms keep a large content, times
    an odd factor of up to 64 bits."""
    v = rng.choice((1, -1)) * (rng.getrandbits(64) | 1)
    for p in (2, 3, 5, 7, 11):
        v *= p ** rng.randint(0, 90)
    return v


def random_int_dict(rng, top, size):
    """Up to size terms x^a y^b z^c, a, b, c <= top, under GREVLEX."""
    return {GREVLEX.pack(tuple(rng.randint(0, top) for _ in range(3))):
            big_coefficient(rng) for _ in range(size)}


def test_reduce_returns_the_remainder_of_stripping_every_step(monkeypatch):
    # the schedule strips the content only as the head's bits double, so
    # on coefficients past 1,000 bits it strips partway through some
    # reductions and divides by a content past 1 there; the remainder is
    # the reference's dict all the same
    rng = random.Random(42)
    stripped = []
    strip = groebner._strip_content

    def spy(d):
        out = strip(d)
        stripped.append(out is not d)
        return out

    midway = []
    for _ in range(300):
        basis = [groebner._int_triple(random_int_dict(rng, 2, 3))
                 for _ in range(rng.randint(1, 4))]
        d = groebner._strip_content(random_int_dict(rng, 4, 8))
        want = oracles.reduce_stripping_every_step(
            d, basis, GREVLEX, groebner._Budget(None))
        with monkeypatch.context() as mp:
            mp.setattr(groebner, "_strip_content", spy)
            got = groebner._reduce(d, basis, GREVLEX, groebner._Budget(None))
        assert got == want
        midway.append(any(stripped[1:-1]))
        stripped.clear()
    assert any(midway)


def test_the_loop_takes_the_reference_reducers_pairs(monkeypatch):
    # every triple the loop returns, coefficients included, is the one it
    # returns with the reducer that strips the content after every step,
    # on the request's moved Jacobian of each corpus arrangement, which
    # carries a Hilbert tail, on its Jacobian in the original coordinates,
    # and on the lqh draws of seeds 0-5
    cases = [I for _, arr in corpus.build_corpus()
             for I in (oracles.jacobian(arr),
                       jacobian_ideal(arr.defining_polynomial()))]
    cases += [I for seed in range(6) for I, _ in lqh_jacobians(seed, 4)]

    def run(I):
        pk = _packing(3)
        return groebner._buchberger_int(I._triples, pk, groebner._Budget(None),
                                        I.hilbert_tail)

    with monkeypatch.context() as mp:
        mp.setattr(groebner, "_reduce", oracles.reduce_stripping_every_step)
        want = [run(I) for I in cases]
    for I, result in zip(cases, want):
        assert run(I) == result, I


def test_corpus_jacobian_bases_are_fully_reduced():
    for name, arr in corpus.build_corpus():
        gb = buchberger(jacobian_ideal(arr.defining_polynomial()))
        lms = gb.leading_monomials
        for lm, element in zip(lms, oracles.reduced_basis(gb)):
            assert element.terms[lm] == 1, name
            for m in element.terms:
                assert m == lm or not any(
                    oracles.mono_divides(b, m) for b in lms), name


def test_elements_are_the_held_minimal_basis_made_monic():
    # reading them spends no step: each is a held triple over its leading
    # coefficient, with the reduced basis's leading monomial, and lies in
    # the ideal (by linear algebra on the two small ideals); on the
    # Ziegler f Jacobian some tail is not reduced
    cases = [ideal("x^2*y - z^3", "x*z - y^2", "y^3 - x*z^2"),
             ideal("3*x^2 + 1/2*y*z", "2/3*x*y - 5*z^2", "x*z^2 - 7/4*y^3"),
             oracles.jacobian(validate(oracles.ZIEGLER_F.split(",")))]
    for I in cases[:2]:
        for g in buchberger(I).elements:
            assert oracles.in_ideal_graded(g, I.generators,
                                           max(map(sum, g.terms)))
    unreduced = []
    for I in cases:
        gb = buchberger(I)
        with step_budget(0):
            elements = gb.elements
        reduced = oracles.reduced_basis(gb)
        pk = gb.packing
        by_reduced = groebner.GroebnerBasis(
            pk, [oracles.to_int_poly(g, pk) for g in reduced], None)
        assert len(elements) == len(reduced) == len(gb.leading_monomials)
        for lm, g, h in zip(gb.leading_monomials, elements, reduced):
            assert leading_monomial(g, gb) == leading_monomial(h, gb) == lm
            assert g.terms[lm] == 1
            assert normal_form_by_fractions(g, by_reduced).is_zero()
        unreduced.append(elements != reduced)
    assert unreduced[-1]


def test_membership_matches_linear_algebra_oracle():
    gens = [P("x^2 - y*z"), P("x*y - z^2")]
    gb = buchberger(Ideal(tuple(gens)))
    rng = random.Random(11)
    for q in (2, 3, 4):
        for _ in range(8):
            monos = oracles.monomials_of_degree(q)
            p = Polynomial({m: rng.randint(-2, 2) for m in monos}, 3)
            if not p.terms:
                continue
            by_nf = normal_form_by_fractions(p, gb).terms == {}
            assert by_nf == oracles.in_ideal_graded(p, gens, q)


def test_eliminate_examples():
    # x, y, z read as (t, x, y); drop the first variable
    projected = eliminate(ideal("x*y - 1", "x*z"), 1)
    assert [str(g) for g in projected.generators] == ["y"]
    assert eliminate(ideal("y"), 1) == Ideal((Polynomial({(1, 0): 1}, 2),))
    assert eliminate(ideal("x - y"), 1) == Ideal((), 2)


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


def saturated(I, weights=(1, 1, 1)):
    """in(I^sat), read by the entry point under the weights."""
    return saturated_leading_monomials(I, weights)[1]


def monomial_ideal(monomials):
    return Ideal(tuple(Polynomial({m: 1}, 3) for m in monomials))


def test_saturate_irrelevant_examples():
    assert saturated(ideal("x^2", "x*y", "x*z")) == ((1, 0, 0),)
    assert saturated(ideal("x^2", "y^2", "z^2")) == ((0, 0, 0),)
    assert saturated(ideal("x")) == ((1, 0, 0),)


def test_saturation_contains_ideal_and_is_idempotent():
    I = ideal("x^2*y", "y^2*z", "z^2*x")
    sat = saturated(I)
    # I lies in I^sat: R/I is at least as large in every degree
    lms = buchberger(I).leading_monomials
    top = max(len(tail_of(lms)[0]), len(tail_of(sat)[0])) - 1
    assert all(a >= b for a, b in zip(oracles.hilbert_function(lms, top),
                                      oracles.hilbert_function(sat, top)))
    # here in(I^sat) is itself saturated, so saturating it changes nothing
    assert saturated(monomial_ideal(sat)) == sat


def test_saturation_ignores_generator_scaling():
    I = ideal("x^2", "x*y", "x*z")
    J = ideal("5*x^2", "-2*x*y", "1/3*x*z")
    assert saturated(I) == saturated(J)


def times_maximal_ideal(*texts):
    """(generators) * (x, y, z): the same scheme with an embedded origin."""
    return Ideal(tuple(poly_mul(P(t), P(v)) for t in texts
                       for v in ("x", "y", "z")))


def same_hilbert_function(lms_a, lms_b):
    """R/(lms_a) and R/(lms_b) have the same standard Hilbert function in
    every degree: past both starts each is a polynomial of degree at most
    two, so three more values decide; a tail ends two past its start."""
    top = max(len(tail_of(lms_a)[0]), len(tail_of(lms_b)[0])) - 1
    return (oracles.hilbert_function(lms_a, top)
            == oracles.hilbert_function(lms_b, top))


def certified(lms_i, lms_j):
    """The saturation's certificate: in(J) holds finitely many monomials
    outside in(I), cut out of the staircase of in(I)."""
    return groebner._saturation_excess(lms_i, groebner._staircase(lms_i),
                                       lms_j) is not None


def test_fast_saturation_agrees_with_colon_intersection():
    # under any grading weights the monomials are in(I^sat) of the ideal as
    # given: the corpus Jacobians in original coordinates, most certified at
    # c > 0, the H0 cases under their own weights, and every draw of both
    # lqh families for seeds 0-19, saturated by the form chosen for each
    samples = [
        ideal("x^2*y", "y^2*z", "z^2*x"),
        ideal("x^3", "x*y^2 - x*z^2"),
        ideal("x*y*z", "x^2*y - y^2*z"),
        # cones over points of P^2, with an embedded component at the origin
        times_maximal_ideal("x*y", "x*z", "y*z"),
        times_maximal_ideal("x^2 - y*z", "y^2 - x*z"),
        times_maximal_ideal("x^2", "x*y", "y^2"),
        times_maximal_ideal("x*y - z^2", "x*z + y*z - 2*z^2"),
    ] + [jacobian_ideal(arr.defining_polynomial())
         for _, arr in corpus.build_corpus()]
    cases = [(I, (1, 1, 1)) for I in samples]
    cases += [(I, tuple(v // gcd(*w.scaled) for v in w.scaled))
              for I, w in H0_CASES]
    cases += [case for seed in range(20) for case in lqh_jacobians(seed, 4)]
    for I, weights in cases:
        expect = buchberger(oracles.saturation_by_columns(I))
        assert saturated(I, weights) == expect.leading_monomials, I


def hilbert_constant(I):
    _, e = buchberger(I).tail
    assert e is not None, "dim R/I is not 1"
    return e


def first_line_missing(points):
    c = 0
    while any(p[2] + c * p[0] + c * c * p[1] == 0 for p in points):
        c += 1
    return c


@pytest.fixture
def chosen_lines(monkeypatch):
    """Every colon computed: "divided" for the division of the ideal's
    basis by z, "boxes" for the colon by z read off the boxes of in(I),
    and c for an elimination by l_c."""
    chosen = []
    by_z, colon = groebner._saturate_by_z, groebner._weighted_colon
    read = groebner._z_colon_excess

    def spy_by_z(gb):
        chosen.append("divided")
        return by_z(gb)

    def spy_read(boxes):
        chosen.append("boxes")
        return read(boxes)

    def spy_colon(ideal, weights, c):
        chosen.append(c)
        return colon(ideal, weights, c)

    monkeypatch.setattr(groebner, "_saturate_by_z", spy_by_z)
    monkeypatch.setattr(groebner, "_z_colon_excess", spy_read)
    monkeypatch.setattr(groebner, "_weighted_colon", spy_colon)
    yield chosen


def test_chosen_line_is_first_moment_curve_line_missing_the_lattice(
        chosen_lines):
    for name, arr in corpus.build_corpus():
        jac = jacobian_ideal(arr.defining_polynomial())
        points = singular_points(arr)
        # the Jacobian scheme has length (m - 1)^2 at a point of multiplicity m
        e = hilbert_constant(jac)
        assert e == sum((sp.multiplicity - 1) ** 2 for sp in points), name
        c = first_line_missing([sp.vector for sp in points])
        assert c <= 2 * e, name
        chosen_lines.clear()
        h0_degree_data(jac, STANDARD)  # as a request reads the saturation
        # c = 0 is read off the boxes of in(J), and each c > 0 is one
        # elimination; the certificate alone refuses every line through a
        # singular point, so the colons run from 0 to the first line that
        # misses them all
        assert chosen_lines == ["boxes"] + list(range(1, c + 1)), name
        chosen_lines.clear()
        # only the reader of the monomials divides the basis by z, and only
        # when c = 0 is certified
        assert saturated_leading_monomials(jac, (1, 1, 1))[0] == c, name
        assert chosen_lines == (["boxes", "divided"] if c == 0 else
                                ["boxes"] + list(range(1, c + 1))), name


@pytest.fixture
def reference_calls(monkeypatch):
    """Calls to the weighted colon."""
    calls = []
    colon = groebner._weighted_colon

    def spy(*args, **kwargs):
        calls.append(args)
        return colon(*args, **kwargs)

    monkeypatch.setattr(groebner, "_weighted_colon", spy)
    yield calls


def test_corpus_saturations_eliminate_only_for_a_certified_c_past_zero(
        reference_calls):
    # c = 0 divides the ideal's basis; each c > 0 up to the certified one is
    # one elimination, so a certified c = 0 eliminates nothing
    certified = set()
    for name, arr in corpus.build_corpus():
        jac = jacobian_ideal(arr.defining_polynomial())
        c = first_line_missing([sp.vector for sp in singular_points(arr)])
        reference_calls.clear()
        h0_degree_data(jac, STANDARD)  # as a request reads the saturation
        assert reference_calls == [(jac, (1, 1, 1), k)
                                   for k in range(1, c + 1)], name
        assert saturated_leading_monomials(jac, (1, 1, 1))[0] == c, name
        certified.add(c > 0)
    assert certified == {False, True}


def test_hilbert_certificate_rejects_a_line_through_a_singular_point():
    arr = validate(oracles.ZIEGLER_G.split(","))
    jac = jacobian_ideal(arr.defining_polynomial())
    gb = buchberger(jac)
    # z is one of the lines, so it passes through singular points
    c = first_line_missing([sp.vector for sp in singular_points(arr)])
    assert 0 < c <= 2 * hilbert_constant(jac)
    by_z = groebner._saturate_by_z(gb)
    assert not certified(gb.leading_monomials, by_z)
    # the boxes of in(J) refuse it as the division does
    assert groebner._z_colon_excess(gb._boxes) is None
    for k in range(1, c):
        assert not certified(gb.leading_monomials,
                             groebner._weighted_colon(jac, (1, 1, 1), k))
    by_c = groebner._weighted_colon(jac, (1, 1, 1), c)
    assert certified(gb.leading_monomials, by_c)
    expect = buchberger(oracles.saturation_by_columns(jac))
    assert same_hilbert_function(by_c, expect.leading_monomials)
    assert not same_hilbert_function(by_z, expect.leading_monomials)


def test_artinian_ideals_saturate_to_the_unit_ideal(reference_calls):
    fermat = jacobian_ideal(P("x^3+y^3+z^3"))
    # weights (1/3, 1/4, 1/6); isolated, so the Jacobian is m-primary
    brieskorn = jacobian_ideal(P("x^3+y^4+z^6+3*y^2*z^3"))
    unit = (None, ((0, 0, 0),))
    assert saturated_leading_monomials(fermat, (1, 1, 1)) == unit
    assert saturated_leading_monomials(brieskorn, (4, 3, 2)) == unit
    assert reference_calls == []


def lqh_jacobians(seed, draws):
    """(Jacobian, weights) for seeded draws of the two locally
    quasi-homogeneous families z (x^a + j y^b)(x^a + k y^b) and
    xyz (x^a + j y^b + k z^c), with a != b, so neither is
    standard-homogeneous.  The weights are coprime positive integers: for
    the first family (b, a) over g = gcd(a, b), with the free weight of z
    their lcm; for the second the weights 1/a, 1/b, 1/c cleared of their
    denominators."""
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        a, b = rng.sample(range(2, 6), 2)
        c = rng.randint(2, 5)
        j, k = rng.sample(range(1, 10), 2)
        g = gcd(a, b)
        out.append((jacobian_ideal(poly_mul(
                        P("z"), P("x^%d + %d*y^%d" % (a, j, b)),
                        P("x^%d + %d*y^%d" % (a, k, b)))),
                    (b // g, a // g, a * b // g // g)))
        n = gcd(b * c, a * c, a * b)
        out.append((jacobian_ideal(poly_mul(
                        P("x*y*z"), P("x^%d + %d*y^%d + %d*z^%d"
                                      % (a, j, b, k, c)))),
                    (b * c // n, a * c // n, a * b // n)))
    return out


def weighted_h0_cases():
    """(I, weights) for the H0 cases that (1, 1, 1) does not grade, each
    under its own weights as coprime integers."""
    out = []
    for I, w in H0_CASES:
        if not all(wdeg(g, STANDARD) is not None for g in I.generators):
            g = gcd(*w.scaled)
            out.append((I, tuple(v // g for v in w.scaled)))
    return out


def moment_form(weights, c):
    """z^(D/w_z) + c*x^(D/w_x) + c^2*y^(D/w_y), D = lcm(w)."""
    wx, wy, wz = weights
    D = lcm(wx, wy, wz)
    return P("z^%d + %d*x^%d + %d*y^%d"
             % (D // wz, c, D // wx, c * c, D // wy))


def weighted_colon(I, weights, c):
    return buchberger(saturate_by_poly(I, moment_form(weights, c)))


def test_weighted_jacobians_saturate_by_the_first_certified_colon(
        chosen_lines, monkeypatch):
    # the two non-isolated Jacobians under fractional weights; the other
    # weighted cases there are graded by (1, 1, 1) as well.  Every product
    # draw is free: its in(I) is saturated, and no colon is computed
    cases = lqh_jacobians(8, 4) + weighted_h0_cases()
    assert len(cases) == 10
    free = []
    for I, weights in cases:
        chosen_lines.clear()
        chosen, lms = saturated_leading_monomials(I, weights)
        if chosen is None:
            assert lms == buchberger(I).leading_monomials, I
            assert chosen_lines == [], I
        free.append(chosen is None)
    assert free == [True, False] * 4 + [False, False]
    # with that test off every case runs the colon loop
    monkeypatch.setattr(groebner, "_is_saturated", lambda lms: False)
    for I, weights in cases:
        assert weights != (1, 1, 1), I
        chosen_lines.clear()
        chosen, lms = saturated_leading_monomials(I, weights)
        expect = buchberger(oracles.saturation_by_columns(I))
        assert lms == expect.leading_monomials, I
        # the first c >= 1 whose colon is the saturation, found by brute
        # force over 1 <= c <= 2e + 1, e = dim (R/I)_t for large t, where
        # some c passes
        e = buchberger(I).tail[1]
        reduced = oracles.reduced_basis(expect)
        c = next(k for k in range(1, 2 * e + 2) if oracles.reduced_basis(
            weighted_colon(I, weights, k)) == reduced)
        assert chosen == c, I
        # one elimination for each c from 1 to the certified one, and no
        # colon by a power of z
        assert chosen_lines == list(range(1, c + 1)), I


def test_packed_weighted_colon_matches_the_localized_polynomials():
    # the triples _weighted_colon packs are (I, t*h_c - 1) as built from
    # Polynomials, and its minimal leading monomials are the reduced basis's
    for I, weights in lqh_jacobians(8, 4) + weighted_h0_cases():
        for c in range(3):
            gb = oracles.block_basis(
                oracles._localized(I, moment_form(weights, c)), 1)
            want = tuple(m[1:] for m in gb.leading_monomials if not m[0])
            assert groebner._weighted_colon(I, weights, c) == want, (I, c)


def test_weighted_saturation_of_a_surface_singular_along_a_curve():
    # non-reduced: the whole cuspidal surface x^2 + y^3 = 0 is singular
    jac = jacobian_ideal(poly_mul(P("z"), P("x^2 + y^3"), P("x^2 + y^3")))
    lms = buchberger(jac).leading_monomials
    assert tail_of(lms)[1] is None  # dim R/I = 2
    expect = buchberger(oracles.saturation_by_columns(jac))
    assert saturated(jac, (3, 2, 6)) == expect.leading_monomials


def test_certificate_rejects_the_form_through_the_points_at_z_zero(
        reference_calls, monkeypatch):
    jac = jacobian_ideal(poly_mul(P("z"), P("x^2 + 2*y^3"),
                                  P("x^2 + 5*y^3")))
    weights = (3, 2, 6)
    lms = buchberger(jac).leading_monomials
    # a free product: its in(I) is saturated, and no colon is computed
    assert saturated_leading_monomials(jac, weights) == (None, lms)
    assert reference_calls == []
    # with that test off, the colon loop
    monkeypatch.setattr(groebner, "_is_saturated", lambda lms: False)
    c, sat = saturated_leading_monomials(jac, weights)
    assert c == 1 and sat == lms
    # z^(D/w_z) vanishes on the points of V(I) on z = 0, so the
    # certificate refuses its colon; under these weights the loop starts at
    # c = 1 and computes none for c = 0
    assert not oracles.misses_z_zero(jac)
    assert [k for _, _, k in reference_calls] == list(range(1, c + 1))
    assert not certified(
        lms, weighted_colon(jac, weights, 0).leading_monomials)
    assert certified(
        lms, weighted_colon(jac, weights, c).leading_monomials)


def test_saturated_monomial_test_matches_the_box_search():
    # seeded monomial ideals of dimension 0, 1 and 2, each also times
    # (x, y, z), which puts its own generators in the socle, random ones,
    # and in(J) of the lqh draws, the weighted H0 cases and the corpus
    # Jacobians in original and in moved coordinates
    rng = random.Random(26)
    ideals = []
    for _ in range(300):
        gens = random_monomial_ideal(rng, rng.randint(0, 2))
        ideals += [gens, [(a + (i == 0), b + (i == 1), c + (i == 2))
                          for a, b, c in gens for i in range(3)]]
        ideals.append([tuple(rng.randint(0, 5) for _ in range(3))
                       for _ in range(rng.randint(0, 6))])
    ideals = [tuple(sorted(set(gens))) for gens in ideals]
    jacobians = [I for seed in range(20) for I, _ in lqh_jacobians(seed, 4)]
    jacobians += [I for I, _ in weighted_h0_cases()]
    for _, arr in corpus.build_corpus():
        jacobians += [jacobian_ideal(arr.defining_polynomial()),
                      oracles.jacobian(arr)]
    ideals += [buchberger(I).leading_monomials for I in jacobians]
    verdicts = set()
    for lms in ideals:
        socle = oracles.socle_monomial_by_box(lms)
        with step_budget() as budget:
            assert groebner._is_saturated(lms) == (socle is None), lms
        # one step per generator, and one per drop of row a - 1 compared for
        # each x-exponent a of a generator, up to the row past the socle
        # monomial's, the first the box search finds: that row's staircase
        # has a corner per minimal (y, z) pair of the generators at or
        # below it, and a drop at each corner past the first
        last = socle[0] + 1 if socle else max((m[0] for m in lms), default=0)
        drops = sum(max(len(row_corners(lms, a - 1)) - 1, 0)
                    for a in {m[0] for m in lms} if a <= last)
        assert budget.used == len(lms) + drops, lms
        verdicts.add(socle is None)
    assert verdicts == {False, True}


def standard_weight_draws(seed, count):
    """Jacobians of the fuzz draws (test_fuzz.draw_polynomial) among the
    first count of the seed that are requested under weights 1,1,1, parse,
    and are homogeneous and not constant under (1, 1, 1)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        poly, weights = draw_polynomial(rng)
        if weights != "1,1,1":
            continue
        try:
            f = parse_polynomial(poly)
        except ParseError:
            continue
        if not f.is_constant() and wdeg(f, STANDARD) is not None:
            out.append(jacobian_ideal(f))
    return out


def test_colon_by_z_read_off_the_boxes_matches_the_division():
    # in(I : z^infinity) = in(I) : z^infinity (Bayer-Stillman): the boxes
    # of in(I) with a finite z-extent list the monomials of the colon
    # outside in(I) as the division of the basis by z, cut out of them,
    # lists them, or both find them infinite.  On the corpus
    # Jacobians, the Ziegler pair among them, in original and in moved
    # coordinates, and on the standard-weight fuzz draws; the saturation
    # then takes c = 0, or in(I) itself when no monomial is listed
    cases = []
    for _, arr in corpus.build_corpus():
        cases += [jacobian_ideal(arr.defining_polynomial()),
                  oracles.jacobian(arr)]
    cases += standard_weight_draws(1, 2000)
    verdicts = set()
    for I in cases:
        gb = buchberger(I)
        lms = gb.leading_monomials
        read = groebner._z_colon_excess(gb._boxes)
        want = oracles.z_colon_excess_by_division(I)
        assert (read is None) == (want is None), I
        if groebner._is_artinian(lms):
            continue
        c, sat = saturated_leading_monomials(I, (1, 1, 1))
        if want is None:
            verdicts.add("refused")
            assert c != 0, I
            continue
        cut = max(map(max, lms)) + 2
        assert sorted(oracles.box_monomials(read, cut)) == \
            sorted(oracles.box_monomials(want, cut)), I
        verdicts.add("finite" if want else "saturated")
        assert (c, sat) == ((0, groebner._saturate_by_z(gb)) if want else
                            (None, lms)), I
    assert verdicts == {"refused", "finite", "saturated"}


@pytest.mark.parametrize("divided, check", [
    (lambda sat, lms: lms, "check 'colon by z' failed"),
    (lambda sat, lms: sat + ((0, 0, 1),), "check 'colon by z' failed"),
    (lambda sat, lms: sat[:-1], "saturation smaller than the ideal"),
], ids=["undivided", "past_the_colon", "missing_a_monomial_of_the_ideal"])
def test_a_wrong_division_by_z_is_refused(monkeypatch, divided, check):
    # four general lines: c = 0, and the colon by z adds y^3 to in(J).
    # saturated_leading_monomials cuts the division it returns out of the
    # boxes of in(J) and checks it against those read off in(J): a
    # division that adds nothing, that gives z, outside in(J) :
    # z^infinity, or that leaves out x^3 of in(J) is refused
    I = oracles.jacobian(validate(["x", "y", "z", "x+y+z"]))
    sat = ((0, 3, 0), (1, 2, 0), (2, 1, 0), (3, 0, 0))
    assert saturated_leading_monomials(I, (1, 1, 1)) == (0, sat)
    lms = buchberger(I).leading_monomials
    monkeypatch.setattr(groebner, "_saturate_by_z",
                        lambda gb: divided(sat, lms))
    with pytest.raises(groebner.Bs3Error, match=check):
        saturated_leading_monomials(I, (1, 1, 1))


def row_corners(lms, a):
    """The minimal (y, z) exponent pairs of the monomials with x-exponent
    at most a."""
    pairs = {m[1:] for m in lms if m[0] <= a}
    return [p for p in pairs
            if not any(q != p and q[0] <= p[0] and q[1] <= p[1]
                       for q in pairs)]


def test_free_product_draws_read_the_saturation_off_one_basis(monkeypatch):
    # z (x^a + j y^b)(x^a + k y^b) is free (K. Saito), and its in(I) is
    # saturated: I^sat = I is read off the one grevlex basis, with no
    # colon; every xyz draw still computes one
    runs, colons = [], []
    int_run, colon = groebner._buchberger_int, groebner._weighted_colon

    def spy_run(*args):
        runs.append(args)
        return int_run(*args)

    def spy_colon(*args):
        colons.append(args)
        return colon(*args)

    monkeypatch.setattr(groebner, "_buchberger_int", spy_run)
    monkeypatch.setattr(groebner, "_weighted_colon", spy_colon)
    for seed in range(20):
        for n, (I, weights) in enumerate(lqh_jacobians(seed, 4)):
            runs.clear()
            colons.clear()
            c, lms = saturated_leading_monomials(I, weights)
            if n % 2 == 0:
                assert (c, colons, len(runs)) == (None, [], 1), I
                assert lms == buchberger(I).leading_monomials, I
            else:
                assert c is not None and colons, I


def test_a_saturated_ideal_with_an_unsaturated_initial_ideal_takes_a_colon():
    # the test reads in(I), so it is sufficient, not necessary: the braid
    # arrangement is free, so its Jacobian J is saturated, but in the
    # original coordinates in(J) has a socle monomial and the loop
    # certifies a colon; in the arrangement's moved coordinates in(J) is
    # saturated
    arr = validate(oracles.BRAID.split(","))
    jac = jacobian_ideal(arr.defining_polynomial())
    lms = buchberger(jac).leading_monomials
    expect = buchberger(oracles.saturation_by_columns(jac))
    assert expect.leading_monomials == lms
    assert oracles.socle_monomial_by_box(lms) is not None
    assert saturated_leading_monomials(jac, (1, 1, 1)) == (1, lms)
    moved = oracles.jacobian(arr)
    lms = buchberger(moved).leading_monomials
    assert oracles.socle_monomial_by_box(lms) is None
    assert saturated_leading_monomials(moved, (1, 1, 1)) == (None, lms)


def test_certificate_passes_the_colon_by_a_power_of_z_iff_z_zero_misses():
    # for dim R/I = 1 the certificate passes the colon by z^(D/w_z) exactly
    # when z = 0 misses V(I), decided by restricting the generators;
    # x*y*(x^3 + y^2 + z^5) has no singular point at z = 0, the others do
    cases = lqh_jacobians(8, 4) + weighted_h0_cases() + [
        (jacobian_ideal(poly_mul(P("z"), P("x^2 + 2*y^3"),
                                 P("x^2 + 5*y^3"))),
         (3, 2, 6)),
        (jacobian_ideal(poly_mul(P("x*y"), P("x^3 + y^2 + z^5"))),
         (10, 15, 6))]
    misses = []
    for I, weights in cases:
        lms = buchberger(I).leading_monomials
        assert tail_of(lms)[1] is not None, I
        misses.append(oracles.misses_z_zero(I))
        assert misses[-1] == certified(
            lms, weighted_colon(I, weights, 0).leading_monomials), I
    assert misses == [False] * (len(cases) - 1) + [True]


def test_other_weights_never_compute_the_colon_by_a_power_of_z(
        chosen_lines):
    # z = 0 misses V(I) for x*y*(x^3 + y^2 + z^5), so its colon by z^5
    # would pass the certificate.  Under (10, 15, 6) the loop starts at
    # c = 1 all the same: l_1 = z^5 + x^3 + y^2 is a factor of f and is
    # refused, and c = 2 is certified, with the monomials of I^sat
    I = jacobian_ideal(poly_mul(P("x*y"), P("x^3 + y^2 + z^5")))
    weights = (10, 15, 6)
    lms = buchberger(I).leading_monomials
    assert certified(lms, weighted_colon(I, weights, 0).leading_monomials)
    c, sat = saturated_leading_monomials(I, weights)
    assert (c, chosen_lines) == (2, [1, 2])
    expect = buchberger(oracles.saturation_by_columns(I))
    assert sat == expect.leading_monomials


def test_saturation_refuses_other_than_three_weights(monkeypatch):
    # refused before any basis work
    monkeypatch.setattr(groebner, "buchberger", None)
    for weights in ((1, 1), (1, 1, 1, 1)):
        with pytest.raises(PreconditionError, match="needs 3 weights"):
            saturated_leading_monomials(jacobian_ideal(P("x*y*z")), weights)


def test_saturation_reads_a_weight_list_and_refuses_other_weight_types(
        monkeypatch):
    # a list is read as its tuple, so both read the one basis the ideal
    # keeps; a weight that is not an int is refused before any basis work
    runs = []
    int_run = groebner._buchberger_int

    def spy(*args):
        runs.append(args)
        return int_run(*args)

    monkeypatch.setattr(groebner, "_buchberger_int", spy)
    I, weights = lqh_jacobians(8, 4)[0]
    for bad in ((1.5, 1, 1), (True, 1, 1), (1, 1, Fraction(2)), ("1", 1, 1)):
        with pytest.raises(PreconditionError, match="needs integer weights"):
            saturated_leading_monomials(I, bad)
    assert runs == []
    got = saturated_leading_monomials(I, list(weights))
    assert runs
    runs.clear()
    assert saturated_leading_monomials(I, weights) == got
    assert runs == []


def test_certificate_passes_as_the_hilbert_polynomials_at_0_1_2_agree():
    # for in(I) in in(J), a finite excess of in(J) over in(I) is an equal
    # Hilbert polynomial, decided as its values at t = 0, 1, 2 are, on
    # monomial ideals of dimension 0, 1 and 2 under the sum with a random
    # ideal, with one more monomial, and over their product by (x, y, z),
    # which keeps the saturation
    rng = random.Random(24)
    verdicts = []
    for _ in range(300):
        a = random_monomial_ideal(rng, rng.randint(0, 2))
        a, b = rng.choice([
            (a, a + random_monomial_ideal(rng, rng.randint(0, 2))),
            (a, a + [tuple(rng.randint(0, 4) for _ in range(3))]),
            ([(p + (i == 0), q + (i == 1), r + (i == 2))
              for p, q, r in a for i in range(3)], a)])
        a, b = tuple(sorted(set(a))), tuple(sorted(set(b)))
        want = oracles.same_hilbert_polynomial_at_0_1_2(a, b)
        assert certified(a, b) == want, (a, b)
        verdicts.append((want, tail_of(a)[1] != 0))
    # equal polynomials occur off dimension 0 too, where they are not 0
    assert {v for v, _ in verdicts} == {False, True}
    assert (True, True) in verdicts


def test_ideals_with_no_positive_grading_are_refused():
    I = ideal("x - 1", "y + 1", "z")
    with pytest.raises(PreconditionError):
        saturated_leading_monomials(I, (1, 1, 1))
    # why: the colon by z + x + y is (1), with the same Hilbert polynomial
    # as I, although the saturation of the affine point is not (1)
    colon = buchberger(saturate_by_poly(I, P("z + x + y")))
    assert basis_texts(colon) == ["1"]
    assert certified(
        buchberger(I).leading_monomials, colon.leading_monomials)


def test_weights_that_do_not_grade_the_ideal_are_refused():
    # (4, 2, 1) grades I, and I is prime, so in(I^sat) = in(I) = (z^2, y^2);
    # under (1, 1, 1) the certificate would pass c = 1 with (y^2, x^2)
    I = ideal("x - y^2", "y - z^2")
    expect = buchberger(oracles.saturation_by_columns(I))
    assert saturated(I, (4, 2, 1)) == expect.leading_monomials
    assert expect.leading_monomials == ((0, 0, 2), (0, 2, 0))
    with pytest.raises(PreconditionError):
        saturated_leading_monomials(I, (1, 1, 1))
    # monomials are homogeneous under any weights, but a zero weight grades
    # nothing positively
    with pytest.raises(PreconditionError):
        saturated_leading_monomials(ideal("x*y", "z^3"), (1, 0, 1))


def test_ideals_compare_their_generators_literally():
    # each generator is held as its primitive triple and its scale, and
    # both take part: x, 2*x, -x and x/2 share the triple of x
    scaled = [ideal(t, "y^2 - z^2") for t in ("x", "2*x", "-x", "1/2*x")]
    for i, a in enumerate(scaled):
        for j, b in enumerate(scaled):
            assert (a == b) == (i == j), (a, b)
    again = ideal("1/2*x", "y^2 - z^2")
    assert again == scaled[3] and hash(again) == hash(scaled[3])
    assert again.generators == (P("1/2*x"), P("y^2 - z^2"))
    assert ideal("x", "y") != ideal("y", "x")
    assert Ideal((P("x"),), 3, (0, 1)) != ideal("x")


def test_a_generator_the_weights_do_not_grade_is_refused_by_name():
    # the check reads weighted degrees off the packed triples, and names
    # the generator as it was given, built from its triple and scale
    cases = [(("x^2+y", "z^2"), (1, 1, 1), "x^2 + y"),
             (("x - y^2", "y - z^2"), (1, 1, 1), "-y^2 + x"),
             (("z^2", "6*x^3 - 3/4*y^2*z"), (2, 3, 1), "6*x^3 - 3/4*y^2*z"),
             (("x*y", "-2/3*x^2+4*z"), (1, 1, 1), "-2/3*x^2 + 4*z")]
    for texts, weights, named in cases:
        with pytest.raises(PreconditionError) as refused:
            saturated_leading_monomials(ideal(*texts), weights)
        assert str(refused.value) == ("generator %s is not homogeneous for "
                                      "the given weights" % named)


def test_grading_weights_make_every_generator_homogeneous():
    # the weights lqh_jacobians writes from the family parameters are
    # coprime positive integers that grade each Jacobian
    for I, weights in lqh_jacobians(13, 10):
        assert min(weights) > 0 and gcd(*weights) == 1, I
        for g in I.generators:
            assert len({sum(e * w for e, w in zip(m, weights))
                        for m in g.terms}) == 1, (I, g)


GRADINGS = [
    (("x^2 - y*z", "y^3 - x*z^2"), (1, 1, 1)),  # standard weights
    (("x - y^2", "y - z^2"), (4, 2, 1)),        # differences span a plane
    (("x^2", "y^3 + z^6"), (2, 2, 1)),          # span a line; w_x is free
    (("x^2 - x", "y"), None),                   # needs weight(x) = 0
    (("x - y*z", "y - x*z"), None),             # needs weight(z) = 0
    (("x - y^2", "y - z^2", "z - x^2"), None),  # no weights at all
    (("x*y", "z^3"), (1, 1, 1)),                # monomials
    (("x^3 - y^2*z",), (1, 1, 1)),              # a line inside sum = 0
    (("x^2 - y^4", "y^3 - z^6"), (4, 2, 1)),    # normal (24, 12, 6)
]


# ids name whether some grading exists
@pytest.mark.parametrize("texts, weights", GRADINGS, ids=[
    "texts%d-%s" % (i, w is not None) for i, (_, w) in enumerate(GRADINGS)])
def test_positive_grading_detection(texts, weights):
    # the entry point accepts the weights that grade the ideal; where no
    # positive weights do, it refuses every weight vector it is handed
    I = ideal(*texts)
    if weights is None:
        refused = list(product(range(1, 5), repeat=3))
    else:
        saturated_leading_monomials(I, weights)
        refused = [] if weights == (1, 1, 1) else [(1, 1, 1)]
    for w in refused:
        with pytest.raises(PreconditionError):
            saturated_leading_monomials(I, w)


def test_artinian_shortcut_needs_a_positive_grading():
    # finite length, but V(I) also holds (1, 0, 0): no grading makes the
    # Artinian shortcut or the colon certificate sound, so it is refused
    I = ideal("x^2 - x", "y", "z")
    with pytest.raises(PreconditionError):
        saturated_leading_monomials(I, (1, 1, 1))
    # why: the grevlex basis has a power of every variable, yet the
    # saturation is the affine point's ideal, not (1)
    assert groebner._is_artinian(buchberger(I).leading_monomials)
    sat = buchberger(oracles.saturation_by_columns(I))
    assert sat.leading_monomials == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_step_cap_raises_resource_error():
    gens = tuple(P(t) for t in ("x^3*y - z^4", "x*z^2 - y^3",
                                "y^2*z - x^2"))
    with pytest.raises(ResourceLimitError), step_budget(3):
        buchberger(Ideal(gens))


def test_zero_ideal_and_unit_ideal():
    assert oracles.reduced_basis(buchberger(Ideal((), 3))) == ()
    gb = buchberger(ideal("1/2"))
    assert [str(g) for g in oracles.reduced_basis(gb)] == ["1"]
