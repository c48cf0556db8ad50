"""Graded dimension bookkeeping, local cohomology data, regularity."""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from bs3 import arrangement, cli, graded, groebner
from bs3.graded import h0_degree_data, regularity_report
from bs3.groebner import (Ideal, _lcm_degree, buchberger,
                          saturated_leading_monomials, step_budget)
from bs3.milnor import jacobian_ideal
from bs3.polyring import (Polynomial, PreconditionError, WeightSystem,
                          parse_polynomial)

import corpus
import oracles
from oracles import (graded_dimension, hilbert_function,
                     rank_route_dimension, weighted_monomials)

W1 = WeightSystem((1, 1, 1))


def P(text):
    return parse_polynomial(text)


def ideal(*texts):
    return Ideal(tuple(P(t) for t in texts))


QUARTIC_CONE = jacobian_ideal(P("x^2*y*z + x*y^2*z + x*y*z^2"))
# z (x^2 + 2 y^2)(x^2 + 3 y^2): four lines through (0:0:1) and one more, a
# free near-pencil, so its H0 is empty
NEAR_PENCIL = jacobian_ideal(P("x^4*z+5*x^2*y^2*z+6*y^4*z"))


def test_weighted_monomials_standard():
    assert len(weighted_monomials(W1, 3)) == 10
    assert len(weighted_monomials(W1, 0)) == 1
    assert weighted_monomials(W1, Fraction(1, 2)) == []


def test_weighted_monomials_with_weights():
    w = WeightSystem((3, 2, 1))
    monos = weighted_monomials(w, 6)
    assert len(monos) == 7
    assert (1, 1, 1) in monos and (2, 0, 0) in monos


def test_graded_dimension_examples():
    assert rank_route_dimension(ideal("x^2", "y^2", "z^2"), W1, 2) == 3
    assert rank_route_dimension(ideal("x"), W1, 5) == 6
    assert rank_route_dimension(Ideal((), 3), W1, 3) == 10


def test_graded_dimension_accepts_groebner_basis():
    I = ideal("x^2", "y^2", "z^2")
    gb = buchberger(I)
    for q in range(6):
        assert graded_dimension(gb, W1, q) == rank_route_dimension(I, W1, q)


def test_rank_and_standard_monomial_routes_agree_on_random_ideals():
    rng = random.Random(5)
    for _ in range(20):
        gens = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 4)
            monos = oracles.monomials_of_degree(deg)
            p = Polynomial({m: rng.randint(-2, 2) for m in monos}, 3)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        I = Ideal(tuple(gens))
        gb = buchberger(I)
        for q in range(5):
            assert rank_route_dimension(I, W1, q) == \
                graded_dimension(gb, W1, q)


def standard_monomial_count(lead_monomials, w, q):
    """dim (R/M)_q by listing every monomial of weighted degree q."""
    return sum(1 for m in weighted_monomials(w, q)
               if not any(oracles.mono_divides(lm, m)
                          for lm in lead_monomials))


def random_monomial_ideal(rng, dimension):
    """Monomial generators with dim R/M = dimension: pure powers of all
    three variables (0), of x and y with every generator in (x, y) (1), or
    every generator a multiple of x (2)."""
    gens = [tuple(rng.randint(0, 4) for _ in range(3))
            for _ in range(rng.randint(1, 5))]
    gens = [m for m in gens if any(m)]
    if dimension == 0:
        gens += [(rng.randint(1, 6), 0, 0), (0, rng.randint(1, 6), 0),
                 (0, 0, rng.randint(1, 6))]
    elif dimension == 1:
        gens = [m for m in gens if m[0] or m[1]]
        gens += [(rng.randint(1, 6), 0, 0), (0, rng.randint(1, 6), 0)]
    else:
        gens = [(m[0] + 1, m[1], m[2]) for m in gens] or [(1, 0, 0)]
    return gens


def test_hilbert_engine_matches_monomial_count():
    # every top below the last cuts some box short: its entries past top
    # are dropped, and the degrees up to top must not move
    rng = random.Random(3)
    for dimension in (0, 1, 2):
        for _ in range(5):
            lms = random_monomial_ideal(rng, dimension)
            top = _lcm_degree(lms) - 3
            want = [standard_monomial_count(lms, W1, t)
                    for t in range(top + 11)]
            assert hilbert_function(lms, top + 10) == want, \
                (lms, dimension)
            for cut in range(-1, top + 10):
                assert hilbert_function(lms, cut) == want[:cut + 1], \
                    (lms, cut)


def test_box_counts_match_the_column_walk():
    # hilbert_function on in(J) and in(J^sat) under (1, 1, 1), and
    # _excess_degrees on the boxes between them under weights that stretch
    # each stride in turn, against the column walk they replaced, for the
    # corpus Jacobians and seeded monomial ideals
    rng = random.Random(43)
    pairs = []
    for _ in range(60):
        a = random_monomial_ideal(rng, rng.randint(0, 2))
        pairs += [(a, a + random_monomial_ideal(rng, rng.randint(0, 2))),
                  (a, [(0, 0, 0)])]
    for _, arr in corpus.build_corpus():
        J = arrangement._jacobian(arr)
        pairs.append((buchberger(J).leading_monomials,
                      saturated_leading_monomials(J, (1, 1, 1))[1]))
    assert len(pairs) == 120 + 40
    compared = 0
    for a, b in pairs:
        a, b = tuple(sorted(set(a))), tuple(sorted(set(b)))
        boxes = groebner._saturation_excess(a, groebner._staircase(a), b)
        for weights in ((1, 1, 1), (2, 3, 5), (1, 1, 7), (7, 1, 1),
                        (1, 7, 1)):
            top = oracles.lcm_degree(a, weights) + max(weights)
            by_columns = [oracles.hilbert_function_by_columns(m, top, weights)
                          for m in (a, b)]
            if weights == (1, 1, 1):
                assert [hilbert_function(m, top) for m in (a, b)] == \
                    by_columns, (a, b, top)
            if boxes is None:
                continue
            compared += 1
            counts = groebner._excess_degrees(boxes, weights)
            assert counts + [0] * (top + 1 - len(counts)) == [
                u - v for u, v in zip(*by_columns)], (a, b, weights)
    assert compared > 5 * 40


def test_hilbert_values_extend_the_tail_by_the_hilbert_polynomial():
    # the tail runs to deg lcm; past it the values come from the
    # Hilbert polynomial, and a negative top gives no degree at all
    rng = random.Random(22)
    for dimension in (0, 1, 2):
        for _ in range(20):
            lms = tuple(sorted(random_monomial_ideal(rng, dimension)))
            tail = groebner._hilbert_tail(lms, groebner._staircase(lms))
            for top in range(-3, _lcm_degree(lms) + 12):
                assert groebner._hilbert_values(tail, top) == \
                    hilbert_function(lms, top), (lms, top)


def test_tail_counts_monomials_past_max_degree_in_one_exponent():
    # an unbounded M whose lcm has degree above MAX_DEGREE + 1: the top
    # degrees of its tail hold monomials with an exponent past MAX_DEGREE,
    # which its staircase keeps, and a basis reads the same tail
    n = 16500
    for lms in (((n, 0, 0), (0, n, 0)),
                ((n, 0, 0), (n - 1, 0, 1), (0, n - 1, 1))):
        assert _lcm_degree(lms) > groebner.MAX_DEGREE + 1
        hf, e = groebner._hilbert_tail(lms, groebner._staircase(lms))
        assert list(hf) == hilbert_function(lms, len(hf) - 1), lms
        assert e == hf[-1] > 0, lms
    I = ideal("x^%d" % n, "y^%d" % n)
    assert buchberger(I).tail[1] == n * n
    assert regularity_report(I).sheaf_dim_e == n * n


def test_cut_boxes_count_the_tail_a_fresh_walk_counts():
    # the boxes outside M, cut by the orthant of each monomial m added, are
    # the monomials outside M + (m), each in one box: they count the tail a
    # fresh walk counts.  The parts the cut removes are the monomials of
    # (m) outside M, each in one box, and a cut spends one step per box it
    # compares
    rng = random.Random(48)
    split = False
    for _ in range(150):
        lms = random_monomial_ideal(rng, rng.randint(0, 2))
        boxes = groebner._staircase(lms)
        for _ in range(rng.randint(1, 4)):
            m = tuple(rng.randint(0, 5) for _ in range(3))
            with step_budget() as budget:
                cut, removed = groebner._cut_orthant(boxes, m)
            assert budget.used == len(boxes), (lms, m)
            split |= len(cut) > len(boxes)
            top = max(map(max, lms + [m])) + 2
            gone = oracles.box_monomials(removed, top)
            assert len(set(gone)) == len(gone), (lms, m)
            assert sorted(gone) == sorted(
                u for u in oracles.box_monomials(boxes, top)
                if oracles.mono_divides(m, u)), (lms, m)
            boxes, lms = cut, lms + [m]
            assert groebner._hilbert_tail(lms, boxes) == groebner._hilbert_tail(
                lms, groebner._staircase(lms)), lms
            kept = oracles.box_monomials(boxes, top)
            assert len(set(kept)) == len(kept), lms
            assert sorted(kept) == sorted(oracles.box_monomials(
                groebner._staircase(lms), top)), lms
    assert split


# (ideal, weights): Artinian, an embedded point, the Jacobians of four
# lines, of a weighted isolated singularity, of two non-isolated surfaces
# under fractional weights, and of two surfaces whose Jacobians are
# homogeneous under (1, 1, 1) and under the other weights given, so that H0
# under those weights is read from in(I^sat) in the input's coordinates
H0_CASES = [
    (ideal("x^2", "y^2", "z^2"), W1),
    (ideal("x^2", "x*y", "x*z"), W1),
    (QUARTIC_CONE, W1),
    (ideal("x^2", "y^3", "z^6"), WeightSystem((3, 2, 1))),
    (jacobian_ideal(P("x^2+y^3+z^5")), WeightSystem((15, 10, 6))),
    (jacobian_ideal(P("x^6*y*z + 2*x*y^3*z + 3*x*y*z^3")),
     WeightSystem((Fraction(1, 5), Fraction(1, 2), Fraction(1, 2)))),
    (jacobian_ideal(P("x^3*y*z + 2*x*y^6*z + 3*x*y*z^4")),
     WeightSystem((Fraction(1, 2), Fraction(1, 5), Fraction(1, 3)))),
    (jacobian_ideal(P("x*y*z+y^3")), WeightSystem((1, 2, 3))),
    (jacobian_ideal(P("x*y*z+y^3")), WeightSystem((3, 2, 1))),
    (NEAR_PENCIL, WeightSystem((2, 2, 3))),
]


def test_h0_vanishes_above_the_proven_window():
    for I, w in H0_CASES:
        lms_i = buchberger(I).leading_monomials
        lms_s = buchberger(oracles.saturation_by_columns(I)).leading_monomials
        W, L = w.scaled, w.denominator
        top = max(oracles.lcm_degree(lms_i, W),
                  oracles.lcm_degree(lms_s, W)) - sum(W)
        data = h0_degree_data(I, w)
        assert data.is_empty() == (I is NEAR_PENCIL)
        assert data.is_empty() or max(data.entries) * L <= top
        for k in range(2 * top + 1):
            q = Fraction(k, L)
            dim = (standard_monomial_count(lms_i, w, q)
                   - standard_monomial_count(lms_s, w, q))
            assert dim == data.dimension(q), (I, q)


def excess_by_box(lms_i, lms_j):
    """The monomials of (lms_j) outside (lms_i) in the box [0, top]^3, top
    one past the largest exponent of both."""
    top = max(max(m) for m in lms_i + lms_j) + 1
    return {u for u in product(range(top + 1), repeat=3)
            if any(oracles.mono_divides(m, u) for m in lms_j)
            and not any(oracles.mono_divides(m, u) for m in lms_i)}


def test_excess_pass_lists_the_monomials_of_in_j_outside_in_i():
    # seeded monomial ideals of dimension 0, 1 and 2 under the sum with a
    # random ideal and with (1), and over their product by (x, y, z), and
    # in(I) with in(I^sat) for the H0 cases and the corpus Jacobians: a
    # finite excess is the box's, box by box without overlap, and is
    # counted by degree as the two Hilbert functions differ; an infinite
    # one comes with a different Hilbert polynomial.  Each seeded pair is
    # also cut out of a staircase that was itself cut, by up to three
    # generators of in(J), whose row ranges no walk would list
    rng = random.Random(33)
    pairs = []
    for _ in range(150):
        a = random_monomial_ideal(rng, rng.randint(0, 2))
        pairs += [(a, a + random_monomial_ideal(rng, rng.randint(0, 2))),
                  (a, [(0, 0, 0)]),
                  ([(p + (i == 0), q + (i == 1), r + (i == 2))
                    for p, q, r in a for i in range(3)], a)]
    cases = H0_CASES + [(arrangement._jacobian(arr), W1)
                        for _, arr in corpus.build_corpus()]
    seeded = len(pairs)
    for I, w in cases:
        g = gcd(*w.scaled)
        pairs.append((buchberger(I).leading_monomials,
                      saturated_leading_monomials(
                          I, tuple(v // g for v in w.scaled))[1]))
    finite = cut = 0
    for k, (a, b) in enumerate(pairs):
        a, b = tuple(sorted(set(a))), tuple(sorted(set(b)))
        staircases = [(a, groebner._staircase(a))]
        for _ in range(3 if k < seeded else 0):
            lms, boxes = staircases[-1]
            m = rng.choice(b)
            staircases.append((tuple(sorted(set(lms + (m,)))),
                               groebner._cut_orthant(boxes, m)[0]))
        for lms, boxes in staircases:
            excess = groebner._saturation_excess(lms, boxes, b)
            if excess is None:
                assert not oracles.same_hilbert_polynomial_at_0_1_2(lms, b), \
                    (lms, b)
                continue
            finite += 1
            cut += lms != a
            listed = [(x, y, z) for a0, a1, b0, b1, c0, c1 in excess
                      for x in range(a0, a1) for y in range(b0, b1)
                      for z in range(c0, c1)]
            assert len(listed) == len(set(listed)), (lms, b)
            assert set(listed) == excess_by_box(lms, b), (lms, b)
            for weights in ((1, 1, 1), (2, 3, 5), (3, 2, 1)):
                counts = groebner._excess_degrees(excess, weights)
                assert not excess or counts[-1] > 0
                top = len(counts) + max(weights)
                want = [u - v for u, v in zip(
                    *(oracles.hilbert_function_by_columns(m, top, weights)
                      for m in (lms, b)))]
                assert counts + [0] * (top + 1 - len(counts)) == want, \
                    (lms, b)
    assert 200 < finite - cut < len(pairs) and cut > 900


@pytest.mark.parametrize("argv, calls", [
    # isolated: in(J) is Artinian, and H0 is its standard monomials, the
    # staircase of in(J), walked once
    ("milnor --poly x^3+y^3+z^3", (1, 0)),
    ("roots isolated --poly x^2+y^3+z^5 --weights 1/2,1/3,1/5", (1, 0)),
    ("roots isolated --poly x^3+y^4+z^6+3*y^2*z^3 --weights 1/3,1/4,1/6",
     (1, 0)),
    # the saturation returns in(J) itself: H0 is empty with no walk
    ("roots lqh --poly x^4*z+5*x^2*y^6*z+4*y^12*z --weights 1/2,1/6,1/6",
     (0, 0)),
    # a colon certified at its first or second c: the certificate cuts
    # the staircase of in(J), walked once, and the tail of in(J), whose e
    # bounds the colon loop, is counted only once c passes its first three
    ("roots lqh --poly x^6*y*z+2*x*y^3*z+3*x*y*z^3 --weights 1/5,1/2,1/2",
     (1, 0)),
    ("roots lqh --poly 2*x^5+2*x^3*y+3*x^3*z+2*x*y*z --weights 1,2,2",
     (1, 0)),
    # under (1, 1, 1) the colon by z is read off the boxes of in(J), and
    # the certified colon is cut out of them: one walk
    ("roots lqh --poly x^2*y*z+x*y^2*z+x*y*z^2", (1, 0)),
    # the hinted run walks the staircase of its leading monomials in play
    # at each Hilbert read, and counts its tail; the colon by z and H0 read
    # the boxes of its last walk, and no tail of in(J^sat) is read
    ("arrangement --forms " + oracles.ZIEGLER_F, (2, 2)),
    ("arrangement --forms " + oracles.ZIEGLER_G, (1, 1)),
    ("arrangement --forms " + oracles.GENERIC5, (2, 2)),
    ("arrangement --forms " + oracles.BRAID, (1, 1)),
], ids=["milnor_fermat", "isolated", "isolated_perturbed", "lqh_product",
        "lqh_xyz", "lqh_colon", "lqh_standard", "ziegler_f", "ziegler_g",
        "generic5", "braid"])
def test_request_calls_the_graded_engine_a_pinned_number_of_times(
        capsys, monkeypatch, argv, calls):
    # H0, the certificate and HF(R/I^sat) read the boxes of in(J), or cuts
    # of them by the generators of in(J^sat), so the engine fills no H0
    # window and no tail of in(J^sat): only the staircases and tails of
    # in(J) that a request needs, counted as (walks of a staircase, tails
    # counted)
    seen = []
    walk, count = groebner._staircase, groebner._hilbert_tail

    def spy(name, engine):
        def spied(*args):
            seen.append(name)
            return engine(*args)
        return spied

    monkeypatch.setattr(groebner, "_staircase", spy("walk", walk))
    monkeypatch.setattr(groebner, "_hilbert_tail", spy("count", count))
    assert cli.main(argv.split()) == 0
    capsys.readouterr()
    assert (seen.count("walk"), seen.count("count")) == calls


def test_graded_dimension_rejects_inhomogeneous():
    I = ideal("x^2 + y")
    with pytest.raises(PreconditionError):
        graded_dimension(buchberger(I), W1, 2)
    with pytest.raises(PreconditionError):
        rank_route_dimension(I, W1, 2)


def test_graded_dimension_refuses_a_basis_not_in_three_variables():
    for n in (2, 4):
        I = Ideal((Polynomial({(2,) + (0,) * (n - 1): 1}, n),))
        with pytest.raises(PreconditionError, match="needs 3 variables"):
            graded_dimension(buchberger(I), WeightSystem((1,) * n), 2)
    with pytest.raises(PreconditionError, match="needs 3 variables"):
        graded_dimension(buchberger(ideal("x^2")), WeightSystem((1, 1)), 2)


def test_h0_degree_data_refuses_two_weights():
    with pytest.raises(PreconditionError, match="needs 3 weights"):
        h0_degree_data(jacobian_ideal(P("x*y*z")), WeightSystem((1, 1)))


def test_graded_dimension_accepts_inhomogeneous_generators_of_a_graded_ideal():
    # (x^2 + y, y) is (x^2, y): its minimal basis keeps x^2 + y as given,
    # its reduced basis is homogeneous
    gb = buchberger(ideal("x^2 + y", "y"))
    assert [graded_dimension(gb, W1, q) for q in range(4)] == [1, 2, 2, 2]


def test_graded_dimension_checks_a_basis_against_the_weights():
    I = ideal("x^2 - y", "z^3 - y*z")
    gb = buchberger(I)
    with pytest.raises(PreconditionError):
        graded_dimension(gb, W1, 2)
    half = WeightSystem((Fraction(1, 2), 1, Fraction(1, 2)))
    for k in range(10):
        q = Fraction(k, 2)
        assert graded_dimension(gb, half, q) == \
            rank_route_dimension(I, half, q)


def test_h0_artinian_quotient_is_its_own_section_module():
    data = h0_degree_data(ideal("x^2", "y^2", "z^2"), W1)
    assert data.entries == {0: 1, 1: 3, 2: 3, 3: 1}
    assert data.total_dimension() == 8


def test_h0_of_embedded_point():
    data = h0_degree_data(ideal("x^2", "x*y", "x*z"), W1)
    assert data.entries == {1: 1}


def test_h0_of_saturated_ideal_is_empty():
    data = h0_degree_data(ideal("x"), W1)
    assert data.is_empty()
    assert data.entries == {}


@pytest.fixture
def saturation_events(monkeypatch):
    """Each colon the saturation computes, by its c ("divided" for the
    division by z, "boxes" for the colon by z read off the boxes of
    in(I)), each walk of a staircase, "walk", and each certificate cut out
    of the boxes of in(I), "pass", in the order they ran.  The pass is
    spied on in graded too, where H0 once re-read it."""
    events = []
    by_z, colon = groebner._saturate_by_z, groebner._weighted_colon
    excess, read = groebner._saturation_excess, groebner._z_colon_excess
    walk = groebner._staircase

    def spy_by_z(gb):
        events.append("divided")
        return by_z(gb)

    def spy_read(boxes):
        events.append("boxes")
        return read(boxes)

    def spy_colon(ideal, weights, c):
        events.append(c)
        return colon(ideal, weights, c)

    def spy_excess(lms_i, boxes, lms_j):
        events.append("pass")
        return excess(lms_i, boxes, lms_j)

    def spy_walk(lms):
        events.append("walk")
        return walk(lms)

    monkeypatch.setattr(groebner, "_saturate_by_z", spy_by_z)
    monkeypatch.setattr(groebner, "_z_colon_excess", spy_read)
    monkeypatch.setattr(groebner, "_weighted_colon", spy_colon)
    monkeypatch.setattr(groebner, "_staircase", spy_walk)
    for module in (groebner, graded):
        monkeypatch.setattr(module, "_saturation_excess", spy_excess,
                            raising=False)
    return events


@pytest.mark.parametrize("poly, weights, events, h0", [
    # xyz(x + y + z): z = 0 and x + y + z = 0 pass through singular points,
    # so the boxes of in(J) refuse the colon by z, with no division and no
    # pass, and the colon by z + 2x + 4y is certified; each pass cuts the
    # boxes of in(J) walked for the colon by z
    ("x^2*y*z+x*y^2*z+x*y*z^2", (1, 1, 1),
     ["walk", "boxes", 1, "pass", 2, "pass"], {3: 1}),
    # the colons by z + c*x^2 + c^2*y start at c = 1, which is certified,
    # and its pass walks the staircase of in(J) first
    ("2*x^5+2*x^3*y+3*x^3*z+2*x*y*z", (1, 2, 2), [1, "walk", "pass"],
     {1: 1, 2: 1, 3: 1, 4: 1}),
    # Artinian: the boxes are the standard monomials of R/in(J), its
    # staircase, with no pass
    ("x^3+y^3+z^3", (1, 1, 1), ["walk"], {0: 1, 1: 3, 2: 3, 3: 1}),
    # a free product: in(J) is saturated, and H0 is empty with no walk
    ("x^4*z+5*x^2*y^6*z+4*y^12*z", (3, 1, 1), [], {}),
], ids=["colon_standard", "colon_weighted", "artinian", "saturated"])
def test_h0_counts_the_runs_of_the_one_saturation_pass(
        saturation_events, poly, weights, events, h0):
    # each colon tried is certified or refused by one pass, and H0 counts
    # the boxes of the certified one, with no pass after it
    data = h0_degree_data(jacobian_ideal(P(poly)), WeightSystem(weights))
    assert saturation_events == events
    assert data.entries == h0


def test_h0_weighted_grading():
    w = WeightSystem((3, 2, 1))
    data = h0_degree_data(ideal("x^2", "y^3", "z^6"), w)
    # Artinian monomial quotient: 2*3*6 standard monomials, top one x*y^2*z^5
    assert data.total_dimension() == 36
    assert min(data.entries) == 0
    assert max(data.entries) == 12
    assert data.dimension(3) == len(weighted_monomials(w, 3)) == 3


def test_sheaf_dimension_examples():
    # e, the constant Hilbert polynomial of R/I^sat
    for I, e in ((QUARTIC_CONE, 6), (ideal("x", "y"), 1),
                 (ideal("x^2", "y"), 2), (ideal("x^2", "y^2", "z^2"), 0)):
        assert regularity_report(I).sheaf_dim_e == e


def test_sheaf_dimension_rejects_positive_dimensional_scheme():
    # two lines: the Hilbert polynomial of R/I^sat is not a constant e, and
    # the regularity, which needs one, refuses them, as the reference does
    for read in (regularity_report, oracles.regularity_by_ranks):
        with pytest.raises(PreconditionError, match="not constant"):
            read(ideal("x*y"))


def test_standard_graded_readings_refuse_a_weighted_only_ideal():
    # graded by (3, 2, 6) but not by (1, 1, 1): e, H1 and the regularity
    # are read under the standard grading, so the reader refuses it
    # z (x^2 + 2*y^3) (x^2 + 5*y^3)
    jac = jacobian_ideal(P("x^4*z + 7*x^2*y^3*z + 10*y^6*z"))
    with pytest.raises(PreconditionError):
        regularity_report(jac)


def test_h1_dimension_examples():
    # dim H1_q = e - HF(R/I^sat)_q: 0 from the Hilbert start on, e in every
    # negative degree
    (_, _, _, e), _, hf = oracles.regularity_by_ranks(QUARTIC_CONE)
    assert (e - hf[0], e - hf[-1]) == (5, 0)
    (_, _, _, e), _, hf = oracles.regularity_by_ranks(ideal("x", "y"))
    assert e - hf[0] == 0
    assert regularity_report(ideal("x*y", "z")).sheaf_dim_e == 2


def test_regularity_of_quartic_cone_jacobian():
    report = regularity_report(QUARTIC_CONE)
    assert report.regularity == 3
    assert report.h0_max == 3
    assert report.sheaf_dim_e == 6


def test_regularity_artinian():
    report = regularity_report(ideal("x^2", "y^2", "z^2"))
    assert report.regularity == 3
    assert report.h0_max == 3
    assert report.h1_max is None
    assert report.sheaf_dim_e == 0


def test_regularity_of_single_line():
    # a plane has dim R/I = 2, refused as every other such ideal is
    for read in (regularity_report, oracles.regularity_by_ranks):
        with pytest.raises(PreconditionError, match="not constant"):
            read(ideal("x"))


def test_h1_can_live_below_degree_zero():
    # two reduced points: sections jump to 2 only from degree 1 on
    report = regularity_report(ideal("x*y", "z"))
    assert report.sheaf_dim_e == 2
    (_, _, _, e), _, hf = oracles.regularity_by_ranks(ideal("x*y", "z"))
    assert e - hf[0] == 1
    assert report.h1_max == 0
    assert report.regularity == 1
    # one reduced point: H1 only in negative degrees
    point = regularity_report(ideal("x", "y"))
    assert (point.h1_max, point.regularity, point.sheaf_dim_e) == (-1, 0, 1)


def test_regularity_report_matches_the_rank_reference():
    # the reader against HF(R/I) and HF(R/I^sat) by ranks, on the ideals
    # above, the Fermat quartic, the degree-4 corpus Jacobians and three
    # curated arrangements; its numbers are ints
    arrangements = dict(corpus.build_corpus())
    cases = [ideal("x", "y"), ideal("x^2", "y"), ideal("x^2", "y^2", "z^2"),
             ideal("x*y", "z"), QUARTIC_CONE,
             jacobian_ideal(P("x^4+y^4+z^4"))]
    cases += [arrangement._jacobian(arr) for arr in arrangements.values()
              if arr.degree == 4]
    cases += [arrangement._jacobian(arrangements[name])
              for name in ("generic5", "nearpencil3", "twotriples5")]
    for I in cases:
        report = regularity_report(I)
        numbers = (report.h0_max, report.h1_max, report.regularity,
                   report.sheaf_dim_e)
        assert all(type(v) is int for v in numbers if v is not None)
        assert oracles.regularity_by_ranks(I)[:2] == (numbers, report.h0)


def test_degree_data_accessors():
    data = oracles.degree_data({2: 3, 1: 1})
    assert list(data.entries) == [1, 2]
    assert data.dimension(2) == 3
    assert data.dimension(7) == 0
    assert not data.is_empty()
