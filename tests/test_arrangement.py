"""Arrangement validation, lattice combinatorics, formality, conditions."""

import random
from fractions import Fraction
from math import gcd

import pytest

from bs3.arrangement import (Arrangement, LinearForm, _free_line,
                             _indecomposable, _lattice, _length3_relations,
                             comb_roots, condition_report, full_root_report,
                             is_formal, relation_space_dimension,
                             singular_points, validate)
from bs3 import arrangement, cli, groebner, linalg
from bs3.graded import STANDARD, h0_degree_data
from bs3.groebner import Ideal
from bs3.linalg import rank
from bs3.polyring import (Bs3Error, ParseError, Polynomial, PreconditionError,
                          parse_polynomial)

import corpus
import open_rows
import oracles


def forms_of(csv):
    return [LinearForm.parse(s) for s in csv.split(",")]


def test_linear_form_normalizes_leading_coefficient():
    f = LinearForm.parse("2x+y+z")
    assert f.coefficients == (1, Fraction(1, 2), Fraction(1, 2))
    assert LinearForm.parse("-y+z").coefficients == (0, 1, -1)


def test_linear_form_normal_is_the_primitive_integer_normal():
    assert LinearForm((2, Fraction(1, 3), Fraction(-5, 7))).normal \
        == (42, 7, -15)
    assert LinearForm.parse("-y+2z").normal == (0, 1, -2)
    assert LinearForm((0, 0, Fraction(-3, 4))).normal == (0, 0, 1)


def test_linear_form_rejects_wrong_degree():
    with pytest.raises(PreconditionError):
        LinearForm.parse("x^2")
    with pytest.raises(PreconditionError):
        LinearForm.parse("x + 1")


def parsed(route, text):
    """What a parse route gives for the text: (normal, coefficients repr,
    printed form), or the type and message of what it raises."""
    try:
        normal, coefficients, printed = route(text)
    except Bs3Error as exc:
        return type(exc), str(exc)
    return normal, repr(coefficients), printed


def by_linear_form(text):
    f = LinearForm.parse(text)
    return f.normal, f.coefficients, str(f)


ALIASES = {"x": "x1", "y": "x2", "z": "x3"}
SIGNS = {True: (" - ", "-", " -", "- "), False: (" + ", "+", " +", "+ ")}


def random_form_text(rng):
    """x, y, z terms with randint(-3, 3) coefficients, spelled in several
    ways (aliases, a bare variable, leading zeros, '*' and whitespace or
    none), some written as fractions, as two terms, or as 0.  A draw of
    more than three terms writes a fraction, so every fraction-free draw
    is one LinearForm.parse reads from one match."""
    pieces = []
    for name in ("x", "y", "z"):
        c = rng.randint(-3, 3)
        if c == 0 and rng.random() < 0.5:
            continue
        if rng.random() < 0.2:
            name = ALIASES[name]
        for part in [c] if rng.random() < 0.8 else [c - 1, 1]:
            coeff = "%d" % abs(part)
            if rng.random() < 0.1:
                coeff = "0" + coeff
            if rng.random() < 0.2:
                coeff += "/%d" % rng.randint(1, 4)
            pieces.append([part < 0, coeff, name])
    if len(pieces) > 3 and not any("/" in p[1] for p in pieces):
        rng.choice(pieces)[1] += "/1"
    if not pieces:
        return "0x"
    text = rng.choice(("", " "))
    for k, (negative, coeff, name) in enumerate(pieces):
        if k:
            text += rng.choice(SIGNS[negative])
        elif negative:
            text += rng.choice(("-", "- "))
        if coeff == "1" and rng.random() < 0.5:
            text += name
        else:
            text += coeff + rng.choice(("*", "", " ", " * ")) + name
    return text + rng.choice(("", " "))


# texts LinearForm.parse reads from one match of arrangement._FORM, and
# texts it must hand on to the grammar: past the pattern by a token, a
# term, a sign or a digit
ONE_MATCH_FORMS = ["x - x + y", "x+x", " 2 * x - z ", "x1+x2-x3", "x - x",
                   " \t- 2 * x1 +\n3 x2 - 007 *x3 ", "007x", "\u0663x",
                   "x-x+y", "0x+y", "x-x", "-y", "x3-2x1",
                   "7" * 4300 + "x"]
HANDED_ON_FORMS = ["1/2x + 3/4y", "0", "x^2", "x + 1", "x^2 - x^2 + z",
                   "3/0x", "x^3 + + y", "x+y+z+x", "x^1", "1/2x", "x*y",
                   "x y", "+x", "x12", "2 3x", "x+y+", "*x", "--x",
                   "7" * 4301 + "x"]
EDGE_FORMS = ONE_MATCH_FORMS + HANDED_ON_FORMS


def test_parse_matches_the_polynomial_route(monkeypatch):
    # every text LinearForm.parse hands to the grammar; the oracle parses
    # through polyring, which the spy does not see
    handed = []
    grammar = arrangement._parse_terms

    def spy(text):
        handed.append(text)
        return grammar(text)

    monkeypatch.setattr(arrangement, "_parse_terms", spy)
    rng = random.Random(17)
    corpus_forms = [f for _, arr in corpus.build_corpus() for f in arr.forms]
    # the corpus's and the benchmark's spelling (x-2y+2z), the curated
    # texts, and the forms as printed (x + 1/2*y)
    texts = (EDGE_FORMS
             + [corpus._coeff_csv(f.normal) for f in corpus_forms]
             + [t for _, csv in corpus.CURATED for t in csv.split(",")]
             + [str(f) for f in corpus_forms]
             + [random_form_text(rng) for _ in range(500)])
    outcomes, routes = set(), set()
    for text in texts:
        handed.clear()
        got = parsed(by_linear_form, text)
        assert got == parsed(oracles.linear_form_by_polynomial, text), text
        outcomes.add(got[0] if isinstance(got[0], type) else "valid")
        # outside the edge lists, exactly the texts with a fraction take
        # the grammar
        one_match = (text in ONE_MATCH_FORMS if text in EDGE_FORMS
                     else "/" not in text)
        assert handed == ([] if one_match else [text]), text
        routes.add(one_match)
    assert outcomes == {"valid", PreconditionError, ParseError}
    assert routes == {True, False}
    assert parsed(by_linear_form, "x^2 - x^2 + z")[0] == (0, 0, 1)
    assert parsed(by_linear_form, "0") == (PreconditionError,
                                           "zero linear form")
    assert parsed(by_linear_form, "x-x") == (PreconditionError,
                                             "zero linear form")
    assert parsed(by_linear_form, "x + 1") == (
        PreconditionError, "'x + 1' is not a homogeneous linear form")
    assert parsed(by_linear_form, "3/0x") == (
        ParseError, "zero denominator (at position 2)")
    assert parsed(by_linear_form, "x12") == (
        ParseError, "expected '+' or '-' (at position 2)")
    assert LinearForm.parse("x+x").normal == (1, 0, 0)
    assert LinearForm.parse("\u0663x - 007 y").normal == (3, -7, 0)


def test_validate_builds_no_polynomial_and_calls_no_rank(monkeypatch):
    built, ranks = [], []
    init, by_rank = Polynomial.__init__, linalg.rank

    def spy_init(self, terms, variable_count):
        built.append(terms)
        init(self, terms, variable_count)

    def spy_rank(rows):
        ranks.append(rows)
        return by_rank(rows)

    monkeypatch.setattr(Polynomial, "__init__", spy_init)
    monkeypatch.setattr(linalg, "rank", spy_rank)
    for _, csv in corpus.CURATED:
        validate(csv.split(","))
    for csv in ("x,y,x+y", "x,y,z"):
        with pytest.raises(PreconditionError):
            validate(csv.split(","))
    assert built == [] and ranks == []
    parse_polynomial("x")
    linalg.rank([[1]])
    assert built and ranks  # the spies see what they watch


def test_validate_builds_no_lattice_and_the_first_read_builds_it(
        monkeypatch):
    calls = []
    build = arrangement._lattice

    def spy(forms):
        calls.append(forms)
        return build(forms)

    monkeypatch.setattr(arrangement, "_lattice", spy)
    arrs = [validate(csv.split(",")) for _, csv in corpus.CURATED]
    for csv in ("x,y,z", "x,y,x+y,z", "z,x,y,x+y"):
        with pytest.raises(PreconditionError):
            validate(csv.split(","))
    assert calls == []
    for arr in arrs:
        first = arr.lattice
        assert arr.lattice is first
        assert first == build(arr.forms)
    assert calls == [arr.forms for arr in arrs]


def test_integer_path_reads_a_fraction_over_1_as_its_integer():
    # _parse_terms gives Fraction(2, 1) for 4/2*x, which is not an int
    f = LinearForm([Fraction(4, 2), 1, 0])
    assert f.normal == (2, 1, 0)
    assert all(type(v) is int for v in f.normal)
    assert LinearForm([4, 2, 0]).normal == (2, 1, 0)
    assert LinearForm([0, -3, 6]).normal == (0, 1, -2)
    assert all(type(v) is int for v in LinearForm([0, -3, 6]).normal)
    got = validate(["4/2*x+y", "y", "z", "x+y+z"])
    want = validate(["2*x+y", "y", "z", "x+y+z"])
    assert [f.normal for f in got.forms] == [f.normal for f in want.forms]
    assert repr(got) == repr(want)
    assert got.lattice == want.lattice


def test_validate_accepts_generic_quadruple():
    arr = validate("x,y,z,x+y+z".split(","))
    assert arr.degree == 4
    assert arr.defining_polynomial() == \
        parse_polynomial("x*y*z*x + x*y*z*y + x*y*z*z")


@pytest.mark.parametrize("csv,fragment", [
    ("x,y", "at least 3"),
    ("x,y,2x,z", "not reduced"),
    ("x,y,x+y", "not essential"),
    ("x,y,z", "decomposable"),
    ("x,y,x+y,z", "decomposable"),
])
def test_validate_rejections(csv, fragment):
    with pytest.raises(PreconditionError) as info:
        validate(csv.split(","))
    assert fragment in str(info.value)


def test_duplicate_reported_before_decomposability():
    # x,y,2x is not essential AND not reduced; reducedness wins
    with pytest.raises(PreconditionError) as info:
        validate("x,y,2x".split(","))
    assert "not reduced" in str(info.value)


def indecomposable_three_ways(forms):
    """The three-crossing test, checked against the lattice reference and
    every bipartition."""
    got = _indecomposable([f.normal for f in forms])
    assert got == oracles.indecomposable_by_lattice(_lattice(forms),
                                                    len(forms)), forms
    assert got == (not oracles.decomposable_by_bitmask(forms)), forms
    return got


def test_is_indecomposable():
    for csv, want in (
            ("x,y,z", False), ("x+y,y+z,x+z", False), ("x,y,z,x+y+z", True),
            (oracles.BRAID, True),
            # x, y, x+y meet at (0:0:1), which z misses: form 2, 1, then 0
            # is the line off the pencil, so the point is n0 x n1, n0 x n2,
            # then n1 x n2
            ("x,y,z,x+y", False), ("x,z,y,x+y", False), ("z,x,y,x+y", False),
            # the first three lines concurrent: the three crossings are one
            # point
            ("x,y,x+y,x-y,z", False), ("x,y,x+y,z,x+z", True)):
        assert indecomposable_three_ways(forms_of(csv)) == want, csv


def through_point(rng, point):
    """A random nonzero normal of a line through the point."""
    while True:
        v = [rng.randint(-3, 3) for _ in range(3)]
        n = (point[1] * v[2] - point[2] * v[1],
             point[2] * v[0] - point[0] * v[2],
             point[0] * v[1] - point[1] * v[0])
        if any(n):
            return LinearForm(n)


def draw_forms(rng, d):
    """d forms: random, or a pencil of d - 1 or d - 2 lines through one
    point plus random lines."""
    kind = rng.choice(("random", "line+pencil", "two+pencil"))
    pencil = {"random": 0, "line+pencil": d - 1, "two+pencil": d - 2}[kind]
    point = [rng.randint(-2, 2) for _ in range(3)]
    if not any(point):
        point[2] = 1
    forms = [through_point(rng, point) for _ in range(pencil)]
    while len(forms) < d:
        coeffs = [rng.randint(-2, 2) for _ in range(3)]
        if any(coeffs):
            forms.append(LinearForm(coeffs))
    return forms


def test_is_indecomposable_matches_every_bipartition():
    # each reduced essential draw is tried as drawn, whose pencil comes
    # first, and with its last form moved to place 2, 1 and 0: a line plus
    # a pencil then has its point on d - 1 lines at n0 x n1, n0 x n2 and
    # n1 x n2 in turn
    rng = random.Random(5)
    outcomes = {True: 0, False: 0}
    crossings = {(0, 1): 0, (0, 2): 0, (1, 2): 0, (0, 1, 2): 0}
    concurrent = {True: 0, False: 0}
    while sum(outcomes.values()) < 90:
        drawn = draw_forms(rng,
                           rng.randint(3, 9 if rng.random() < 0.2 else 7))
        normals = [list(f.coefficients) for f in drawn]
        if (len({f.normal for f in drawn}) < len(drawn)
                or oracles.rref_rank(normals) < 3):
            continue  # the precondition: reduced and essential
        for k in (None, 2, 1, 0):
            forms = (drawn if k is None
                     else drawn[:k] + drawn[-1:] + drawn[k:-1])
            got = indecomposable_three_ways(forms)
            for lines in _lattice(forms).values():
                if len(lines) == len(forms) - 1:
                    crossings[tuple(i for i in lines if i < 3)] += 1
            if oracles.rref_rank(
                    [list(f.coefficients) for f in forms[:3]]) < 3:
                concurrent[got] += 1
        outcomes[got] += 1
    assert min(outcomes.values()) >= 20
    assert min(crossings.values()) >= 20, crossings
    assert min(concurrent.values()) >= 10, concurrent


def rational(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 7))


def draw_rational_forms(rng, d):
    """d forms with rational coefficients: random, or one line plus a
    pencil of d - 1 lines through a rational point."""
    pencil = rng.choice((0, d - 1))
    point = [rational(rng) for _ in range(3)]
    if not any(point):
        point[2] = Fraction(1, 3)
    forms = [through_point(rng, point) for _ in range(pencil)]
    while len(forms) < d:
        coeffs = [rational(rng) for _ in range(3)]
        if any(coeffs):
            forms.append(LinearForm(coeffs))
    return forms


def lattice_draws():
    """Seeded reduced draws of d = 3..16 forms, integer and rational."""
    rng = random.Random(9)
    draws = [[LinearForm((2, Fraction(1, 3), Fraction(-5, 7))),
              LinearForm.parse("x"), LinearForm.parse("1/2y - 3/4z"),
              LinearForm.parse("x + 5/3y + z")]]
    for d in range(3, 17):
        for draw in (draw_forms, draw_rational_forms) * 4:
            forms = draw(rng, d)
            if len({f.normal for f in forms}) == d:
                draws.append(forms)
    return draws


def test_singular_points_match_the_fraction_lattice():
    top = 0
    for forms in lattice_draws():
        arr = Arrangement(forms)
        want = oracles.lattice_by_fractions(forms)
        got = [(arrangement._scaled(sp.vector), sp.multiplicity)
               for sp in singular_points(arr)]
        assert got == [(pt, len(lines)) for pt, lines in want.items()]
        by_point = {}
        for pt, lines in arr.lattice.items():
            lead = next(c for c in pt if c != 0)
            assert lead > 0 and gcd(*pt) == 1
            by_point[tuple(Fraction(c, lead) for c in pt)] = lines
        assert by_point == want
        top += max(len(lines) for lines in want.values()) == len(forms) - 1
    assert top >= 20  # line-plus-pencil draws, d - 1 lines through a point


def test_length3_relations_are_integer_relations_of_the_normals():
    seen = 0
    for forms in lattice_draws():
        arr = Arrangement(forms)
        for r in _length3_relations(arr):
            assert all(type(v) is int for v in r) and any(r)
            assert all(sum(v * f.normal[k] for v, f in zip(r, forms)) == 0
                       for k in range(3))
            seen += 1
    assert seen > 100


def length3_row_counts(forms):
    """Check the m - 2 relations per point against every concurrent triple
    and return both row counts."""
    arr = Arrangement(forms)
    ours = _length3_relations(arr)
    every = oracles.length3_relations_by_triples(forms)
    assert len(ours) == sum(len(lines) - 2 for lines in arr.lattice.values())
    assert rank(ours) == rank(every)
    # is_formal reads the relation space's dimension as d - 3, which holds
    # for essential arrangements; a pencil's normals have rank 2, and it is
    # refused as validate refuses it
    essential = relation_space_dimension(arr) == len(forms) - 3
    if essential:
        assert is_formal(arr) == (rank(every)
                                  == relation_space_dimension(arr))
    else:
        with pytest.raises(PreconditionError, match="not essential"):
            is_formal(arr)
    return len(ours), len(every), essential


def test_length3_relations_span_what_every_triple_spans():
    counts = [length3_row_counts(arr.forms)
              for _, arr in corpus.build_corpus()]
    ours, every, essential = map(sum, zip(*counts))
    assert ours < every and essential == len(counts)
    draws = [length3_row_counts(forms) for forms in lattice_draws()]
    assert 0 < sum(essential for _, _, essential in draws) < len(draws)


def moment_curve_forms(d):
    """x, y, z and x + k y + k^2 z for k = 1..d-3."""
    return forms_of(",".join(["x", "y", "z"] + ["x+%d*y+%d*z" % (k, k * k)
                                                for k in range(1, d - 2)]))


def test_lattice_builds_no_fraction(monkeypatch):
    forms = moment_curve_forms(16)
    built = []

    def counting(new):
        def spy(*args, **kwargs):
            built.append(args)
            return new(*args, **kwargs)
        return spy

    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(counting(Fraction.__new__)))
    if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic from 3.12 on
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
            counting(Fraction._from_coprime_ints.__func__)))
    oracles.lattice_by_fractions(forms)
    assert built  # the counter sees the Fraction route
    del built[:]
    lattice = _lattice(forms)
    assert built == []
    # no three of the normals are dependent: 120 double points
    assert len(lattice) == 16 * 15 // 2


def test_singular_points_generic():
    arr = validate(oracles.GENERIC4.split(","))
    points = singular_points(arr)
    assert len(points) == 6
    assert all(sp.multiplicity == 2 for sp in points)


def test_singular_points_braid():
    arr = validate(oracles.BRAID.split(","))
    profile = {}
    for sp in singular_points(arr):
        profile[sp.multiplicity] = profile.get(sp.multiplicity, 0) + 1
    assert profile == {2: 3, 3: 4}


def test_singular_points_ziegler_profile():
    for csv in (oracles.ZIEGLER_F, oracles.ZIEGLER_G):
        arr = validate(csv.split(","))
        profile = {}
        for sp in singular_points(arr):
            profile[sp.multiplicity] = profile.get(sp.multiplicity, 0) + 1
        assert profile == oracles.ZIEGLER_POINT_PROFILE


def test_pair_count_invariant():
    # every unordered pair of lines meets in exactly one projective point
    for csv in (oracles.GENERIC5, oracles.BRAID, oracles.ZIEGLER_F):
        arr = validate(csv.split(","))
        d = arr.degree
        total = sum(sp.multiplicity * (sp.multiplicity - 1) // 2
                    for sp in singular_points(arr))
        assert total == d * (d - 1) // 2


def test_comb_roots_generic4():
    arr = validate(oracles.GENERIC4.split(","))
    assert list(comb_roots(arr)) == [Fraction(-5, 4), Fraction(-1),
                                     Fraction(-3, 4)]


def test_comb_roots_braid():
    arr = validate(oracles.BRAID.split(","))
    expect = {Fraction(-k, 6) for k in range(3, 10)}
    expect |= {Fraction(-2, 3), Fraction(-1), Fraction(-4, 3)}
    assert set(comb_roots(arr)) == expect


def test_comb_roots_ziegler():
    arr = validate(oracles.ZIEGLER_F.split(","))
    assert set(comb_roots(arr)) == {Fraction(-k, 9) for k in range(3, 16)}


def test_relation_space_dimension():
    assert relation_space_dimension(validate(oracles.GENERIC4.split(","))) \
        == 1
    assert relation_space_dimension(validate(oracles.BRAID.split(","))) == 3


def test_is_formal_refuses_a_pencil_built_without_validate():
    # normals of rank 2: the relation space has dimension 1, not d - 3 = 0,
    # so is_formal refuses the arrangement as validate does, where it read
    # a formal pencil as not formal
    forms = [LinearForm.parse(t) for t in ("x + y", "y - z", "x - y + 2z")]
    with pytest.raises(PreconditionError) as refused:
        validate(forms)
    with pytest.raises(PreconditionError) as also:
        is_formal(Arrangement(forms))
    assert str(also.value) == str(refused.value)
    assert relation_space_dimension(Arrangement(forms)) == 1


def test_formality():
    assert not is_formal(validate(oracles.GENERIC4.split(",")))
    assert is_formal(validate(oracles.BRAID.split(",")))
    assert is_formal(validate(oracles.ZIEGLER_G.split(",")))
    assert not is_formal(validate(oracles.ZIEGLER_F.split(",")))


def test_condition_report_generic4():
    arr = validate(oracles.GENERIC4.split(","))
    report = condition_report(arr)
    assert report.consistent
    assert report.flags() == {c: True for c in "bcdefg"}
    assert report.witness_dims["sheaf_dim_e"] == 6
    assert report.witness_dims["milnor_dim_2d_minus_5"] == 7


def least_height_free_line(points):
    """Every (a, b) in the box [-H, H]^2, H = ceil(N/2) for N points, whose
    line z + a*x + b*y passes through none of the points; the least by
    height max(|a|, |b|), then |a| + |b|, then (a, b)."""
    top = (len(points) + 1) // 2
    free = [(a, b) for a in range(-top, top + 1) for b in range(-top, top + 1)
            if all(z + a * x + b * y for x, y, z in points)]
    return min(free, key=lambda p: (max(map(abs, p)), abs(p[0]) + abs(p[1]),
                                    p))


def test_free_line_is_the_least_height_line_through_no_point():
    # (0, 0) passes through (1, 0, 0); of height 1, (-1, 0) comes first
    assert _free_line([(1, 0, 0), (0, 1, -1), (1, 1, -6)]) == (-1, 0)
    assert _free_line([(0, 0, 1), (0, 1, 1), (1, 1, 1)]) == (0, 0)
    # b = -1, 0, 1 each pass through a point, for every a: the bound
    # h <= ceil(3/2) = 2 is reached
    assert _free_line([(0, 1, 1), (0, 1, 0), (0, 1, -1)]) == (0, -2)
    rng = random.Random(16)
    heights = set()
    for _ in range(300):
        points = [tuple(rng.randint(-4, 4) for _ in range(3))
                  for _ in range(rng.randint(1, 6))]
        points = [p for p in points if any(p)]
        a, b = _free_line(points)
        assert (a, b) == least_height_free_line(points), points
        heights.add(max(abs(a), abs(b)))
        assert max(abs(a), abs(b)) <= (len(points) + 1) // 2, points
    assert heights == {0, 1}


SWEEP20 = ("x,y,z,x-2y+2z,2y-z,x+y+z,x+2y-z,2x-y-z,2x-2y+z,y-2z,x+z,x+y-z,"
           "2x-y+z,x-y-z,2x-y,2x-2y-z,2x+y+2z,x+2y-2z,x-y+z,x-y")


def moment_draw(d):
    """The first d forms x + k*y + k^2*z of the moment curve, k = 0..d-1:
    x is the only coordinate line among them."""
    return ["x+%d*y+%d*z" % (k, k * k) for k in range(d)]


def evaluate(poly, point):
    x, y, z = point
    return sum(c * x ** i * y ** j * z ** k
               for (i, j, k), c in poly.terms.items())


def test_adapted_normals_send_two_least_height_lines_to_x_and_y():
    rng = random.Random(32)
    moved_pairs = 0
    for arr in hinted_draws():
        normals = [f.normal for f in arr.forms]
        moved = arrangement._adapted_normals(arr)
        assert len(moved) == len(normals)
        i, j = sorted(range(arr.degree), key=lambda k: (
            max(map(abs, normals[k])), sum(map(abs, normals[k])), k))[:2]
        assert moved[i] == (1, 0, 0) and moved[j] == (0, 1, 0), arr
        for v in moved:
            assert gcd(*v) == 1 and (v[0] or v[1] or v[2]) > 0, arr
        moved_pairs += {normals[i], normals[j]} != {(1, 0, 0), (0, 1, 0)}
        # the moved product f' satisfies f'(B X) = const * f(X) with one
        # nonzero constant, B the matrix of rows p, q and the free line r
        a, b = _free_line(arr.lattice)
        rows = (normals[i], normals[j], (a, b, 1))
        f = arr.defining_polynomial()
        moved_f = oracles.form_product(moved)
        ratios = set()
        for _ in range(8):
            point = [rng.randint(-9, 9) for _ in range(3)]
            value = evaluate(f, point)
            if value:
                image = [sum(r * p for r, p in zip(row, point))
                         for row in rows]
                ratios.add(Fraction(evaluate(moved_f, image)) / value)
        assert len(ratios) == 1 and 0 not in ratios, arr
    assert moved_pairs > 100


def test_moved_report_matches_the_original_coordinates(monkeypatch):
    entries = list(corpus.build_corpus())
    names = {name for name, _ in entries}
    assert len(entries) == 40
    assert {"ziegler_f", "ziegler_g", "braid", "generic4", "generic5",
            "generic6"} <= names
    runs = []
    int_run = groebner._buchberger_int

    def spy(*args):
        runs.append(len(args[0]))
        return int_run(*args)

    monkeypatch.setattr(groebner, "_buchberger_int", spy)
    for d in range(4, 11):
        entries.append(("sweep%d" % d, validate(SWEEP20.split(",")[:d])))
        entries.append(("moment%d" % d, validate(moment_draw(d))))
    for name, arr in entries:
        runs.clear()
        got = condition_report(arr)
        # an arrangement its lattice certifies reads the closed form,
        # with no run; any other's moved Jacobian saturates on its own
        # basis
        assert len(runs) == (0 if oracles.reads_closed_forms(arr) else 1), \
            name
        want = oracles.condition_report_in_original_coordinates(arr)
        assert got.flags() == want.flags(), name
        assert got.witness_dims == want.witness_dims, name
        assert got.h0.denominator == want.h0.denominator, name
        assert got.h0.scaled == want.h0.scaled, name
        assert got.consistent == want.consistent, name


def hinted_draws():
    """The corpus (with the Ziegler pair), the first d forms of the sweep
    draw and the moment curve x + k*y + k^2*z, k < d, for d = 4..12, and
    150 valid seeded draws of d = 4..10 forms."""
    arrs = [arr for _, arr in corpus.build_corpus()]
    for d in range(4, 13):
        arrs.append(validate(SWEEP20.split(",")[:d]))
        arrs.append(validate(moment_draw(d)))
    rng = random.Random(22)
    drawn = 0
    while drawn < 150:
        try:
            arrs.append(validate(draw_forms(rng, rng.randint(4, 10))))
        except PreconditionError:
            continue
        drawn += 1
    return arrs


def test_hinted_run_returns_the_unhinted_basis(monkeypatch):
    pk = groebner._packing(3)
    formed = []
    s_poly = groebner._s_poly_int

    def spy(*args):
        formed.append(args)
        return s_poly(*args)

    monkeypatch.setattr(groebner, "_s_poly_int", spy)
    skipped = 0
    for arr in hinted_draws():
        d = arr.degree
        e = sum((m - 1) ** 2 for m in map(len, arr.lattice.values()))
        jac = arrangement._jacobian(arr, e)
        assert jac.hilbert_tail == (2 * d - 4, e)
        triples = jac._triples
        formed.clear()
        want, unread, unwalked = groebner._buchberger_int(
            triples, pk, groebner._budget())
        plain = len(formed)
        formed.clear()
        got, tail, boxes = groebner._buchberger_int(
            triples, pk, groebner._budget(), jac.hilbert_tail)
        assert got == want, arr
        # only the hinted run reads a tail, and it hands over its minimal
        # basis's, counted over the boxes of its last walk: they are the
        # monomials outside in(J) that a fresh walk lists, each in one box
        assert unread is None and unwalked is None
        lms = groebner.GroebnerBasis(pk, groebner._minimal(got, pk),
                                     None).leading_monomials
        assert tail == groebner._hilbert_tail(lms, boxes), arr
        cut = max(map(max, lms)) + 2
        kept = oracles.box_monomials(boxes, cut)
        assert len(set(kept)) == len(kept), arr
        assert sorted(kept) == sorted(oracles.box_monomials(
            groebner._staircase(lms), cut)), arr
        # the tail skips S-pairs; the steps its reads cost may outweigh
        # them on a small arrangement
        skipped += len(formed) < plain
    assert skipped > 150


def test_cold_ziegler_request_reduces_no_pair_to_zero_from_2d_minus_4(
        capsys, monkeypatch):
    # HF(R/J)_t = e for t >= 2d - 4 = 14: each pair of such a degree that
    # reduces to 0 is skipped, or never taken once the basis's Hilbert
    # function is e from its degree on
    reduced = []
    reduce = groebner._reduce

    def spy(d, basis, pk, *args):
        r = reduce(d, basis, pk, *args)
        reduced.append((pk.degree(max(d)), bool(r)))
        return r

    monkeypatch.setattr(groebner, "_reduce", spy)
    code = cli.main(["arrangement", "--forms", oracles.ZIEGLER_F])
    assert code == 0 and "non_comb_present: true" in capsys.readouterr().out
    assert (14, True) in reduced
    assert not [t for t, nonzero in reduced if t >= 14 and not nonzero]


def product_draws():
    """The corpus (with the Ziegler pair), x, y, z (d = 3), and the first d
    forms of the sweep draw and the moment curve x + k*y + k^2*z, k < d,
    for d = 4..12."""
    arrs = [arr for _, arr in corpus.build_corpus()]
    arrs.append(Arrangement(forms_of("x,y,z")))
    for d in range(4, 13):
        arrs.append(validate(SWEEP20.split(",")[:d]))
        arrs.append(validate(moment_draw(d)))
    return arrs


def random_entry(rng):
    if rng.random() < 0.3:
        return 0
    if rng.random() < 0.5:
        return rng.randint(-12, 12)
    return Fraction(rng.randint(-12, 12), rng.randint(1, 12))


def test_a_form_prints_as_its_polynomial_from_its_normal(monkeypatch):
    rng = random.Random(23)
    forms = [f for arr in product_draws() for f in arr.forms]
    while len(forms) < 20000 + 400:
        vector = [random_entry(rng) for _ in range(3)]
        if any(vector):
            forms.append(LinearForm(vector))
    assert any(abs(v) not in (0, f.normal[0] or f.normal[1] or f.normal[2])
               for f in forms for v in f.normal)
    want = [str(oracles.linear_polynomial(f.coefficients)) for f in forms]
    built = []

    def counting(new):
        def spy(*args, **kwargs):
            built.append(args)
            return new(*args, **kwargs)
        return spy

    monkeypatch.setattr(Polynomial, "__init__", counting(Polynomial.__init__))
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(counting(Fraction.__new__)))
    got = [str(f) for f in forms]
    assert built == []
    oracles.linear_polynomial(forms[0].coefficients)
    assert built  # the spies see what they watch
    monkeypatch.undo()
    assert got == want


def test_form_product_is_the_per_factor_product(monkeypatch):
    # the product of normals on packed monomials builds no Polynomial, and
    # holds the terms and spends the steps of the product of Polynomials,
    # one factor at a time; defining_polynomial, the product of the forms
    # with first coefficient 1, is that product of their coefficients
    built = []
    init = Polynomial.__init__

    def spy(self, terms, variable_count):
        built.append(terms)
        init(self, terms, variable_count)

    unpack = groebner._packing(3).unpack
    cases = []
    for arr in product_draws():
        cases.append(arrangement._adapted_normals(arr))
        cases.append([f.normal for f in arr.forms])
    # (x + y)(x - y)z: the two x*y*z terms cancel
    cases.append([(1, 1, 0), (1, -1, 0), (0, 0, 1)])
    for vectors in cases:
        with groebner.step_budget() as by_polynomials:
            want = oracles.form_product_by_polynomials(vectors)
        monkeypatch.setattr(Polynomial, "__init__", spy)
        with groebner.step_budget() as packed:
            got = arrangement._product(vectors)
        monkeypatch.undo()
        assert {unpack(m): v for m, v in got.items()} == want.terms, vectors
        assert packed.used == by_polynomials.used, vectors
        assert built == []
    assert {unpack(m): v for m, v in got.items()} == \
        parse_polynomial("x^2*z - y^2*z").terms
    for arr in product_draws():
        with groebner.step_budget() as by_polynomials:
            want = oracles.form_product_by_polynomials(
                [f.coefficients for f in arr.forms])
        with groebner.step_budget() as packed:
            got = arr.defining_polynomial()
        assert got == want, arr
        assert packed.used == by_polynomials.used, arr


def test_jacobian_is_the_polynomial_route_packed():
    # the moved Jacobian holds the triples the route through Polynomials
    # builds (the product of the moved normals in one dict,
    # oracles.partial_derivative, and the packing of each partial), its
    # generators built on read are those partials, and the ideal equals,
    # and hashes as, the one built from them with the same tail
    arrs = [arr for _, arr in corpus.build_corpus()]
    for d in range(4, 17):
        arrs.append(validate(SWEEP20.split(",")[:d]))
        arrs.append(validate(moment_draw(d)))
    arrs += [corpus.supersolvable(k, seed) for k, seed in SUPERSOLVABLE]
    for arr in arrs:
        jac = oracles.jacobian(arr)
        f = oracles.form_product(arrangement._adapted_normals(arr))
        partials, triples = oracles.jacobian_by_polynomials(f)
        assert jac._triples == tuple(triples), arr
        assert jac.generators == tuple(partials), arr
        by_polynomials = Ideal(partials, 3, jac.hilbert_tail)
        assert jac == by_polynomials, arr
        assert hash(jac) == hash(by_polynomials), arr
        assert jac != Ideal(partials, 3), arr


def test_der0_is_read_from_the_proven_tail(monkeypatch):
    windows = []
    walk = groebner._staircase

    def spy(*args):
        windows.append(args)
        return walk(*args)

    # x, y, z is decomposable: condition_report refuses it as validate does
    for arr in [arr for arr in product_draws() if arr.degree > 3]:
        d = arr.degree
        monkeypatch.setattr(groebner, "_staircase", spy)
        got = condition_report(arr).witness_dims["der_log0_dim_d_minus_2"]
        monkeypatch.undo()
        # the run walks staircases of in(J) as its basis grows, and reads
        # no window of the zero ideal, dim R_t; an arrangement its lattice
        # certifies makes no run, and walks none
        if oracles.reads_closed_forms(arr):
            assert windows == [], arr
        else:
            assert windows and all(args[0] != () for args in windows), arr
        windows.clear()
        want = oracles.der_log0_graded_dimension(arr.defining_polynomial(),
                                                 STANDARD, d - 2)
        assert got == want, arr


def test_a_request_walks_its_staircase_once_per_hilbert_read(monkeypatch):
    # the basis run walks the staircase of M at each Hilbert read and
    # counts its tail over the boxes; the colon by z and H0 read the boxes
    # of its last walk, so no other walk, cut, socle test or division by z
    # is made.  A request its lattice certifies makes no run, so the run
    # is made here on its own, and those requests walk nothing
    events = []

    def spy(name):
        call = getattr(groebner, name)

        def spied(*args):
            events.append(name)
            return call(*args)
        monkeypatch.setattr(groebner, name, spied)

    for name in ("_staircase", "_cut_orthant", "_hilbert_tail",
                 "_is_saturated", "_saturate_by_z"):
        spy(name)
    walks = []
    for arr in hinted_draws() + [validate(moment_draw(20))]:
        if oracles.reads_closed_forms(arr):
            events.clear()
            with groebner.step_budget():
                full_root_report(arr)
            assert events == [], arr
        events.clear()
        with groebner.step_budget():
            oracles.condition_report_by_the_run(arr)
        reads = len(events) // 2
        assert events == ["_staircase", "_hilbert_tail"] * reads, arr
        walks.append(reads)
    # a read comes at the first degree from the tail's start and at each
    # later degree whose M has grown since: 191 of the 209 requests read
    # twice, the moment curve at d = 20 among them, and none more
    assert walks[-1] == 2
    assert set(walks) == {1, 2} and sum(walks) == 209 + 191


@pytest.mark.parametrize("name, seed, check", [
    ("ZIEGLER_F", lambda t0, e: (t0, e + 1), "check 'lattice e' failed"),
    ("ZIEGLER_G", lambda t0, e: (t0, e + 1), "below the proven 43"),
    ("ZIEGLER_F", lambda t0, e: (t0, e - 1), "not 41 for some t >= 14"),
    ("ZIEGLER_F", lambda t0, e: ((t0 + 4) // 2 - 1, e),
     "not 42 for some t >= 8"),
], ids=["f_e_plus_1", "g_e_plus_1", "f_e_minus_1", "f_from_d_minus_1"])
def test_a_wrong_hilbert_tail_ends_in_exit_4(capsys, monkeypatch, name, seed,
                                             check):
    run = groebner._buchberger_int

    def seeded(triples, pk, budget, tail=None):
        return run(triples, pk, budget, tail and seed(*tail))

    monkeypatch.setattr(groebner, "_buchberger_int", seeded)
    code = cli.main(["arrangement", "--forms", getattr(oracles, name)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err.startswith("internal error: internal inconsistency")
    assert check in captured.err and "Traceback" not in captured.err


def shifted_tail(arr, e, tail, h0):
    """The seam's inputs with HF(R/J^sat) one below e in degree 2d - 4,
    where H1 then puts reg R/J at 2d - 3."""
    hf, tail_e = tail
    t = 2 * arr.degree - 4
    return e, (hf[:t] + (hf[t] - 1,) + hf[t + 1:], tail_e), h0


def test_regularity_above_2d_minus_5_ends_in_exit_4(capsys, monkeypatch):
    conditions = arrangement._conditions
    monkeypatch.setattr(arrangement, "_conditions",
                        lambda *args: conditions(args[0],
                                                 *shifted_tail(*args)))
    code = cli.main(["arrangement", "--forms", oracles.ZIEGLER_F])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert "check 'regularity bound' failed: reg R/J = 15 exceeds " \
        "2d - 5 = 13" in captured.err


def seam_inputs(arr):
    """(e, tail, h0) for arrangement._conditions, read from a run on the
    request's Jacobian: e from the lattice, H0 from the run, and in place
    of the tail the run counts, HF(R/in J) by columns through degree 3d,
    where it has long been e: a tail of another length, by another route."""
    jac = oracles.jacobian(arr)
    lms = groebner.buchberger(jac).leading_monomials
    hf = oracles.hilbert_function_by_columns(lms, 3 * arr.degree)
    return (jac.hilbert_tail[1], (tuple(hf), hf[-1]),
            h0_degree_data(jac, STANDARD))


def seam_draws():
    """The corpus, the sweep draws for d = 4..14 and the tier-1
    supersolvable draws."""
    arrs = [arr for _, arr in corpus.build_corpus()]
    arrs += [validate(SWEEP20.split(",")[:d]) for d in range(4, 15)]
    return arrs + [corpus.supersolvable(k, seed) for k, seed in SUPERSOLVABLE]


def test_the_seam_fed_from_the_run_gives_the_report():
    for arr in seam_draws():
        want = condition_report(arr)
        got = arrangement._conditions(arr, *seam_inputs(arr))
        assert got.flags() == want.flags(), arr
        assert got.witness_dims == want.witness_dims, arr
        assert got.h0 == want.h0 and got.consistent == want.consistent, arr


@pytest.mark.parametrize("seed, check", [
    (lambda arr, e, tail, h0: (e + 1, tail, h0), "check 'lattice e' failed"),
    (shifted_tail, "check 'regularity bound' failed"),
    (lambda arr, e, tail, h0: (e, tail, oracles.degree_data(
        {0: 1, **h0.entries})), "not symmetric about"),
    (lambda arr, e, tail, h0: (e, tail, oracles.degree_data({})),
     "stable limit"),
], ids=["lattice_e", "regularity_bound", "h0_symmetry", "stable_limit"])
@pytest.mark.parametrize("forms", [oracles.GENERIC4, oracles.ZIEGLER_F],
                         ids=["generic4", "ziegler_f"])
def test_a_wrong_input_to_the_seam_raises_its_named_check(forms, seed, check):
    arr = validate(forms.split(","))
    with pytest.raises(Bs3Error, match=check):
        arrangement._conditions(arr, *seed(arr, *seam_inputs(arr)))


def closed_form_mismatches(arr):
    """The fields of the report, by name, in which the closed form of an
    arrangement its lattice certifies (oracles.reads_closed_forms), which
    condition_report reads, and the basis run of its Jacobian
    (oracles.condition_report_by_the_run) differ: the flags, the witnesses
    and H0; the message of a named check that the closed form fails, and
    ["no closed form"] for any other arrangement."""
    if not oracles.reads_closed_forms(arr):
        return ["no closed form"]
    try:
        got = condition_report(arr)
    except Bs3Error as exc:
        return [str(exc)]
    want = oracles.condition_report_by_the_run(arr)
    return [name for name, a, b in (
        ("flags", got.flags(), want.flags()),
        ("witness_dims", got.witness_dims, want.witness_dims),
        ("h0", got.h0, want.h0)) if a != b]


def test_the_closed_forms_of_a_generic_arrangement_match_the_run():
    arrs = [arr for _, arr in corpus.build_corpus() if oracles.is_generic(arr)]
    assert len(arrs) == 19
    arrs += [validate(moment_draw(d)) for d in range(4, 13)]
    arrs += corpus.generic_draws(10)
    for arr in arrs:
        assert oracles.is_generic(arr), arr
        assert closed_form_mismatches(arr) == [], arr


def test_the_closed_forms_of_five_lines_match_the_run():
    arrs = [arr for _, arr in corpus.build_corpus() if arr.degree == 5]
    assert len(arrs) == 9
    arrs += corpus.quintic_draws(400, 4)
    for arr in arrs:
        assert closed_form_mismatches(arr) == [], arr


def test_the_closed_form_of_a_peeled_arrangement_matches_the_run():
    # neither generic nor of five lines: the corpus entries the lattice
    # certifies, the near-moment curves (two triple points on a common
    # line) and draws with one or two added concurrent lines
    arrs = [arr for _, arr in corpus.build_corpus()
            if arr.degree != 5 and not oracles.is_generic(arr)
            and oracles.reads_closed_forms(arr)]
    assert len(arrs) == 9
    arrs += [validate(open_rows.near_moment(d).split(","))
             for d in range(6, 13)]
    arrs += corpus.concurrent_draws(200, 4)
    for arr in arrs:
        assert closed_form_mismatches(arr) == [], arr


def test_peels_is_the_peel_of_its_lines():
    # the lines through the points of three or more lines are what the
    # peel, dropped line by line, leaves: the package and the brute-force
    # peel certify the same inputs, over every arrangement the tests draw
    arrs = hinted_draws() + corpus.concurrent_draws(200, 4)
    arrs += corpus.quintic_draws(100, 4)
    arrs += [validate(forms.split(",")) for forms in (
        open_rows.split_moment(8), open_rows.near_moment(8),
        oracles.BRAID, "x,y,x+y,x+2y,z,x+3y+z,2x-y+5z")]
    certified = 0
    for arr in arrs:
        with groebner.step_budget():
            peels = arrangement._peels(arr)
        assert peels == oracles.reads_closed_forms(arr), arr
        certified += peels
    assert 0 < certified < len(arrs)


def basis_runs(monkeypatch, forms):
    """The number of basis runs a full report on the forms makes."""
    runs = []
    int_run = groebner._buchberger_int

    def spy(*args):
        runs.append(args)
        return int_run(*args)

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "_buchberger_int", spy)
        with groebner.step_budget():
            full_root_report(validate(forms.split(",")))
    return len(runs)


def test_a_generic_request_makes_no_basis_run(monkeypatch):
    # the near-moment curve has two triple points on a common line, which
    # the lattice certifies as it does generic lines
    for forms, count in ((oracles.GENERIC5, 0), (open_rows.moment(12), 0),
                         (open_rows.near_moment(8), 0)):
        assert basis_runs(monkeypatch, forms) == count, forms


def test_a_request_on_five_lines_makes_no_basis_run(monkeypatch):
    # every corpus quintic, e = 10, 11 and 12, and the split-moment curve
    # at d = 8, whose two triple points on no common line take it to the
    # run
    quintics = [",".join(map(str, arr.forms))
                for _, arr in corpus.build_corpus() if arr.degree == 5]
    for forms in quintics:
        assert basis_runs(monkeypatch, forms) == 0, forms
    assert basis_runs(monkeypatch, open_rows.split_moment(8)) == 1


def request_steps(forms):
    """The steps of a full report on the forms."""
    with groebner.step_budget() as budget:
        full_root_report(validate(forms.split(",")))
    return budget.used


@pytest.mark.parametrize("forms", [
    oracles.BRAID, oracles.ZIEGLER_F, oracles.ZIEGLER_G,
    open_rows.split_moment(8)],
    ids=["braid", "ziegler_f", "ziegler_g", "split_moment8"])
def test_an_arrangement_the_lattice_refuses_makes_one_run(monkeypatch,
                                                           forms):
    # every line of the braid and of the Ziegler pair meets a triple
    # point, and the split-moment curve keeps six lines: each makes the one
    # run it made before the lattice was read for a certificate, with the
    # steps it spent then plus one per line-point incidence
    assert basis_runs(monkeypatch, forms) == 1
    arr = validate(forms.split(","))
    incidences = sum(map(len, arr.lattice.values()))
    spent = request_steps(forms)
    with monkeypatch.context() as patch:
        patch.setattr(arrangement, "_peels", lambda arr: False)
        assert request_steps(forms) == spent - incidences


def bumped(values, t, by):
    """The tuple of values with the one in place t moved by `by`."""
    return values[:t] + (values[t] + by,) + values[t + 1:]


def below_the_lattice_bound(d, hf, h0):
    """HF(R/J) and H0 one lower in degrees d - 1 and 2d - 5, so that H0
    keeps its symmetry and HF(R/J^sat) its values, but H0_{d-1} falls
    below the lattice bound, which the closed form meets with equality."""
    return lowered(d - 1, d, hf, h0)


def lowered(t, d, hf, h0):
    """HF(R/J) and H0 one lower in degree t and in its mirror 3d - 6 - t."""
    for u in {t, 3 * d - 6 - t}:
        hf, h0 = bumped(hf, u, -1), {**h0, u: h0[u] - 1}
    return hf, h0


# seeds of the closed form (d, HF(R/J), H0) that each fail one named check
WRONG_CLOSED_FORMS = [
    (lambda d, hf, h0: (bumped(hf, 2 * d - 2, 1), h0),
     "check 'lattice e' failed"),
    (lambda d, hf, h0: (bumped(hf, 2 * d - 4, -1), h0),
     "check 'regularity bound' failed"),
    (lambda d, hf, h0: (bumped(hf, 2 * d - 3, 1), h0), "stable limit"),
    (lambda d, hf, h0: (hf, {**h0, d - 1: h0[d - 1] + 1}),
     "not symmetric about"),
    (below_the_lattice_bound, "check 'lattice bound' failed"),
]
WRONG_IDS = ["e", "regularity", "stable_limit", "h0_symmetry",
             "lattice_bound"]


def seeded_closed_forms(monkeypatch, seed):
    """Patch the closed form arrangement._closed_hilbert(d, e) to return
    what the seed makes of it."""
    closed = arrangement._closed_hilbert

    def seeded(d, e):
        (hf, _), h0 = closed(d, e)
        hf, h0 = seed(d, hf, h0.entries)
        return (hf, hf[-1]), oracles.degree_data(h0)

    monkeypatch.setattr(arrangement, "_closed_hilbert", seeded)


def exit_4_with(capsys, forms, check):
    code = cli.main(["arrangement", "--forms", forms])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err.startswith("internal error: ")
    assert check in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("seed, check", WRONG_CLOSED_FORMS, ids=WRONG_IDS)
def test_a_wrong_closed_form_ends_in_exit_4(capsys, monkeypatch, seed,
                                            check):
    seeded_closed_forms(monkeypatch, seed)
    exit_4_with(capsys, oracles.GENERIC6, check)


@pytest.mark.parametrize("seed, check", WRONG_CLOSED_FORMS, ids=WRONG_IDS)
def test_a_wrong_quintic_closed_form_ends_in_exit_4(capsys, monkeypatch,
                                                    seed, check):
    # the near pencil has e = 11, so H0_4 = H0_5 = 1
    seeded_closed_forms(monkeypatch, seed)
    exit_4_with(capsys, "x,y,x+y,z,x+3y+z", check)


@pytest.mark.parametrize("seed, check", WRONG_CLOSED_FORMS, ids=WRONG_IDS)
def test_a_wrong_closed_form_on_one_triple_point_ends_in_exit_4(
        capsys, monkeypatch, seed, check):
    # six lines, one triple point: e = 16, H0 = {5: 2, 6: 3, 7: 2}
    seeded_closed_forms(monkeypatch, seed)
    exit_4_with(capsys, "x,y,x+y,z,x+3y+z,2x-y+5z", check)


def test_h0_below_the_lattice_bound_in_degree_d_ends_in_exit_4(
        capsys, monkeypatch):
    # Ziegler f makes the run and meets the bound in degree d = 9,
    # H0_9 = r(9) - 3 r(1) - 42 = 4; one less there and in its mirror 12,
    # with HF(R/J) one less too, keeps H0 symmetric and HF(R/J^sat) as it
    # was, and H0_8 above its bound
    conditions = arrangement._conditions

    def lowered_h0(arr, e, tail, h0):
        hf, entries = lowered(9, 9, tail[0], h0.entries)
        return conditions(arr, e, (hf, tail[1]), oracles.degree_data(entries))

    monkeypatch.setattr(arrangement, "_conditions", lowered_h0)
    exit_4_with(capsys, oracles.ZIEGLER_F,
                "check 'lattice bound' failed: H0_9 = 3 is below")


@pytest.mark.parametrize("forms", [
    "x,y", "x,y,z,x+y", "x,y,x+y", "x,y,x+y,x-y", "x,y,z,x+y+z,x",
    "x,y,x+y,y,x"])
def test_an_arrangement_validate_refuses_is_refused_before_any_step(forms):
    # built without validate, each report refuses it with validate's
    # message, not with a named check or an internal error
    with pytest.raises(PreconditionError) as refused:
        validate(forms.split(","))
    for report in (condition_report, full_root_report):
        with groebner.step_budget() as budget:
            with pytest.raises(PreconditionError) as also:
                report(Arrangement(forms_of(forms)))
        assert str(also.value) == str(refused.value)
        assert budget.used == 0


# the supersolvable draws (k, seed) of tier-1; tests/supersolvable.py checks
# the larger ones
SUPERSOLVABLE = [(4, 1), (5, 2), (6, 3)]


def supersolvable_mismatches(k, seed):
    """The closed forms that a request on corpus.supersolvable(k, seed)
    breaks, by name.  With m lines through its modular point, the
    arrangement is free with exponents (m - 1, d - m) (Jambu-Terao), so
    R/J has the resolution 0 -> R(-d-m+2) + R(-2d+m+1) -> R(-d+1)^3 -> R:
    HF(R/J)_t = r(t) - 3r(t-d+1) + r(t-d-m+2) + r(t-2d+m+1), r(t) the
    dimension of R_t, read here for t < 3d from the request's basis.  A
    free arrangement has J saturated, so H0 is empty and the
    non-combinatorial root is absent; it is formal, and e is
    (d - 1)^2 - (m - 1)(d - m)."""
    arr = corpus.supersolvable(k, seed)
    d = arr.degree
    m = d - k
    # the request's own Jacobian, whose basis holds the tail its run read
    built = []
    jacobian = arrangement._jacobian
    arrangement._jacobian = (lambda a, e: built.append(jacobian(a, e))
                             or built[-1])
    try:
        report = full_root_report(arr)
    finally:
        arrangement._jacobian = jacobian

    def r(t):
        return (t + 2) * (t + 1) // 2 if t >= 0 else 0

    closed = [r(t) - 3 * r(t - d + 1) + r(t - d - m + 2) + r(t - 2 * d + m + 1)
              for t in range(3 * d)]
    read = groebner._hilbert_values(groebner.buchberger(built[0]).tail,
                                    3 * d - 1)
    facts = {
        "Hilbert function": read == closed,
        "H0 empty": report.conditions.h0.is_empty(),
        "non-combinatorial root absent": not report.non_comb_present,
        "formal": is_formal(arr),
        "e": report.conditions.witness_dims["sheaf_dim_e"]
        == (d - 1) ** 2 - (m - 1) * (d - m),
    }
    return [name for name, holds in facts.items() if not holds]


@pytest.mark.parametrize("k, seed", SUPERSOLVABLE)
def test_supersolvable_draws_meet_their_closed_forms(k, seed):
    assert supersolvable_mismatches(k, seed) == []


def test_full_root_report_generic4():
    arr = validate(oracles.GENERIC4.split(","))
    report = full_root_report(arr)
    assert report.non_comb_root == Fraction(-3, 2)
    assert report.non_comb_present
    assert set(report.full_zero_set) == {Fraction(-3, 4), Fraction(-1),
                                         Fraction(-5, 4), Fraction(-3, 2)}
    assert all(Fraction(-3) < r < 0 for r in report.full_zero_set)


def test_arrangement_is_plain_data():
    arr = Arrangement(forms_of("x,y,z,x+y+z"))
    assert arr.degree == 4
    assert len({f.normal for f in arr.forms}) == 4
