"""One step budget per request: the cap bounds the whole computation."""

import inspect
import itertools
import time
from math import gcd

import pytest

import oracles
import test_demos
import bs3
from bs3 import arrangement, cli, groebner, linalg
from bs3.arrangement import full_root_report, validate
from bs3.bsroots import blf_roots, new_roots
from bs3.groebner import Ideal, ResourceLimitError, buchberger, step_budget
from bs3.milnor import milnor_profile
from bs3.polyring import WeightSystem, parse_polynomial

MODULES = ("polyring", "linalg", "groebner", "graded", "milnor", "bsroots",
           "arrangement", "cli")


def arrangement_steps(forms):
    full_root_report(validate(forms.split(",")))


def milnor_steps(poly):
    prof = milnor_profile(parse_polynomial(poly), WeightSystem((1, 1, 1)))
    new_roots(prof)
    blf_roots(prof)


REQUESTS = {
    "ziegler_g": (arrangement_steps, oracles.ZIEGLER_G,
                  ("arrangement", "--forms", oracles.ZIEGLER_G)),
    "fermat100": (milnor_steps, "x^100+y^100+z^100",
                  ("milnor", "--poly", "x^100+y^100+z^100")),
}


def request_steps(name):
    steps, arg, _ = REQUESTS[name]
    with step_budget() as budget:
        steps(arg)
    return budget.used


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_step_cap_bounds_the_whole_request(capsys, name):
    total = request_steps(name)
    argv = REQUESTS[name][2]
    code, out, _ = run(capsys, *argv, "--step-cap", str(total))
    assert code == 0 and out
    code, out, err = run(capsys, *argv, "--step-cap", str(total - 1))
    assert code == 3 and out == ""
    assert err.startswith("resource limit:")
    assert "Traceback" not in err


@pytest.fixture
def budgets(monkeypatch):
    """Every step budget made while the test runs."""
    made = []
    init = groebner._Budget.__init__

    def spy(self, cap):
        made.append(self)
        init(self, cap)

    monkeypatch.setattr(groebner._Budget, "__init__", spy)
    return made


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_one_budget_per_request(capsys, budgets, name):
    total = request_steps(name)
    budgets.clear()
    code, _, _ = run(capsys, *REQUESTS[name][2])
    assert code == 0
    assert len(budgets) == 1
    assert budgets[0].cap == groebner.DEFAULT_STEP_CAP
    assert budgets[0].used == total


LQH = ("roots", "lqh", "--poly", "x^6*y*z+2*x*y^3*z+3*x*y*z^3",
       "--weights", "1/5,1/2,1/2")
# z (x^2 + y^6)(x^2 + 4 y^6) is free: its in(I) is saturated, so no colon
# runs
LQH_PRODUCT = ("roots", "lqh", "--poly", "x^4*z+5*x^2*y^6*z+4*y^12*z",
               "--weights", "1/2,1/6,1/6")
# not free (H0 in degrees 1-4): the colons run by the moment form
# z + c*x^2 + c^2*y
LQH_COLON = ("roots", "lqh", "--poly", "2*x^5+2*x^3*y+3*x^3*z+2*x*y*z",
             "--weights", "1,2,2")
# xyz(x + y + z) under standard weights: z = 0 and x + y + z = 0 pass
# through singular points, so the certified colon is by z + 2x + 4y
LQH_STANDARD = ("roots", "lqh", "--poly", "x^2*y*z+x*y^2*z+x*y*z^2")


# the moment curve x + k*y + k^2*z, k = 0..11, has x but not y, and this
# draw (random.Random(5), entries in [-3, 3]) neither: their Jacobians are
# built with two of their own lines as x and y, where the Ziegler pair's
# are built with x and y themselves
MOMENT12 = ",".join("x+%d*y+%d*z" % (k, k * k) for k in range(12))
DRAW5 = "x-y+2z,-x+3y+2z,3x+2y+2z,x-3y+3z,3y-2z"


# each count holds the reduction steps and S-pairs, each one step more per
# 64-bit word past the first of the two coefficients it scales by, which the
# arrangements' coefficients pass: a reduction step scales by the head as it
# holds it, with the content stripped only once the head passes twice its bits
# at the last strip plus one word.  An arrangement walks the staircase of its
# leading monomials at the run's first Hilbert read, one step per generator and
# per corner of each row range; a later read cuts the boxes by each leading
# monomial found since, one step per box compared, or walks afresh where those
# cuts would spend more steps than the last walk did (moment12, whose 10 new
# leading monomials would each compare at least the 47 boxes of a walk that
# spent 107 steps); each read counts
# the boxes, one step per degree; and the colon by z and H0 are read off the
# boxes the run hands over, with no step.  The standard-weights lqh request
# walks the staircase of in(J) for the colon by z, which its boxes refuse, then
# makes the socle test of in(J), one step per generator and per drop it
# compares, and one walk over in(J) and each colon, one step per generator and
# per corner of each row range; the weighted lqh requests make the socle test,
# and the colon requests the walk, each of whose boxes are counted, one step
# per degree; the lqh colon loop reads the tail of in(J) only once c passes its
# first three values, so none of these counts holds one.  An arrangement also
# spends its lattice pairs, its free line's candidates (the points each one is
# tested against, up to the first it passes through: 115, 120, 66 and 16 of the
# four counts), d per length-3 relation vector (6 * 9 for each Ziegler
# arrangement, none for the other two), the row operations of is_formal's rank,
# the term products of its moved polynomial f', its singular points, sorted for
# the report (24, 24, 66 and 10), and its combinatorial roots, 2d - 5 and
# 2m - 3 for each multiplicity m (17, 17, 20 and 6).  Every request spends
# one step per term of the polynomial whose partials its Jacobian takes: f' has
# 36, 36, 66 and 10 terms, the four lqh polynomials 3, 3, 4 and 3.  The
# product-shape lqh request saturates to in(J) itself, so it makes no pass.
# The standard-weights lqh request computes the colon by x + y + z, which the
# certificate refuses, before the certified one by z + 2x + 4y
@pytest.mark.parametrize("argv, steps", [
    (("arrangement", "--forms", oracles.ZIEGLER_F), 1146),
    (("arrangement", "--forms", oracles.ZIEGLER_G), 968),
    (("arrangement", "--forms", MOMENT12), 3385),
    (("arrangement", "--forms", DRAW5), 190),
    (LQH, 127),
    (LQH_PRODUCT, 16),
    (LQH_COLON, 116),
    (LQH_STANDARD, 230),
], ids=["ziegler_f", "ziegler_g", "moment12", "draw5", "lqh", "lqh_product",
        "lqh_colon", "lqh_standard"])
def test_cold_request_spends_a_pinned_number_of_steps(capsys, budgets, argv,
                                                      steps):
    # pair selection, the pair criteria, the reduction order and the
    # coefficients are all fixed, so the step count of a request changes
    # only with the work done
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert [budget.used for budget in budgets] == [steps]


def test_large_fermat_ends_within_the_default_cap(capsys, budgets):
    # the partials spend one step per term of f, 3; the Jacobian
    # (x^3999, y^3999, z^3999) is Artinian, and its 3999^3 standard
    # monomials are one box over the rows a < 3999: the excess pass spends
    # its 4 generators, then the 2 + 1 corners of that row range and the
    # 1 + 1 of the rows from 3999 on, and counting the box one step per
    # degree 0..11994, where a walk of the 3999 x 3999 columns would pass
    # the default cap
    argv = ("milnor", "--poly", "x^4000+y^4000+z^4000")
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 0 and "milnor_number: 63952011999\n" in out
    spent = budgets[0].used
    assert spent == 3 + 4 + 3 + 2 + 11995
    code, out, err = run(capsys, *argv, "--step-cap", str(spent - 1))
    assert code == 3 and out == ""
    assert err.startswith("resource limit:")
    assert "Traceback" not in err


def test_large_arrangement_ends_before_its_polynomial(capsys, monkeypatch):
    # 120 forms: the lattice's 7140 pairs are refused before the pair loop,
    # and the product of the forms is never built
    forms = ["x", "y", "z"] + ["x+%d*y+%d*z" % (k, k * k)
                               for k in range(1, 118)]
    entered = []
    build = arrangement._product

    def spy(normals):
        entered.append(normals)
        return build(normals)

    monkeypatch.setattr(arrangement, "_product", spy)
    # the spy sees the one product a request builds
    code, _, _ = run(capsys, "arrangement", "--forms", oracles.GENERIC5)
    assert code == 0 and len(entered) == 1
    entered.clear()
    code, out, err = run(capsys, "arrangement", "--forms", ",".join(forms),
                         "--step-cap", "1000")
    assert code == 3 and out == ""
    assert err.startswith("resource limit:")
    assert "Traceback" not in err
    assert entered == []


def test_arrangement_spends_per_pair_and_per_term_product():
    with step_budget() as budget:
        arr = validate(oracles.GENERIC5.split(","))
        assert budget.used == 0
        # the first read builds the lattice, one step per pair of lines;
        # the second reads the kept one
        arr.lattice
        assert budget.used == 5 * 4 // 2
        arr.lattice
        assert budget.used == 5 * 4 // 2
        f = arr.defining_polynomial()
    # x, y, z, x+y+z, x+2y+3z: 1 * 1 for each of x, y, z, then 1 * 3 for
    # x+y+z and 3 * 3 for the last form (x*y*z*(x+y+z) has 3 terms)
    assert budget.used == 10 + 3 + 3 + 9
    assert len(f.terms) == 6


def test_a_cap_one_below_the_request_ends_inside_is_formal(capsys, budgets,
                                                          monkeypatch):
    # the relation vectors and the row operations of is_formal's rank are
    # the last steps an arrangement request spends; the braid arrangement
    # has four triple points, so is_formal spends steps on it, where a
    # generic one such as DRAW5 has no length-3 relation and spends none
    seen = []
    check = arrangement.is_formal

    def spy(arr):
        seen.append(groebner._budget().used)
        try:
            return check(arr)
        except ResourceLimitError:
            seen.append("refused")
            raise

    monkeypatch.setattr(arrangement, "is_formal", spy)
    argv = ("arrangement", "--forms", oracles.BRAID)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    total = budgets[0].used
    assert total > seen[0]
    seen.clear()
    code, out, err = run(capsys, *argv, "--step-cap", str(total - 1))
    assert code == 3 and out == ""
    assert err.startswith("resource limit:")
    assert len(seen) == 2 and seen[0] < total - 1 and seen[1] == "refused"


def test_rank_spends_one_step_per_row_operation_priced_by_words():
    with step_budget() as budget:
        assert linalg.rank([[1, 2], [3, 4], [5, 6]]) == 2
    # rows 2 and 3 are reduced by row 1, then row 3 by row 2
    assert budget.used == 3
    big = 2 ** 64 + 1
    with step_budget() as budget:
        assert linalg.rank([[1, 1], [big, 1]]) == 2
    # row 2 minus big times row 1: one step, and one for big's second word
    assert budget.used == 2


def test_free_line_spends_its_points_per_candidate_line():
    # z + a*x + b*y passes through (1, 0, 0) exactly when a = 0: (0, 0) is
    # refused at the first point, and (-1, 0), the first candidate of
    # height 1, is tested against both and taken
    points = [(1, 0, 0), (0, 0, 1)]
    with step_budget() as budget:
        assert arrangement._free_line(points) == (-1, 0)
    assert budget.used == 1 + len(points)


def test_length3_relations_spend_d_steps_per_vector():
    # the braid arrangement's four triple points each give one relation
    # vector of its d = 6 lines, and their rank, d - 3 = 3, takes three row
    # operations
    arr = validate(oracles.BRAID.split(","))
    arr.lattice
    with step_budget() as budget:
        assert len(arrangement._length3_relations(arr)) == 4
    assert budget.used == 4 * 6
    with step_budget() as budget:
        assert arrangement.is_formal(arr)
    assert budget.used == 4 * 6 + 3


def box_draw(h, d):
    """The first d primitive integer normals with entries in [-h, h] and
    first nonzero entry positive, in itertools.product order, as forms."""
    normals = [v for v in itertools.product(range(-h, h + 1), repeat=3)
               if gcd(*v) == 1 and next(e for e in v if e) > 0]
    return ["%d*x%+d*y%+d*z" % v for v in normals[:d]]


def points_tested(points):
    """(a, b, tests): the line _free_line takes, found by a plain scan of
    the pairs in its order, and the point tests the scan made, each
    candidate stopping at the first point its line passes through."""
    tests = 0
    for h in itertools.count():
        ring = sorted(((a, b) for a in range(-h, h + 1)
                       for b in range(-h, h + 1) if max(abs(a), abs(b)) == h),
                      key=lambda p: (abs(p[0]) + abs(p[1]), p))
        for a, b in ring:
            for px, py, pz in points:
                tests += 1
                if pz + a * px + b * py == 0:
                    break
            else:
                return a, b, tests


def test_free_line_on_the_box_draw_spends_its_point_tests_under_the_cap():
    # the (4, 150) box draw has 3,408 points, and its free line (24, 31)
    # comes after 3,914 refused candidates, most refused within a few
    # points: a charge of every point per candidate would be 13,342,320
    # steps, past the default cap
    points = list(validate(box_draw(4, 150)).lattice)
    assert len(points) == 3408
    with step_budget() as budget:
        a, b = arrangement._free_line(points)
    assert (a, b, budget.used) == points_tested(points)
    assert budget.used == 1461361 < groebner.DEFAULT_STEP_CAP


def test_length3_relations_on_the_box_draw_spend_under_the_cap():
    # the (4, 150) box draw has 2,437 relation vectors, each 150 entries
    arr = validate(box_draw(4, 150))
    arr.lattice
    with step_budget() as budget:
        relations = arrangement._length3_relations(arr)
    assert len(relations) == 2437
    assert budget.used == 2437 * 150 < groebner.DEFAULT_STEP_CAP


def test_graded_engine_spends_for_the_work_it_does():
    # the walk against (1): three generators and 1; the rows a = 0, 1 hold
    # the corners (0, 4) and (30, 0), and (0, 0) of (1), 2 + 1 steps, and
    # x^2 leaves one corner of its own and one of (1) in the rows from 2
    # on, 1 + 1: 4 + 3 + 2 steps, and one per degree 0..top of the window
    lms = ((2, 0, 0), (0, 30, 0), (0, 0, 4))
    for top, steps in ((40, 50), (1000, 1010)):
        with step_budget() as budget:
            values = oracles.hilbert_function(lms, top)
        assert sum(values) == 2 * 30 * 4
        assert budget.used == steps
    with step_budget() as budget:
        assert oracles.hilbert_function(lms, -3) == []
    assert budget.used == 4


def test_graded_engine_charges_a_row_range_once():
    # (x^N, y) against (1), dim (R/M)_t = min(t + 1, N): the rows a < N
    # hold y's corner and that of (1), and the rows from N on x^N's and
    # that of (1), so the walk spends 3 generators and 2 + 2 corners
    # whatever N is, and one step per degree
    for n in (10, 10000):
        top = n + 5
        with step_budget() as budget:
            values = oracles.hilbert_function(((n, 0, 0), (0, 1, 0)), top)
        assert values == [min(t + 1, n) for t in range(top + 1)]
        assert budget.used - (top + 1) == 3 + 2 + 2


def test_excess_pass_lists_a_row_range_as_one_box():
    # the Fermat Jacobian's in(J) = (x^(n-1), y^(n-1), z^(n-1)) against
    # (1): the standard monomials are one box, for the same 4 + 3 + 2
    # steps at n = 40 and at n = 4000
    for n in (40, 4000):
        lms = ((n - 1, 0, 0), (0, n - 1, 0), (0, 0, n - 1))
        with step_budget() as budget:
            boxes = groebner._saturation_excess(lms, ((0, 0, 0),))
        assert boxes == ((0, n - 1, 0, n - 1, 0, n - 1),)
        assert budget.used == 4 + 3 + 2


def test_excess_pass_spends_for_the_work_it_does():
    # in(I) = (x^2, y^3, z^4) under in(J) = (1): four generators; the rows
    # a = 0, 1 hold two corners of in(I) and one of in(J), 2 + 1 steps,
    # and the rows from 2 on one of each, 1 + 1 steps.  Counting the box
    # costs one step per degree 0..6: the walk paid for the box
    lms_i, lms_j = ((2, 0, 0), (0, 3, 0), (0, 0, 4)), ((0, 0, 0),)
    with step_budget() as budget:
        boxes = groebner._saturation_excess(lms_i, lms_j)
    assert boxes == ((0, 2, 0, 3, 0, 4),)
    assert budget.used == 4 + 3 + 2
    with step_budget() as budget:
        counts = groebner._excess_degrees(boxes, (1, 1, 1))
    assert counts == [1, 3, 5, 6, 5, 3, 1]
    assert budget.used == 7


def test_wide_weighted_window_ends_within_its_cap(capsys):
    # weights 1/11, 1/13, 1/32749 scale to 425737, 360239 and 143 over
    # 4684107: the engine's window runs to degree 12477083, and its degree
    # list is refused before it is allocated
    start = time.perf_counter()
    code, out, err = run(capsys, "roots", "isolated", "--poly",
                         "x^11+y^13+z^32749", "--weights",
                         "1/11,1/13,1/32749", "--step-cap", "100000")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith("resource limit:")
    assert "Traceback" not in err


def two_ideals():
    """Two ideals built anew, holding no basis yet."""
    return tuple(Ideal(tuple(parse_polynomial(t) for t in texts))
                 for texts in (("x^3*y - z^4", "x*z^2 - y^3", "y^2*z - x^2"),
                               ("x^2 - y*z", "x*y - z^2")))


def test_budget_is_shared_by_the_calls_of_a_block():
    used = []
    for ideal in two_ideals():
        with step_budget() as budget:
            buchberger(ideal)
        used.append(budget.used)
    assert min(used) > 0
    first, second = two_ideals()
    with step_budget(sum(used)) as budget:
        buchberger(first)
        buchberger(second)
    assert budget.used == sum(used)
    first, second = two_ideals()
    with pytest.raises(ResourceLimitError), step_budget(sum(used) - 1):
        buchberger(first)
        buchberger(second)


def test_an_ideal_keeps_only_a_basis_whose_run_returned():
    first, _ = two_ideals()
    with pytest.raises(ResourceLimitError), step_budget(3):
        buchberger(first)
    with step_budget() as budget:
        gb = buchberger(first)
    assert budget.used > 3
    with step_budget() as again:
        assert buchberger(first) is gb
    assert again.used == 0
    assert gb.leading_monomials == buchberger(
        two_ideals()[0]).leading_monomials


def test_a_request_run_again_in_one_process_spends_the_same_steps(
        capsys, budgets):
    # nothing a request computes outlives it, so a second run of each
    # reachability request spends what the first did, and a cap one below
    # what Ziegler f spends ends it however often it ran before
    for argv in test_demos.REQUESTS:
        spent = []
        for _ in range(2):
            budgets.clear()
            assert cli.main(list(argv)) == 0, argv
            spent.append(sum(budget.used for budget in budgets))
        assert spent[0] == spent[1] > 0, argv
    argv = ("arrangement", "--forms", oracles.ZIEGLER_F)
    budgets.clear()
    code, _, _ = run(capsys, *argv)
    assert code == 0 and len(budgets) == 1
    code, out, err = run(capsys, *argv, "--step-cap",
                         str(budgets[0].used - 1))
    assert (code, out) == (3, "") and err.startswith("resource limit:")


def test_blocks_nest_and_close():
    assert groebner._budget() is not groebner._budget()
    with step_budget(5) as outer:
        assert groebner._budget() is outer
        with step_budget(7) as inner:
            assert groebner._budget() is inner
        assert groebner._budget() is outer
    assert groebner._budget().cap == groebner.DEFAULT_STEP_CAP


def test_no_function_takes_a_step_cap():
    checked = set()
    for name in MODULES:
        module = getattr(bs3, name)
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                checked.add(attr)
                assert "step_cap" not in inspect.signature(obj).parameters, \
                    "%s.%s" % (name, attr)
    # every function that once took a step_cap was among those checked
    assert checked >= {
        "buchberger", "h0_degree_data", "regularity_report",
        "milnor_profile", "condition_report", "full_root_report",
        "arrangement_profile"}
