"""Seeded request lists for the four benchmark workloads.

A run's list is fixed by (workload, seed, seconds): the workload's fixed
members, then `rounds` rounds, where each round draws one input for every
slot of the workload.  The number of rounds comes from the run length and
a nominal round cost written here, never from the measured speed of the
program, so every run of a workload serves the same number of requests and
its latency percentiles sit at the same ranks.  Every input appears once
per run.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from checks import arrangement_verdict, normalize_form

ZIEGLER_F = "x,y,z,x+3z,x+y+z,x+2y+3z,2x+y+z,2x+3y+z,2x+3y+4z"
ZIEGLER_G = "x,y,z,x+5z,x+y+z,x+3y+5z,2x+y+z,2x+3y+z,2x+3y+4z"
ARRANGEMENT_FIXED = [
    ("generic4", "x,y,z,x+y+z"),
    ("generic5", "x,y,z,x+y+z,x+2y+3z"),
    ("generic6", "x,y,z,x+y+z,x+2y+3z,x+4y+5z"),
    ("braid", "x,y,z,x-y,x-z,y-z"),
    ("ziegler_f", ZIEGLER_F),
    ("ziegler_g", ZIEGLER_G),
]
# x, y, z and thirteen points of the moment curve: no three concurrent
SCREENING_D16 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)] + [
    (1, k, k * k) for k in range(1, 14)]


class Request:
    """One cold request: CLI argv, or forms for `arrangement.validate`."""

    __slots__ = ("name", "argv", "forms", "spec")

    def __init__(self, name, spec, argv=None, forms=None):
        self.name = name
        self.spec = spec
        self.argv = argv
        self.forms = forms

    @property
    def key(self):
        """What makes two requests the same input: the normalized set of
        forms, or the polynomial with its weights."""
        if "forms" in self.spec:
            return frozenset(normalize_form(f) for f in self.spec["forms"])
        i = self.argv.index("--poly")
        return tuple(self.argv[i + 1:i + 4])

    @property
    def text(self):
        if self.argv is not None:
            return " ".join(self.argv)
        return "validate " + ",".join(self.forms)

    def __repr__(self):
        return "Request(%s: %s)" % (self.name, self.text)


# -- formatting ----------------------------------------------------------------


def form_text(coeffs):
    parts = []
    for c, name in zip(coeffs, "xyz"):
        if c == 0:
            continue
        if c == 1:
            parts.append("+" + name)
        elif c == -1:
            parts.append("-" + name)
        else:
            parts.append("%+d%s" % (c, name))
    return "".join(parts).lstrip("+")


def parse_form(text):
    """Integer coefficients of a form written by form_text or in the
    fixed lists above (terms like 2x, -y, +3z)."""
    coeffs = [0, 0, 0]
    for term in text.replace("-", "+-").split("+"):
        if term:
            head = term[:-1]
            coeffs["xyz".index(term[-1])] = int(
                head + "1" if head in ("", "-") else head)
    return tuple(coeffs)


def monomial_text(coeff, expo):
    factors = [str(coeff)] if coeff != 1 else []
    for e, name in zip(expo, "xyz"):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append("%s^%d" % (name, e))
    return "*".join(factors)


def poly_text(terms):
    return "+".join(monomial_text(c, e) for c, e in terms).replace("+-", "-")


# -- arrangement ---------------------------------------------------------------


def _random_forms(rng, degree):
    forms = []
    while len(forms) < degree:
        coeffs = tuple(rng.randint(-3, 3) for _ in range(3))
        if any(coeffs):
            forms.append(coeffs)
    return forms


def _draw_arrangement(rng, degree, seen, want="valid", shifts=None,
                      max_zeros=None):
    """Redraw until the verdict is `want`, the normalized form set is new in
    this run and, when given, `failed_shifts` equals `shifts` and at most
    `max_zeros` coefficients are 0."""
    while True:
        forms = _random_forms(rng, degree)
        if shifts is not None and failed_shifts(forms) != shifts:
            continue
        if max_zeros is not None and sum(
                c == 0 for f in forms for c in f) > max_zeros:
            continue
        key = frozenset(normalize_form(f) for f in forms)
        if key not in seen and arrangement_verdict(forms) == want:
            seen.add(key)
            return forms


# The coordinate changes z -> z + c1 x + c2 y that bs3's fast saturation of
# the Jacobian ideal tries in this order, as the benchmark was written.  A
# change fails when its line z + c1 x + c2 y = 0 passes through an
# intersection point of the arrangement (the saturation by that line then
# loses the point), and every failed change repeats Groebner work.  The
# list is copied, not imported, so that the inputs never depend on the
# program under test.
GENERIC_SHIFTS = ((0, 0), (1, 2), (2, 3), (3, 5), (5, 8))


def failed_shifts(forms):
    """How many changes of GENERIC_SHIFTS fail before one succeeds: the
    cost class of an arrangement of a given degree."""
    points = [_cross_int(a, b) for i, a in enumerate(forms)
              for b in forms[i + 1:]]
    for k, (c1, c2) in enumerate(GENERIC_SHIFTS):
        if not any(p[2] + c1 * p[0] + c2 * p[1] == 0 for p in points):
            return k
    return len(GENERIC_SHIFTS)


def _arrangement_request(name, forms, oracle=None):
    csv = ",".join(form_text(f) for f in forms)
    spec = {"forms": forms, "oracle": oracle}
    return Request(name, spec,
                   argv=["arrangement", "--forms=" + csv])


def arrangement_fixed():
    return [_arrangement_request(
        name, [parse_form(t) for t in csv.split(",")], name)
        for name, csv in ARRANGEMENT_FIXED]


def arrangement_round(rng, index, seen):
    slots = ARRANGEMENT_SLOTS
    if index == 0:
        slots = ARRANGEMENT_ONCE + slots
    return [_arrangement_request("r%d.d%d.k%d.%d" % (index, d, shifts, k),
                                 _draw_arrangement(rng, d, seen,
                                                   shifts=shifts,
                                                   max_zeros=zeros))
            for k, (d, shifts, zeros) in enumerate(slots)]


# (degree, failed_shifts, most zero coefficients) per round slot.  Within
# one degree the cost grows with the number of failed shifts (at d=5 about
# 1 : 1.7 : 2.1 : 2.7 for 0-3 failures), so a slot fixes it and every run
# has the same mix.  The median falls among the two (5, 0) slots.  The tail
# rank falls among the (5, 3) slots, five below the top of that slot, where
# sparse forms still spread the cost 2x; at most one zero coefficient keeps
# it within about 1.3x.  The heavier degrees 6, 7 and 8 are drawn once per
# run, next to the fixed Ziegler pair.
ARRANGEMENT_SLOTS = ((4, 0, None), (4, 1, None), (5, 0, None), (5, 0, None),
                     (5, 1, None), (5, 3, 1))
ARRANGEMENT_ONCE = ((6, 1, None), (7, 1, None), (8, 1, None))


# -- isolated ------------------------------------------------------------------


def _lcm(*values):
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


@functools.lru_cache(maxsize=None)
def _brieskorn_pool(lo, hi, perturbed):
    """Exponent triples a <= b <= c <= 40 with a*b*c in [lo, hi) and
    lcm(a, b, c) <= 4c.  The degree scan visits about 4.5*a*b*c monomials
    (55-70 us each for a plain sum), and the lcm bound keeps the number of
    scanned degrees from dominating.  Perturbed draws need two even
    exponents."""
    pool = []
    for a in range(2, 41):
        for b in range(a, 41):
            for c in range(b, 41):
                if (lo <= a * b * c < hi and _lcm(a, b, c) <= 4 * c
                        and (not perturbed or b % 2 == c % 2 == 0)):
                    pool.append((a, b, c))
    return pool


# (a*b*c range, perturbed) per round slot.  Perturbed bases are larger and
# their cost per monomial varies 3x, so they sit in the cheap slot.  The
# median falls among the three middle slots and the tail rank among the
# three heaviest; the bands are narrow enough for about nine rounds in a
# run, so that both ranks sit near the middle of their slots' draws.
ISOLATED_STRATA = (
    (800, 1300, False), (800, 1300, False),
    (400, 800, True),
    (4500, 5500, False), (4500, 5500, False), (4500, 5500, False),
    (8000, 10000, False), (8000, 10000, False), (8000, 10000, False),
)
# perturbation coefficients t of x^(a/2) y^(b/2): t != 0, +-2 keeps the
# (x, y) part reduced, so the singularity stays isolated
PERTURBATIONS = (Fraction(1), Fraction(-1), Fraction(3), Fraction(-3),
                 Fraction(1, 2), Fraction(-5, 2), Fraction(5), Fraction(-7))


def _isolated_request(name, expos, weights, degree, command, extra=None):
    terms = [(1, (expos[0], 0, 0)), (1, (0, expos[1], 0)),
             (1, (0, 0, expos[2]))]
    if extra is not None:
        terms.append(extra)
    spec = {"command": command, "weights": list(weights), "degree": degree}
    argv = command.split() + ["--poly", poly_text(terms),
                              "--weights", ",".join(map(str, weights))]
    return Request(name, spec, argv=argv)


def isolated_fixed():
    return [_isolated_request("fermat40", (40, 40, 40), (1, 1, 1), 40,
                              "roots isolated")]


def isolated_round(rng, index, seen):
    out = []
    for k, stratum in enumerate(ISOLATED_STRATA):
        pool = _brieskorn_pool(*stratum)
        while True:
            expos = list(rng.choice(pool))
            extra = None
            if stratum[2]:
                # the two even exponents go to x and y
                expos = [expos[1], expos[2], expos[0]]
                extra = (rng.choice(PERTURBATIONS),
                         (expos[0] // 2, expos[1] // 2, 0))
            else:
                rng.shuffle(expos)
            degree = _lcm(*expos)
            weights = tuple(degree // e for e in expos)
            command = ("roots isolated", "milnor")[(index + k) % 2]
            req = _isolated_request("r%d.s%d" % (index, k), expos, weights,
                                    degree, command, extra)
            if req.key not in seen:
                seen.add(req.key)
                out.append(req)
                break
    return out


# -- lqh-weighted --------------------------------------------------------------


def _lqh_product(a, b, j, k):
    """Expanded z (x^a + j y^b)(x^a + k y^b)."""
    return [(1, (2 * a, 0, 1)), (j + k, (a, b, 1)), (j * k, (0, 2 * b, 1))]


def _lqh_xyz(a, b, c, j, k):
    """Expanded xyz (x^a + j y^b + k z^c)."""
    return [(1, (a + 1, 1, 1)), (j, (1, b + 1, 1)), (k, (1, 1, c + 1))]


# Round slots in increasing cost: shapes (family, a, b, c) with weights
# (1/a, 1/b, 1/c) whose requests cost about the same.  The shape fixes the
# cost; the seed draws the shape within the slot, the coefficients j != k
# and the --lct-lambda.  The median falls in the two middle slots and the
# tail rank in the last one.
LQH_STRATA = (
    (("xyz", 5, 2, 2), ("xyz", 5, 2, 3), ("xyz", 2, 5, 3)),
    (("product", 2, 6, 2), ("product", 6, 2, 3),
     ("xyz", 3, 4, 5), ("xyz", 4, 3, 5)),
    (("product", 2, 6, 6), ("product", 6, 2, 6)),
    (("product", 2, 6, 6), ("product", 6, 2, 6)),
    (("xyz", 7, 5, 4), ("xyz", 4, 7, 5)),
    (("product", 5, 6, 5), ("product", 6, 5, 6)),
)
LCT_LAMBDAS = ("0", "-1/3", "-1/2", "-2/3", "-1")


def lqh_round(rng, index, seen):
    out = []
    for k, shapes in enumerate(LQH_STRATA):
        while True:
            family, a, b, c = rng.choice(shapes)
            j, m = rng.sample(range(1, 10), 2)
            terms = (_lqh_xyz(a, b, c, j, m) if family == "xyz"
                     else _lqh_product(a, b, j, m))
            weights = ["1/%d" % a, "1/%d" % b, "1/%d" % c]
            spec = {"weights": weights, "monomial": terms[0][1]}
            argv = ["roots", "lqh", "--poly", poly_text(terms),
                    "--weights", ",".join(weights)]
            if rng.random() < 0.5:
                spec["lct_lambda"] = rng.choice(LCT_LAMBDAS)
                argv.append("--lct-lambda=" + spec["lct_lambda"])
            req = Request("r%d.%s%d" % (index, family, k), spec, argv=argv)
            if req.key not in seen:
                seen.add(req.key)
                out.append(req)
                break
    return out


# -- screening -----------------------------------------------------------------


# Degrees per round.  The cost of one degree has two modes about 1.5x apart
# (it depends on the forms' coefficients), about two thirds in the lower
# one; six d=12 draws put the median rank inside the lower mode of d=12 in
# every run, and two d=14 draws hold the tail rank.
SCREENING_DEGREES = (10, 11, 12, 12, 12, 12, 12, 12, 13, 14, 14, 15)


def _screening_request(name, forms):
    return Request(name, {"forms": forms},
                   forms=[form_text(f) for f in forms])


# pencil directions (alpha : beta), pairwise non-proportional
RATIOS = [(a, b) for a in range(0, 5) for b in range(-4, 5)
          if math.gcd(a, b) == 1 and (a > 0 or b == 1)]


def _pencil(rng, count):
    """`count` distinct lines through one random point, as combinations
    of two independent forms through it."""
    while True:
        p, r, s = _random_forms(rng, 3)
        u = tuple(int(v) for v in _cross_int(p, r))
        v = tuple(int(v) for v in _cross_int(p, s))
        if any(_cross_int(u, v)):
            return [tuple(a * x + b * y for x, y in zip(u, v))
                    for a, b in rng.sample(RATIOS, count)]


def _cross_int(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _rejected(rng, degree, seen, want):
    """A draw `validate` must reject as `want`: all lines through one point
    ('not essential'), or one line followed by d - 1 lines through a point
    ('decomposable'; the line comes first, so the verdict costs the same
    in every run)."""
    while True:
        if want == "not essential":
            forms = _pencil(rng, degree)
        else:
            forms = _random_forms(rng, 1) + _pencil(rng, degree - 1)
        key = frozenset(normalize_form(f) for f in forms)
        if key not in seen and arrangement_verdict(forms) == want:
            seen.add(key)
            return forms


def screening_fixed():
    return [_screening_request("d16", SCREENING_D16)]


def screening_round(rng, index, seen):
    out = [_screening_request("r%d.d%d.%d" % (index, d, k),
                              _draw_arrangement(rng, d, seen))
           for k, d in enumerate(SCREENING_DEGREES)]
    d = rng.choice(SCREENING_DEGREES)
    out.append(_screening_request("r%d.dup" % index,
                                  _draw_arrangement(rng, d, seen,
                                                    "not reduced")))
    out.append(_screening_request(
        "r%d.flat" % index, _rejected(rng, d, seen, "not essential")))
    out.append(_screening_request(
        "r%d.pencil" % index, _rejected(rng, d, seen, "decomposable")))
    return out


# -- workload table ------------------------------------------------------------


class Workload:
    """Fixed members plus seeded rounds; `fixed_s` and `round_s` are the
    nominal costs (seconds) that turn a run length into a round count."""

    def __init__(self, name, fixed, round_fn, fixed_s, round_s):
        self.name = name
        self.fixed = fixed
        self.round_fn = round_fn
        self.fixed_s = fixed_s
        self.round_s = round_s

    def rounds(self, seconds):
        return max(1, round((seconds - self.fixed_s) / self.round_s))

    def requests(self, seed, seconds):
        rng = random.Random("%s:%d" % (self.name, seed))
        out = self.fixed()
        seen = {r.key for r in out}
        for i in range(self.rounds(seconds)):
            out += self.round_fn(rng, i, seen)
        return out


WORKLOADS = {w.name: w for w in (
    Workload("arrangement", arrangement_fixed, arrangement_round, 12.7, 0.71),
    Workload("isolated", isolated_fixed, isolated_round, 3.0, 2.45),
    Workload("lqh-weighted", lambda: [], lqh_round, 0.0, 1.4),
    Workload("screening", screening_fixed, screening_round, 5.0, 5.1),
)}
