"""Deterministic corpus of valid line arrangements for the acceptance run.

Curated seeds cover generic position, the braid arrangement, near-pencils
with a single high-multiplicity point, and the degree-9 pair whose zero
sets differ by one root.  Seeded random arrangements of degree at most 7
top the corpus up to the required size; validation rejects non-reduced,
non-essential, or decomposable draws, so every retained entry is valid.

supersolvable(k, seed) draws the supersolvable arrangements whose free
resolution gives HF(R/J) in closed form, generic_draws(n) the generic
ones, whose H0 has a closed form too, quintic_draws(n, bound) five
lines that are not generic, whose report follows from e, and
concurrent_draws(n, bound) draws with one or two triple points that the
lattice certifies, whose report follows from d and e.
"""

import random
from functools import lru_cache
from itertools import combinations
from math import gcd

from bs3.arrangement import LinearForm, validate
from bs3.polyring import Bs3Error

import oracles

MINIMUM_SIZE = 40

CURATED = [
    ("generic4", oracles.GENERIC4),
    ("generic5", oracles.GENERIC5),
    ("generic6", oracles.GENERIC6),
    ("braid", oracles.BRAID),
    ("nearpencil3", "x,y,x+y,z,x+3y+z"),
    ("nearpencil4", "x,y,x+y,x+2y,z,x+3y+z"),
    ("nearpencil5", "x,y,x+y,x+2y,x+3y,z,x+4y+z"),
    ("twotriples5", oracles.TWOTRIPLES5),
    ("mixed9", "x,y,z,x+y+z,x-y,x-z,y-z,x+y-z,2x+y+z"),
    ("ziegler_f", oracles.ZIEGLER_F),
    ("ziegler_g", oracles.ZIEGLER_G),
]


def _random_form(rng):
    while True:
        coeffs = tuple(rng.randint(-3, 3) for _ in range(3))
        if any(coeffs):
            return coeffs


def _coeff_csv(coeffs):
    names = ("x", "y", "z")
    parts = []
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        if c == 1:
            parts.append("+%s" % name)
        elif c == -1:
            parts.append("-%s" % name)
        else:
            parts.append("%+d%s" % (c, name))
    return "".join(parts).lstrip("+")


def _random_arrangement(rng):
    degree = rng.choice((4, 5, 6, 7))
    forms = [_coeff_csv(_random_form(rng)) for _ in range(degree)]
    return ",".join(forms)


@lru_cache(maxsize=1)
def build_corpus(minimum=MINIMUM_SIZE):
    """Return a tuple of (name, Arrangement), deterministic across runs.
    It is memoized and shared by every test, so it is a tuple: no caller
    can change what the tests after it read."""
    entries = []
    seen = set()
    for name, csv in CURATED:
        arr = validate(csv.split(","))
        entries.append((name, arr))
        seen.add(tuple(f.normal for f in arr.forms))
    rng = random.Random(20260814)
    attempt = 0
    while len(entries) < minimum:
        attempt += 1
        csv = _random_arrangement(rng)
        try:
            arr = validate(csv.split(","))
        except Bs3Error:
            continue
        key = tuple(f.normal for f in arr.forms)
        if key in seen:
            continue
        seen.add(key)
        entries.append(("random%02d" % attempt, arr))
    return tuple(entries)


def _primitive(normal):
    g = gcd(*normal)
    normal = tuple(c // g for c in normal)
    return normal if next(c for c in normal if c) > 0 else tuple(
        -c for c in normal)


def generic_draws(n):
    """The first n generic draws of random.Random(7): d = randint(4, 12)
    forms with coefficients randint(-50, 50), skipping draws that validate
    refuses or that have three forms through one point."""
    rng = random.Random(7)
    draws = []
    while len(draws) < n:
        d = rng.randint(4, 12)
        coeffs = [[rng.randint(-50, 50) for _ in range(3)] for _ in range(d)]
        try:
            arr = validate([LinearForm(c) for c in coeffs])
        except Bs3Error:
            continue
        if oracles.is_generic(arr):
            draws.append(arr)
    return draws


def quintic_draws(n, bound):
    """The first n draws of random.Random(5) of five forms with
    coefficients in [-bound, bound] that validate keeps and that are not
    generic.  Of five drawn normals the third is made the sum or
    difference of the first two, and on half the draws the fifth that of
    the third and the fourth, so one or two triple points; a draw with a
    coefficient past the bound is skipped, and the forms are shuffled."""
    rng = random.Random(5)
    draws = []
    while len(draws) < n:
        normals = [[rng.randint(-bound, bound) for _ in range(3)]
                   for _ in range(5)]
        for i, j, k in ((0, 1, 2), (2, 3, 4))[:rng.randint(1, 2)]:
            sign = rng.choice((-1, 1))
            normals[k] = [a + sign * b for a, b in zip(normals[i], normals[j])]
        if any(abs(c) > bound for normal in normals for c in normal):
            continue
        rng.shuffle(normals)
        try:
            arr = validate([LinearForm(c) for c in normals])
        except Bs3Error:
            continue
        if not oracles.is_generic(arr):
            draws.append(arr)
    return draws


def concurrent_draws(n, bound):
    """The first n draws of random.Random(11) of d = randint(6, 9) forms
    with coefficients in [-bound, bound] that validate keeps, that are not
    generic, and whose lattice certifies the closed form
    (oracles.reads_closed_forms).  Of d drawn normals the third is made
    the sum or difference of the first two, so one triple point; on a
    third of the draws the fifth is made that of the first and the
    fourth, a second triple point on the first line, and on another
    third that of the fourth and the sixth, a second triple point on no
    common line, which the lattice does not certify.  A draw with a
    coefficient past the bound is skipped, and the forms are shuffled."""
    rng = random.Random(11)
    draws = []
    while len(draws) < n:
        d = rng.randint(6, 9)
        normals = [[rng.randint(-bound, bound) for _ in range(3)]
                   for _ in range(d)]
        for i, j, k in ((0, 1, 2),) + rng.choice(((), ((0, 3, 4),),
                                                  ((3, 5, 4),))):
            sign = rng.choice((-1, 1))
            normals[k] = [a + sign * b for a, b in zip(normals[i], normals[j])]
        if any(abs(c) > bound for normal in normals for c in normal):
            continue
        rng.shuffle(normals)
        try:
            arr = validate([LinearForm(c) for c in normals])
        except Bs3Error:
            continue
        if not oracles.is_generic(arr) and oracles.reads_closed_forms(arr):
            draws.append(arr)
    return draws


def supersolvable(k, seed):
    """The supersolvable draw (k, seed): k distinct primitive normals
    (a, b, c), a and b in [-3, 3] and c in [1, 3], drawn from
    random.Random(seed), so that none of these lines passes through
    p = (0:0:1), then the lines through p and each crossing of two of
    them.  p is a modular point: every crossing lies on a line through it.
    Sorted within each part; its multiplicity m is the degree minus k."""
    rng = random.Random(seed)
    drawn = set()
    while len(drawn) < k:
        drawn.add(_primitive((rng.randint(-3, 3), rng.randint(-3, 3),
                              rng.randint(1, 3))))
    drawn = sorted(drawn)
    through_p = sorted({_primitive((a[2] * b[0] - a[0] * b[2],
                                    a[2] * b[1] - a[1] * b[2], 0))
                        for a, b in combinations(drawn, 2)})
    return validate([_coeff_csv(n) for n in drawn + through_p])
