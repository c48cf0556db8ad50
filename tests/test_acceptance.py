"""Acceptance gate: nine exact end-to-end criteria.

Every criterion prints a single PASS/FAIL line on the real terminal (so the
verdicts survive pytest's capture) and then asserts.  All comparisons are
exact; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

import pytest

from bs3.arrangement import arrangement_profile, full_root_report
from bs3.bsroots import (RootSet, check_partial_symmetry,
                         homogeneous_taxonomy, new_roots,
                         reconstruct_zero_set, roots_isolated, small_roots,
                         xi_set)
from bs3.groebner import Ideal, buchberger
from bs3.milnor import milnor_profile
from bs3.polyring import Polynomial, WeightSystem, parse_polynomial

import corpus
import oracles

W1 = WeightSystem((1, 1, 1))


def verdict(capsys, number, label, ok):
    line = "criterion %d (%s): %s" % (number, label, "PASS" if ok else "FAIL")
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def rows():
    out = []
    for name, arr in corpus.build_corpus():
        started = time.monotonic()
        prof = arrangement_profile(arr)
        rep = full_root_report(arr)
        elapsed = time.monotonic() - started
        out.append((name, arr, prof, rep, elapsed))
    return out


def by_name(rows, name):
    for row in rows:
        if row[0] == name:
            return row
    raise KeyError(name)


def test_criterion_1_ziegler_pair_reproduction(rows, capsys):
    _, _, prof_f, rep_f, dt_f = by_name(rows, "ziegler_f")
    _, _, prof_g, rep_g, dt_g = by_name(rows, "ziegler_g")
    ok = dict(prof_f.h0.entries) == oracles.H0_F
    ok = ok and dict(prof_g.h0.entries) == oracles.H0_G
    ok = ok and rep_f.conditions.witness_dims == oracles.ZIEGLER_WITNESS_F
    ok = ok and rep_g.conditions.witness_dims == oracles.ZIEGLER_WITNESS_G
    full_f, full_g = set(rep_f.full_zero_set), set(rep_g.full_zero_set)
    ok = ok and full_f == oracles.FULL_F and full_g == oracles.FULL_G
    ok = ok and full_f - full_g == {oracles.NON_COMB_ROOT_D9}
    ok = ok and dt_f < 300 and dt_g < 300
    verdict(capsys, 1, "Ziegler pair reproduction", ok)


def test_criterion_2_condition_equivalence(rows, capsys):
    ok = len(rows) >= 40
    for name, _, _, rep, _ in rows:
        flags = set(rep.conditions.flags().values())
        ok = ok and rep.conditions.consistent and len(flags) == 1
    verdict(capsys, 2,
            "six conditions agree on %d arrangements" % len(rows), ok)


def test_criterion_3_isolated_formula(capsys):
    quadric = roots_isolated(milnor_profile(
        parse_polynomial("x^2+y^2+z^2"), W1))
    cubic = roots_isolated(milnor_profile(
        parse_polynomial("x^3+y^3+z^3"), W1))
    ok = quadric == [Fraction(-3, 2), Fraction(-1)]
    ok = ok and cubic == [Fraction(-2), Fraction(-5, 3), Fraction(-4, 3),
                          Fraction(-1)]
    verdict(capsys, 3, "isolated singularity formula", ok)


def test_criterion_4_support_interval_and_symmetry(rows, capsys):
    ok = True
    for name, arr, prof, _, _ in rows:
        if prof.h0.is_empty():
            continue
        d = arr.degree
        support = [int(q) for q in prof.h0.entries]
        tau = support[0]
        ok = ok and support == list(range(tau, 3 * d - 6 - tau + 1))
        for t in support:
            ok = ok and prof.h0.dimension(t) == \
                prof.h0.dimension(3 * d - 6 - t)
    verdict(capsys, 4, "section degrees fill a symmetric interval", ok)


def test_criterion_5_partial_symmetry(rows, capsys):
    ok = True
    for name, _, prof, rep, _ in rows:
        xi = xi_set(prof)
        report = check_partial_symmetry(rep.full_zero_set, xi)
        ok = ok and len(report.asymmetric_outside_xi) == 0
    verdict(capsys, 5,
            "zero set symmetric about -1 outside the obstruction set", ok)


def test_criterion_6_containment_and_small_window(rows, capsys):
    ok = True
    for name, _, prof, rep, _ in rows:
        full = rep.full_zero_set
        ok = ok and all(r in full for r in new_roots(prof))
        ok = ok and small_roots(prof) == full.window(-3, -2)
    verdict(capsys, 6, "new roots contained; (-3,-2] window exact", ok)


def test_criterion_7_taxonomy_reconstruction(rows, capsys):
    ok = True
    for name, arr, prof, rep, _ in rows:
        full = rep.full_zero_set
        interval = full.window(-1, 0, include_lo=True, include_hi=False)
        if prof.h0.is_empty():
            _, _, rebuilt = reconstruct_zero_set(None, arr.degree, interval)
        else:
            rebuilt = homogeneous_taxonomy(prof, interval).reconstruction
        ok = ok and rebuilt == full
    verdict(capsys, 7, "zero set rebuilt from tau, degree, interval roots", ok)


def test_criterion_8_dimension_oracle_equivalence(capsys):
    rng = random.Random(88)
    started = time.monotonic()
    checked = 0
    ok = True
    while checked < 100:
        gens = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 5)
            monos = oracles.monomials_of_degree(deg)
            terms = {m: rng.randint(-3, 3) for m in monos}
            p = Polynomial(terms, 3)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        ideal = Ideal(tuple(gens))
        gb = buchberger(ideal)
        for q in range(7):
            ok = ok and oracles.rank_route_dimension(ideal, W1, q) == \
                oracles.graded_dimension(gb, W1, q)
        checked += 1
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60
    verdict(capsys, 8, "rank route equals standard monomials on 100 ideals "
            "(%.1fs)" % elapsed, ok)


def test_criterion_9_generic_corroboration(rows, capsys):
    ok = True
    for name, d in (("generic4", 4), ("generic5", 5)):
        _, _, _, rep, _ = by_name(rows, name)
        ok = ok and set(rep.full_zero_set) == oracles.walther_generic_set(d)
    verdict(capsys, 9, "generic arrangements recover the closed-form set", ok)
