"""Independent correctness checks for benchmark requests.

Every expected value here is recomputed from the request's own inputs with
elementary arithmetic (cross products, a 3x3 rank, a polynomial product),
never through the package under test.  A check returns a list of problems;
an empty list means the report is correct.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction


# -- line arrangements -------------------------------------------------------


def normalize_form(coeffs):
    """Scale a nonzero coefficient triple so its first nonzero entry is 1."""
    coeffs = tuple(Fraction(c) for c in coeffs)
    lead = next(c for c in coeffs if c != 0)
    return tuple(c / lead for c in coeffs)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _det3(a, b, c):
    return sum(x * y for x, y in zip(a, _cross(b, c)))


def _is_essential(normals):
    """Some 3x3 minor is nonzero: find two independent normals, then a
    third off their plane (linear in d after the first pair)."""
    for i, a in enumerate(normals):
        for b in normals[i + 1:]:
            if any(_cross(a, b)):
                return any(_det3(a, b, c) for c in normals)
    return False


def intersection_multiplicities(normals):
    """Map each intersection point (canonically scaled) to the number of
    lines through it, from the pairwise intersections alone: a point on m
    lines is met by exactly m(m-1)/2 pairs."""
    pairs = {}
    for i, a in enumerate(normals):
        for b in normals[i + 1:]:
            pt = normalize_form(_cross(a, b))
            pairs[pt] = pairs.get(pt, 0) + 1
    out = {}
    for pt, count in pairs.items():
        m = 2
        while m * (m - 1) // 2 < count:
            m += 1
        out[pt] = m
    return out


def arrangement_verdict(forms):
    """The verdict `validate` must reach, in its order of tests: 'not
    reduced', 'not essential', 'decomposable' or 'valid'.  Decomposable
    (for a reduced essential arrangement) means one line plus a pencil,
    that is, a point of multiplicity d - 1."""
    normals = [normalize_form(f) for f in forms]
    if len(set(normals)) < len(normals):
        return "not reduced"
    if not _is_essential(normals):
        return "not essential"
    d = len(normals)
    if any(m == d - 1 for m in intersection_multiplicities(normals).values()):
        return "decomposable"
    return "valid"


def comb_roots(forms):
    """-k/d for 3 <= k <= 2d-3, and -i/m for 2 <= i <= 2m-2 at every
    intersection point of multiplicity m."""
    normals = [normalize_form(f) for f in forms]
    d = len(normals)
    roots = {Fraction(-k, d) for k in range(3, 2 * d - 2)}
    for m in intersection_multiplicities(normals).values():
        roots.update(Fraction(-i, m) for i in range(2, 2 * m - 1))
    return roots


# -- weighted polynomials ------------------------------------------------------


def poincare_coefficients(weights, degree):
    """Coefficients of prod_i (1 - t^(d - w_i)) / (1 - t^(w_i)) for integer
    weights dividing d: the Milnor algebra dimension in each degree of an
    isolated quasi-homogeneous singularity."""
    table = {0: 1}
    for w in weights:
        if degree % w:
            raise ValueError("weight %d does not divide degree %d" % (w, degree))
        steps = degree // w - 1
        nxt = {}
        for t, c in table.items():
            for j in range(steps):
                nxt[t + j * w] = nxt.get(t + j * w, 0) + c
        table = nxt
    return table


def _fractions(items):
    return sorted(Fraction(s) for s in items)


def _table(report_table):
    return {Fraction(q): dim for q, dim in report_table.items()}


def _shifted(support, weight_sum, degree, offset=0):
    return sorted(Fraction(-(t + weight_sum), degree) + offset
                  for t in support)


def _symmetry_problems(h0, centre):
    bad = [q for q, dim in h0.items() if h0.get(centre - q, 0) != dim]
    if bad:
        return ["h0 not symmetric about %s at %s" % (centre, bad[0])]
    return []


def check_isolated(spec, report):
    weights = spec["weights"]
    d = spec["degree"]
    sw = sum(weights)
    expected = poincare_coefficients(weights, d)
    support = sorted(expected)
    problems = []
    if Fraction(report["wdeg"]) != d:
        problems.append("wdeg %s != %d" % (report["wdeg"], d))
    if spec["command"] == "roots isolated":
        if report["is_isolated"] is not True:
            problems.append("not reported isolated")
        want = sorted(set(_shifted(support, sw, d)) | {Fraction(-1)})
        if _fractions(report["roots"]) != want:
            problems.append("roots differ from the closed form")
        return problems
    mu = 1
    for w in weights:
        mu *= d // w - 1
    if report.get("milnor_number") != mu:
        problems.append("milnor_number %s != %d"
                        % (report.get("milnor_number"), mu))
    table = report["milnor_algebra_degrees"]
    if not isinstance(table, dict) or _table(table) != expected:
        problems.append("Milnor algebra degrees differ from the Poincare "
                        "polynomial")
    if _table(report["h0"]) != expected:
        problems.append("h0 differs from the Milnor algebra degrees")
    if _fractions(report["new_roots"]) != _shifted(support, sw, d):
        problems.append("new_roots differ from the closed form")
    blf = sorted(Fraction(-t + 2 * d - sw, d) for t in support)
    if _fractions(report["blf_roots"]) != blf:
        problems.append("blf_roots differ from the closed form")
    return problems


def check_lqh(spec, report):
    weights = [Fraction(w) for w in spec["weights"]]
    d = sum(e * w for e, w in zip(spec["monomial"], weights))
    sw = sum(weights)
    problems = []
    if Fraction(report["wdeg"]) != d:
        problems.append("wdeg %s != %s" % (report["wdeg"], d))
    h0 = _table(report["h0"])
    problems += _symmetry_problems(h0, 3 * d - 2 * sw)
    support = sorted(h0)
    new = _shifted(support, sw, d)
    if _fractions(report["new_roots"]) != new:
        problems.append("new_roots do not follow h0")
    blf = sorted(Fraction(-t + 2 * d - sw, d) for t in support)
    if _fractions(report["blf_roots"]) != blf:
        problems.append("blf_roots do not follow h0")
    small = [r for r in new if -3 < r <= -2]
    if _fractions(report["small_roots"]) != small:
        problems.append("small_roots != new_roots in (-3,-2]")
    xi = sorted(set(new) | set(_shifted(support, sw, d, 1)))
    if _fractions(report["xi_set"]) != xi:
        problems.append("xi_set does not follow h0")
    if "lct_lambda" in spec:
        lam = Fraction(spec["lct_lambda"])
        holds = -(lam - 2) * d - sw not in h0
        if report.get("tlct_holds") is not holds:
            problems.append("tlct_holds %s != %s"
                            % (report.get("tlct_holds"), holds))
    return problems


def check_arrangement(spec, report, oracles):
    forms = spec["forms"]
    d = len(forms)
    problems = []
    if report["degree"] != d:
        problems.append("degree %s != %d" % (report["degree"], d))
    comb = sorted(comb_roots(forms))
    if _fractions(report["comb_roots"]) != comb:
        problems.append("comb_roots differ from the intersection count")
    normals = [normalize_form(f) for f in forms]
    mults = sorted(intersection_multiplicities(normals).values())
    reported = sorted(int(p.rsplit(" ", 1)[1])
                      for p in report["singular_points"])
    if reported != mults:
        problems.append("singular point multiplicities differ")
    if report["conditions_consistent"] is not True:
        problems.append("six conditions inconsistent")
    present = report["non_comb_present"]
    if set(report["conditions"].values()) != {present}:
        problems.append("condition flags disagree with non_comb_present")
    h0 = _table(report["h0"])
    problems += _symmetry_problems(h0, Fraction(3 * d - 6))
    if (h0.get(Fraction(d - 1), 0) > 0) is not present:
        problems.append("non_comb_present disagrees with h0 at d-1")
    non_comb = Fraction(-2 * d + 2, d)
    if Fraction(report["non_comb_root"]) != non_comb:
        problems.append("non_comb_root != (-2d+2)/d")
    full = set(comb) | ({non_comb} if present else set())
    if _fractions(report["full_zero_set"]) != sorted(full):
        problems.append("full_zero_set != comb_roots + non_comb_root")
    problems += _oracle_problems(spec.get("oracle"), report, h0, oracles)
    return problems


def _oracle_problems(name, report, h0, oracles):
    """Frozen values for the fixed members (tests/oracles.py)."""
    if name is None:
        return []
    problems = []
    full = set(_fractions(report["full_zero_set"]))
    if name.startswith("generic"):
        if full != set(oracles.walther_generic_set(report["degree"])):
            problems.append("%s: full zero set differs from the generic "
                            "closed form" % name)
    elif name in ("ziegler_f", "ziegler_g"):
        tag = name[-1].upper()
        if h0 != {Fraction(k): v
                  for k, v in getattr(oracles, "H0_" + tag).items()}:
            problems.append("%s: h0 differs from the frozen oracle" % name)
        if report["witness_dims"] != getattr(oracles,
                                             "ZIEGLER_WITNESS_" + tag):
            problems.append("%s: witness dims differ" % name)
        if full != set(getattr(oracles, "FULL_" + tag)):
            problems.append("%s: full zero set differs" % name)
    return problems


def check_screening(spec, verdict):
    want = arrangement_verdict(spec["forms"])
    got = verdict.split(":", 1)[0]
    if got != want:
        return ["verdict %r, expected %r" % (got, want)]
    if want == "valid":
        normals = [normalize_form(f) for f in spec["forms"]]
        if verdict != "valid: " + repr(normals):
            return ["validated forms differ from the normalized input"]
    return []


# -- text reports --------------------------------------------------------------


LIST_KEYS = {"roots", "new_roots", "blf_roots", "small_roots", "xi_set",
             "upsilon", "comb_roots", "full_zero_set", "forms",
             "singular_points", "assertions"}
DICT_KEYS = {"h0", "milnor_algebra_degrees", "conditions", "witness_dims"}
_INDEXED = re.compile(r"(\w+)\[\d+\]")


def _scalar(text):
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        return text


def parse_text_report(text):
    """Read back the CLI's default text report (`render_text`)."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        indexed = _INDEXED.fullmatch(key)
        head, dot, sub = key.partition(".")
        if indexed:
            out.setdefault(indexed.group(1), []).append(_scalar(value))
        elif head in DICT_KEYS:
            table = out.setdefault(head, {})
            if dot:
                table[sub] = _scalar(value)
            elif value != "(none)":
                out[head] = _scalar(value)
        elif key in LIST_KEYS:
            out[key] = ([] if value == "(none)"
                        else [_scalar(v) for v in value.split(", ")])
        else:
            out[key] = _scalar(value)
    return out


def digest(text):
    """Short SHA-256 of a report without its wall-clock line."""
    kept = "\n".join(line for line in text.splitlines()
                     if not line.startswith("timing_ms:"))
    return hashlib.sha256(kept.encode()).hexdigest()[:16]
