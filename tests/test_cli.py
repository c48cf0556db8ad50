"""Command line behavior: reports, formats, exit codes, determinism."""

import hashlib
import json
from fractions import Fraction

import pytest

import oracles
from bs3 import cli, milnor
from bs3.cli import main
from bs3.polyring import ParseError, PreconditionError, WeightSystem
from test_budget import LQH_COLON, LQH_STANDARD


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(text):
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith('"timing_ms"')
                     and not line.startswith("timing_ms:")
                     and '"timing_ms"' not in line)


def test_milnor_fermat_cubic(capsys):
    code, out, _ = run(capsys, "milnor", "--poly", "x^3+y^3+z^3")
    assert code == 0
    assert "h0.0: 1" in out and "h0.3: 1" in out
    assert "blf_roots: 0, 1/3, 2/3, 1" in out
    assert "milnor_number: 8" in out


def test_milnor_weighted_nonisolated(capsys):
    code, out, _ = run(capsys, "milnor", "--poly", "x^2+y^3",
                       "--weights", "3,2,1")
    assert code == 0
    assert "wdeg: 6" in out
    assert "is_isolated: false" in out
    assert "milnor_algebra_degrees: infinite" in out


def test_roots_isolated_quadric(capsys):
    code, out, _ = run(capsys, "roots", "isolated",
                       "--poly", "x^2+y^2+z^2")
    assert code == 0
    assert "roots: -3/2, -1" in out


def test_roots_lqh_with_lct(capsys):
    code, out, _ = run(capsys, "roots", "lqh", "--poly", "x^3+y^3+z^3",
                       "--lct-lambda", "0")
    assert code == 0
    assert "new_roots: -2, -5/3, -4/3, -1" in out
    assert "tlct_holds: false" in out
    assert "tau: 0" in out


def test_arrangement_generic4(capsys):
    code, out, _ = run(capsys, "arrangement", "--forms", "x,y,z,x+y+z")
    assert code == 0
    assert "full_zero_set: -3/2, -5/4, -1, -3/4" in out
    assert "non_comb_present: true" in out
    assert "conditions_consistent: true" in out


def test_parse_error_exits_1(capsys):
    code, _, err = run(capsys, "milnor", "--poly", "x^3+ +y")
    assert code == 1
    assert "parse error" in err


def test_usage_error_exits_1(capsys):
    code, _, err = run(capsys, "bogus")
    assert code == 1
    assert "usage error" in err


def test_precondition_exits_2(capsys):
    code, _, err = run(capsys, "roots", "isolated", "--poly", "x*y*z")
    assert code == 2
    assert "precondition" in err


@pytest.mark.parametrize("weights, shown", [
    ((), "1,1,1"), (("--weights", "1/2,1,3"), "1/2,1,3")])
def test_weights_refused_print_as_rationals(capsys, weights, shown):
    code, out, err = run(capsys, "milnor", "--poly", "x^3+y^2+z", *weights)
    assert (code, out) == (2, "")
    assert err == ("precondition violated: polynomial is not "
                   "quasi-homogeneous for weights %s\n" % shown)


@pytest.mark.parametrize("argv", [
    ("roots", "lqh", "--poly", "x^2*y*z"),
    ("milnor", "--poly", "x^2*y*z"),
    ("milnor", "--poly", "x^2*y^3", "--weights", "1/2,1/3,1"),
    ("roots", "isolated", "--poly", "x^2*y*z"),
], ids=["lqh", "milnor", "milnor_weighted", "isolated"])
def test_non_reduced_f_exits_2_before_saturation(capsys, monkeypatch, argv):
    # dim R/J = 2: x divides every leading monomial of in(J)
    saturations = []
    monkeypatch.setattr(milnor, "h0_degree_data",
                        lambda *args: saturations.append(args))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ("precondition violated: not reduced: dim R/J = 2, so f "
                   "has a repeated factor\n")
    assert saturations == []


def test_invalid_arrangement_exits_2(capsys):
    code, _, err = run(capsys, "arrangement", "--forms", "x,y,z")
    assert code == 2
    assert "decomposable" in err


@pytest.mark.parametrize("forms, code, message", [
    ("x,y,x+y", 2,
     "precondition violated: not essential: normals span rank 2 < 3"),
    ("x,x,y,z", 2, "precondition violated: not reduced: duplicate form x"),
    ("x,y,z^2", 2,
     "precondition violated: 'z^2' is not a homogeneous linear form"),
    # a parse error's position is its offset in the --forms value
    ("x,y,+", 1, "parse error: unexpected '+' (at position 4)"),
    ("x,y,z,x+y+", 1, "parse error: expected a term (at position 10)"),
])
def test_bad_forms_keep_their_exit_code_and_message(capsys, forms, code,
                                                    message):
    got, out, err = run(capsys, "arrangement", "--forms", forms)
    assert (got, out, err) == (code, "", message + "\n")


@pytest.mark.parametrize("argv", [
    ("milnor", "--poly", "x^\u00b2"),
    ("milnor", "--poly", "\u00b2x"),
    ("milnor", "--poly", "x^" + "9" * 5000),
    ("arrangement", "--forms", "x,y,z," + "7" * 5000 + "x+y+z"),
], ids=["superscript_exponent", "superscript_coefficient", "long_exponent",
        "long_coefficient"])
def test_digits_int_cannot_read_exit_1(capsys, argv):
    # a digit str.isdigit admits but int() rejects (SUPERSCRIPT TWO), and
    # literals past int()'s 4300-digit limit
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("parse error:")
    assert "Traceback" not in err


def test_negative_step_cap_is_a_usage_error(capsys):
    argv = ("milnor", "--poly", "x^3+y^3+z^3", "--step-cap")
    code, out, err = run(capsys, *argv, "-5")
    assert (code, out) == (1, "")
    assert err == "usage error: argument --step-cap: must be at least 0, " \
        "got -5\n"
    # a cap of 0 is allowed, and the request's first step passes it
    code, out, err = run(capsys, *argv, "0")
    assert (code, out) == (3, "")
    assert err.startswith("resource limit:")


@pytest.mark.parametrize("argv, option, value, code", [
    (("roots", "lqh", "--poly", "x*y*z"), "--lct-lambda", "-1/2", 0),
    (("milnor",), "--poly", "-x^3-y^3-z^3", 0),
    (("arrangement",), "--forms", "-x,y,z,x+y+z", 0),
    (("milnor", "--poly", "x^2+y+z"), "--weights", "-1,1,1", 2),
], ids=["lct-lambda", "poly", "forms", "weights"])
def test_a_spaced_value_starting_with_minus_reads_as_its_equals_form(
        capsys, argv, option, value, code):
    got, out, err = run(capsys, *argv, option, value)
    want = run(capsys, *argv, "%s=%s" % (option, value))
    assert got == want[0] == code, err
    assert (strip_timing(out), err) == (strip_timing(want[1]), want[2])


@pytest.mark.parametrize("argv, prefix, option, value", [
    (("roots", "lqh", "--poly", "x*y*z"), "--lct", "--lct-lambda", "-1/2"),
    (("milnor",), "--po", "--poly", "-x^3-y^3-z^3"),
    (("arrangement",), "--for", "--forms", "-x,y,z,x+y+z"),
], ids=["lct", "po", "for-ambiguous"])
def test_an_abbreviated_option_joins_its_spaced_value(capsys, argv, prefix,
                                                      option, value):
    # argparse resolves a unique prefix of an option; --for could be
    # --forms or --format, and stays the usage error argparse makes of it
    got, out, err = run(capsys, *argv, prefix, value)
    if prefix == "--for":
        assert (got, out) == (1, "")
        assert err == ("usage error: ambiguous option: --for could match "
                       "--forms, --format\n")
        return
    want = run(capsys, *argv, "%s=%s" % (option, value))
    assert got == want[0] == 0, err
    assert (strip_timing(out), err) == (strip_timing(want[1]), want[2])


@pytest.mark.parametrize("weights", ["0.5,1,1", "2/4,1,1"])
def test_weights_field_prints_the_parsed_weights(capsys, weights):
    for command in (("milnor",), ("roots", "lqh")):
        argv = command + ("--poly", "x^2+y+z", "--weights", weights)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert "\nweights: 1/2,1,1\n" in out
        code, out, err = run(capsys, *argv, "--format", "json")
        assert json.loads(out)["weights"] == "1/2,1,1"


# one weight each, read in the first and in the last place, then whole
# values: each part is read by Fraction, whitespace around it included
WEIGHT_TABLE = ["3", " 3 ", "+3", "1_0", "2/4", "0.5", "1e1", "\u0661", "-1",
                "0", "1/0", "nan", "a", "007", "0/5", "6/4", "3/", "/3",
                "1 /2", "9" * 5000]
WEIGHT_VALUES = ([v + ",1,2" for v in WEIGHT_TABLE]
                 + ["1,2," + v for v in WEIGHT_TABLE]
                 + ["1,2", "1,2,3,4", "1/2,1/3,1/6", "4/6,10/15,1"])


@pytest.mark.parametrize("text", WEIGHT_VALUES, ids=lambda v: (
    v if len(v) < 20 else "%s...(%d characters)" % (v[:8], len(v))))
def test_weights_read_as_fraction_reads_them(capsys, text):
    try:
        want = oracles.weights_by_fractions(text)
    except (ParseError, PreconditionError) as exc:
        with pytest.raises(type(exc)) as got:
            cli._parse_weights(text)
        assert str(got.value) == str(exc)
        # the request exits with the code and message of that error
        code, out, err = run(capsys, "milnor", "--poly", "x^2+y^2+z^2",
                             "--weights", text)
        prefix = ("parse error" if isinstance(exc, ParseError)
                  else "precondition violated")
        assert (code, out) == (1 if isinstance(exc, ParseError) else 2, "")
        assert err == "%s: %s\n" % (prefix, exc)
        return
    w = cli._parse_weights(text)
    assert (w.scaled, w.denominator, str(w), repr(w)) == (
        want.scaled, want.denominator, str(want), repr(want))


def test_weight_system_reads_each_weight_by_fraction():
    # one constructor: ints, Fractions and texts alike, as --weights reads
    # them, each shown by its str
    for w in (WeightSystem(("1/2", " 3 ", Fraction(2))),
              cli._parse_weights("1/2, 3 ,2")):
        assert (w.scaled, w.denominator, str(w), repr(w)) == (
            (1, 6, 4), 2, "1/2,3,2", "WeightSystem(1/2,3,2)")
    for weights in (("1/2", 0, 1), (1, "-1/3", 1), (Fraction(-1), 1, 1)):
        with pytest.raises(PreconditionError, match="must be positive"):
            WeightSystem(weights)


def test_step_cap_exits_3(capsys):
    code, _, err = run(capsys, "arrangement", "--step-cap", "50",
                       "--forms", "x,y,z,x+y+z,x+2y+3z")
    assert code == 3
    assert "resource limit" in err


def test_text_report_is_deterministic(capsys):
    argv = ("roots", "lqh", "--poly", "x^4+y^4+z^4")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert strip_timing(first) == strip_timing(second)


def test_json_mirrors_text_fields(capsys):
    argv = ("milnor", "--poly", "x^3+y^3+z^3")
    _, text, _ = run(capsys, *argv)
    code, raw, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    data = json.loads(raw)
    assert data["h0"] == {"0": 1, "1": 3, "2": 3, "3": 1}
    assert data["blf_roots"] == ["0", "1/3", "2/3", "1"]
    assert data["is_isolated"] is True
    text_keys = {line.split(".")[0].split(":")[0].split("[")[0]
                 for line in text.splitlines()}
    assert text_keys == set(data.keys())


def test_exponent_past_the_packed_bound_exits_3(capsys):
    for command in (("milnor",), ("roots", "isolated"), ("roots", "lqh")):
        code, out, err = run(capsys, *command, "--poly",
                             "x^40000+y^40000+z^40000")
        assert code == 3
        assert out == ""
        assert err == ("resource limit: exponents too large: a monomial of "
                       "total degree above 32767\n")


# sha256 of the report on x^32768 + y^32768 + z^32768 without its
# timing_ms line: 1.3 MB of roots, the same before and after the Jacobian
# was taken on packed monomials
FERMAT_32768 = ("b3d94cf4fa1266288f70cea0220fddfb"
                "eaa68b6bdd853b3bc5fe58037c0a5f77")


def test_a_term_one_degree_past_the_bound_still_answers(capsys):
    # f's terms have degree MAX_DEGREE + 1 and its partials MAX_DEGREE, so
    # the request answers as it did when the partials were Polynomials
    code, out, err = run(capsys, "roots", "isolated", "--poly",
                         "x^32768+y^32768+z^32768")
    assert code == 0 and err == ""
    body = "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith("timing_ms:"))
    assert hashlib.sha256(body.encode()).hexdigest() == FERMAT_32768


def test_arrangement_request_builds_the_lattice_once(capsys, monkeypatch):
    from bs3 import arrangement
    calls = []

    def spy(forms):
        calls.append(forms)
        return lattice(forms)

    lattice = arrangement._lattice
    monkeypatch.setattr(arrangement, "_lattice", spy)
    code, _, _ = run(capsys, "arrangement", "--forms",
                     "x,y,z,x+y+z,x+2y+3z")
    assert code == 0
    assert len(calls) == 1


def test_arrangement_request_moves_no_basis_back(capsys, monkeypatch):
    # one Buchberger run on the Jacobian, built in the coordinates where
    # the certified line is z and kept as the one minimal basis, whose
    # leading monomials are read there; it is not interreduced, so every
    # reduction is of an S-polynomial just formed
    from bs3 import groebner
    runs, kept, formed, reduced = [], [], [], []
    int_run, keep = groebner._buchberger_int, groebner.GroebnerBasis.__init__
    s_poly, reduce = groebner._s_poly_int, groebner._reduce

    def spy_run(*args):
        runs.append(len(args[0]))
        return int_run(*args)

    def spy_keep(self, *args):
        kept.append(args[0])
        keep(self, *args)

    def spy_s_poly(*args):
        formed.append(args)
        return s_poly(*args)

    def spy_reduce(*args):
        reduced.append(args)
        return reduce(*args)

    monkeypatch.setattr(groebner, "_buchberger_int", spy_run)
    monkeypatch.setattr(groebner.GroebnerBasis, "__init__", spy_keep)
    monkeypatch.setattr(groebner, "_s_poly_int", spy_s_poly)
    monkeypatch.setattr(groebner, "_reduce", spy_reduce)
    code, out, _ = run(capsys, "arrangement", "--forms", oracles.ZIEGLER_F)
    assert code == 0 and "non_comb_present: true" in out
    assert len(runs) == 1
    assert len(kept) == 1
    assert formed and len(reduced) == len(formed)


def test_weighted_colon_costs_one_buchberger_run(capsys, monkeypatch):
    # one Buchberger run on the Jacobian and one block basis per computed
    # colon, whose t-free leading monomials are read off it; no basis is
    # turned into Fraction polynomials, and (I, t*l_c - 1) is packed
    # straight from the generators, with no four-variable polynomial
    from bs3 import groebner
    from bs3.polyring import Polynomial
    runs, colons, built, arities = [], [], [], []
    init = Polynomial.__init__
    int_run, colon = groebner._buchberger_int, groebner._weighted_colon
    to_poly = groebner._from_int_poly

    def spy_run(*args):
        runs.append(len(args[0]))
        return int_run(*args)

    def spy_colon(ideal, weights, c):
        colons.append(c)
        return colon(ideal, weights, c)

    def spy_poly(*args):
        built.append(args)
        return to_poly(*args)

    def spy_init(self, terms, variable_count):
        arities.append(variable_count)
        init(self, terms, variable_count)

    monkeypatch.setattr(groebner, "_buchberger_int", spy_run)
    monkeypatch.setattr(groebner, "_weighted_colon", spy_colon)
    monkeypatch.setattr(groebner, "_from_int_poly", spy_poly)
    monkeypatch.setattr(Polynomial, "__init__", spy_init)
    code, out, _ = run(capsys, "roots", "lqh", "--poly",
                       "x^6*y*z+2*x*y^3*z+3*x*y*z^3",
                       "--weights", "1/5,1/2,1/2")
    assert code == 0 and "h0.17/10: 2" in out
    # under weights other than (1, 1, 1) the loop starts at c = 1, and the
    # colon by z^2 + x^5 + y^2 is certified
    assert colons == [1]
    assert len(runs) == 1 + len(colons)
    assert built == []
    assert arities and 4 not in arities


def test_every_weighted_colon_is_by_the_moment_form(capsys, monkeypatch):
    # under (1, 2, 2) the block run of the colon packs t*l_c - 1 after the
    # generators, l_c = z + c*x^2 + c^2*y, for the first c >= 1 whose colon
    # is the saturation: under weights other than (1, 1, 1) no colon by a
    # power of z is computed
    from bs3 import groebner
    from bs3.polyring import parse_polynomial
    from test_groebner import weighted_colon
    forms = []
    int_run = groebner._buchberger_int

    def spy_run(triples, pk, *args):
        if pk.n == 4:
            forms.append({pk.unpack(m): v for m, v in triples[-1][2].items()})
        return int_run(triples, pk, *args)

    monkeypatch.setattr(groebner, "_buchberger_int", spy_run)
    code, _, _ = run(capsys, *LQH_COLON)
    assert code == 0
    monkeypatch.undo()
    jac = milnor.jacobian_ideal(parse_polynomial(LQH_COLON[3]))
    expect = groebner.buchberger(oracles.saturation_by_columns(jac))
    # the first c >= 1 whose colon is the saturation, over 1 <= c <= 2e + 1,
    # where some c passes
    e = groebner.buchberger(jac).tail[1]
    reduced = oracles.reduced_basis(expect)
    c = next(k for k in range(1, 2 * e + 2) if oracles.reduced_basis(
        weighted_colon(jac, (1, 2, 2), k)) == reduced)
    assert c == 1
    assert forms == [{(0, 0, 0, 0): -1, (1, 0, 0, 1): 1, (1, 2, 0, 0): c,
                      (1, 0, 1, 0): c * c}]
    assert groebner.saturated_leading_monomials(jac, (1, 2, 2)) == (
        c, expect.leading_monomials)


def test_h0_under_weights_other_than_the_standard_ones(capsys):
    # the Jacobian (y*z, x*z + 3*y^2, x*y) is homogeneous under (1, 1, 1)
    # and under (1, 2, 3); H0 is read under the grading asked for
    code, out, _ = run(capsys, "roots", "lqh", "--poly", "x*y*z+y^3",
                       "--weights", "1,2,3")
    assert code == 0
    assert [line for line in out.splitlines()
            if line.startswith("h0")] == ["h0.2: 1", "h0.4: 1"]


def test_json_is_deterministic(capsys):
    argv = ("arrangement", "--forms", "x,y,z,x+y+z", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert strip_timing(first) == strip_timing(second)


def test_failed_saturation_certificate_exits_4(capsys, monkeypatch):
    # every certificate refused: the colon by z, read off the boxes of
    # in(J), and each colon c >= 1, walked against in(J)
    from bs3 import groebner
    monkeypatch.setattr(groebner, "_z_colon_excess", lambda boxes: None)
    monkeypatch.setattr(groebner, "_saturation_excess",
                        lambda lms_i, lms_j: None)
    code, out, err = run(capsys, "arrangement", "--forms", "x,y,z,x+y+z")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:") and "Hilbert polynomial" in err
    # the six double points allow 2 * 6 + 1 values of c, from c = 0
    assert "with 0 <= c <= 12 " in err
    assert "Traceback" not in err


def test_failed_weighted_certificate_exits_4(capsys, monkeypatch):
    # in(J) is not saturated (H0 lives in degrees 1-4), so the loop runs
    # the colons by z + c*x^2 + c^2*y, and with every certificate failing
    # ends in exit 4, naming the values tried: V(J) has at most 2 points,
    # and under these weights c runs from 1 to 2 * 2 + 1
    from bs3 import groebner
    monkeypatch.setattr(groebner, "_saturation_excess",
                        lambda lms_i, lms_j: None)
    code, out, err = run(capsys, "roots", "lqh", "--poly",
                         "2*x^5+2*x^3*y+3*x^3*z+2*x*y*z",
                         "--weights", "1,2,2")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:") and "Hilbert polynomial" in err
    assert "with 1 <= c <= 5 " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, first", [(LQH_COLON, 1), (LQH_STANDARD, 0)],
                         ids=["weighted", "standard"])
def test_colon_loop_reads_its_bound_once_c_passes_its_first_three(
        capsys, monkeypatch, argv, first):
    # the certificate refuses the first k colons: c = 0 read off the boxes
    # of in(J), and each c >= 1 walked against in(J).  Under other weights
    # the walk that fills the tail of in(J), whose e bounds the loop by
    # c <= first + 2e, runs only when c reaches first + 3; under (1, 1, 1)
    # the colon by z reads its boxes, so it runs once, before any colon.
    # A refused colon leaves the report as it was
    from bs3 import groebner
    from bs3.polyring import parse_polynomial
    excess, by_z = groebner._saturation_excess, groebner._z_colon_excess
    walk = groebner._staircase
    _, want, _ = run(capsys, *argv)
    jac = milnor.jacobian_ideal(parse_polynomial(argv[3]))
    e = groebner.buchberger(jac).tail[1]
    for k in (0, 1, 2, 3, 4, None):
        events = []

        def refused():
            events.append("colon")
            return k is None or events.count("colon") <= k

        def refuse(lms_i, lms_j):
            return None if refused() else excess(lms_i, lms_j)

        def refuse_z(boxes):
            return None if refused() else by_z(boxes)

        def spy(*args):
            events.append("engine")
            return walk(*args)

        monkeypatch.setattr(groebner, "_saturation_excess", refuse)
        monkeypatch.setattr(groebner, "_z_colon_excess", refuse_z)
        monkeypatch.setattr(groebner, "_staircase", spy)
        code, out, err = run(capsys, *argv)
        monkeypatch.undo()
        colons = events.count("colon")
        walks = 1 if first == 0 or colons > 3 else 0
        assert events.count("engine") == walks, k
        if first == 0:
            assert events.index("engine") == 0, k
        elif colons > 3:
            assert events.index("engine") == 3, k
        if k is None:
            # every colon refused: the loop tries first, ..., first + 2e
            assert code == 4 and out == ""
            assert colons == 2 * e + 1
            assert "with %d <= c <= %d " % (first, first + 2 * e) in err
        else:
            assert code == 0 and colons > k
            assert strip_timing(out) == strip_timing(want), k


def test_lct_lambda_is_checked_before_any_basis(capsys, monkeypatch):
    # lambda is read before the polynomial: no basis is computed, and a
    # request with a bad polynomial and a bad lambda reports the lambda
    from bs3 import groebner
    runs = []
    monkeypatch.setattr(groebner, "_buchberger_int",
                        lambda *args: runs.append(args))
    lqh = ("roots", "lqh", "--poly", "x^6*y*z+2*x*y^3*z+3*x*y*z^3",
           "--weights", "1/5,1/2,1/2")
    for poly in lqh[3], "x*y*z+":
        argv = lqh[:3] + (poly,) + lqh[4:]
        code, out, err = run(capsys, *argv, "--lct-lambda", "1/2")
        assert (code, out) == (2, "")
        assert err == ("precondition violated: twisted comparison test "
                       "needs lambda <= 0\n")
        for bad in ("1/x", "1/0"):
            code, out, err = run(capsys, *argv, "--lct-lambda", bad)
            assert (code, out) == (1, "")
            assert err.startswith("parse error: malformed rational")
    assert runs == []


def test_disagreeing_conditions_exit_4(capsys, monkeypatch):
    from bs3 import arrangement
    monkeypatch.setattr(arrangement, "is_formal", lambda arr: True)
    code, _, err = run(capsys, "arrangement", "--forms", "x,y,z,x+y+z")
    assert code == 4
    assert err.startswith("internal error:") and "disagree" in err
    assert "Traceback" not in err


def test_milnor_of_a_smooth_linear_form(capsys):
    # the unit Jacobian ideal has finite length but no singular point
    code, out, _ = run(capsys, "milnor", "--poly", "x")
    assert code == 0
    assert strip_timing(out) == "\n".join([
        "command: milnor",
        "poly: x",
        "weights: 1,1,1",
        "wdeg: 1",
        "is_isolated: false",
        "h0: (none)",
        "milnor_algebra_degrees: infinite",
        "new_roots: (none)",
        "blf_roots: (none)",
        "assertions[0]: reduced: asserted by caller, not verified",
        "assertions[1]: locally quasi-homogeneous: asserted by caller, "
        "not verified",
    ])


def test_reports_match_the_frozen_text(capsys):
    for argv, lines in oracles.GOLDEN_REPORTS:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert strip_timing(out) == "\n".join(lines), argv


def wrong_colon(monkeypatch, lms):
    """Pass the leading monomials lms off as the colon by x + y + z, the
    first the saturation computes under standard weights once the colon by
    z, read off the boxes of in(J), is refused, and send the Artinian
    Fermat cubic's Jacobian down the colon route, so the certificate's pass
    reads them against in(J) = (x^2, y^2, z^2), which is not saturated."""
    from bs3 import groebner
    monkeypatch.setattr(groebner, "_is_artinian", lambda lms: False)
    monkeypatch.setattr(groebner, "_z_colon_excess", lambda boxes: None)
    monkeypatch.setattr(groebner, "_weighted_colon",
                        lambda ideal, weights, c: lms)


def test_saturation_smaller_than_the_ideal_exits_4(capsys, monkeypatch):
    wrong_colon(monkeypatch, ((2, 0, 0),))
    code, out, err = run(capsys, "milnor", "--poly", "x^3+y^3+z^3")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:") and "saturation smaller" in err
    assert "Traceback" not in err


def test_saturation_missing_a_monomial_of_the_ideal_exits_4(capsys,
                                                            monkeypatch):
    # (x, y, z^3) misses z^2 of in(J) = (x^2, y^2, z^2), though R/(x, y, z^3)
    # is no larger in any degree: a degreewise difference would read a
    # nonnegative H0, the pass finds the monomial
    wrong_colon(monkeypatch, ((0, 0, 3), (0, 1, 0), (1, 0, 0)))
    code, out, err = run(capsys, "milnor", "--poly", "x^3+y^3+z^3")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:") and "saturation smaller" in err
    assert "x^0*y^0*z^2 lies in in(I) only" in err
    assert "Traceback" not in err


def test_hilbert_value_above_its_limit_exits_4(capsys, monkeypatch):
    # an unsaturated ideal passed off as its saturation: the quartic cone's
    # Jacobian has one section at the origin in degree 3, so its Hilbert
    # function reaches 7 there against the limit 6
    from bs3 import graded
    from bs3.groebner import buchberger
    monkeypatch.setattr(graded, "_saturate",
                        lambda I, w: (0, buchberger(I).leading_monomials, ()))
    code, out, err = run(capsys, "arrangement", "--forms", "x,y,z,x+y+z")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:") and "stable limit" in err
    assert "Traceback" not in err


def test_asymmetric_h0_of_a_reduced_non_isolated_f_exits_4(capsys,
                                                           monkeypatch):
    # the four lines xyz(x + y + z): H0 is self-dual about 3*4 - 6 = 6,
    # in milnor_profile and in the arrangement conditions alike; here the
    # degrees pair up but their dimensions do not
    from bs3 import arrangement, milnor
    from bs3.graded import RegularityReport
    skewed = oracles.degree_data({2: 1, 4: 2})
    monkeypatch.setattr(milnor, "h0_degree_data", lambda I, w: skewed)
    monkeypatch.setattr(arrangement, "regularity_report",
                        lambda I: RegularityReport(None, None, 0, 1, skewed))
    for argv in (("roots", "lqh", "--poly", "x^2*y*z+x*y^2*z+x*y*z^2"),
                 ("arrangement", "--forms", "x,y,z,x+y+z")):
        code, out, err = run(capsys, *argv)
        assert code == 4, argv
        assert out == ""
        assert err.startswith("internal error:") and "symmetric" in err
        assert "Traceback" not in err


def test_asymmetric_milnor_algebra_exits_4(capsys, monkeypatch):
    from bs3 import milnor
    monkeypatch.setattr(milnor, "h0_degree_data",
                        lambda I, w: oracles.degree_data({0: 1, 1: 3}))
    code, out, err = run(capsys, "roots", "isolated", "--poly", "x^3+y^3+z^3")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:") and "symmetric" in err
    assert "Traceback" not in err


def test_weighted_isolated_request_keeps_degrees_and_roots_as_ints(
        capsys, monkeypatch):
    # a Brieskorn-Pham sum whose Milnor algebra has 233 degrees on the
    # grid 1/120: degrees and roots are ints over one denominator, so
    # neither is hashed or ordered as a Fraction
    calls = {"__hash__": 0, "__lt__": 0}
    for name in calls:
        method = getattr(Fraction, name)

        def counted(*args, _name=name, _method=method):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(Fraction, name, counted)
    code, out, _ = run(capsys, "roots", "isolated", "--poly",
                       "x^8+y^10+z^12", "--weights", "1/8,1/10,1/12")
    assert code == 0 and "roots: -323/120, " in out
    assert calls["__hash__"] < 50 and calls["__lt__"] < 50, calls


def test_tlct_on_and_off_the_degree_grid(capsys):
    # H0 has degrees 3 and 14/5 (among others) on the grid 1/60 of the
    # weights; -13/107 and -1/107 map to them, -1/7 maps off the grid
    argv = ("roots", "lqh", "--poly", "x^6*y*z+3*x*y^5*z+7*x*y*z^4",
            "--weights", "1/5,1/4,1/3")
    for lam, holds in (("-13/107", "false"), ("-1/107", "false"),
                       ("-1/7", "true")):
        code, out, err = run(capsys, *argv, "--lct-lambda=" + lam)
        assert code == 0, err
        assert "tlct_lambda: %s\n" % lam in out
        assert "tlct_holds: %s\n" % holds in out


def test_root_lists_and_degree_tables_format_as_format_ratio():
    # the texts share one "/q" suffix per divisor gcd(n, D); each must read
    # as format_ratio(n, D) does, over negative n, n = 0, D = 1 and
    # multiples of D
    import random

    from bs3 import cli
    from bs3.bsroots import RootSet
    from bs3.graded import DegreeData
    from bs3.polyring import format_ratio
    rng = random.Random(4)
    for _ in range(500):
        D = rng.choice((1, 2, 6, 12, 30, 60, rng.randint(1, 10 ** 6)))
        ns = {rng.randint(-3 * D, 3 * D) for _ in range(rng.randint(0, 12))}
        ns |= {0, D, -D, 2 * D} if rng.random() < 0.5 else set()
        ns = sorted(ns)
        want = [format_ratio(n, D) for n in ns]
        assert cli._roots(RootSet._over(ns, D)) == want, (ns, D)
        scaled = {n: rng.randint(1, 9) for n in ns}
        assert cli._degree_table(DegreeData._over(D, scaled)) == dict(
            zip(want, scaled.values())), (ns, D)


def test_a_list_item_with_a_comma_prints_one_line_per_item():
    from bs3.cli import render_text
    report = {"points": ["(1:0:0) multiplicity 2", "(1,2)"],
              "roots": ["-1/2", "0"], "one": ["a,b"], "empty": [],
              "blank": [""], "h0": {"1/2": 3}, "none": {}}
    assert render_text(report).splitlines() == [
        "points[0]: (1:0:0) multiplicity 2", "points[1]: (1,2)",
        "roots: -1/2, 0", "one[0]: a,b", "empty: (none)", "blank: (none)",
        "h0.1/2: 3", "none: (none)"]
