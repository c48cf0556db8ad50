"""Command line front end.

Subcommands:
  bs3 milnor --poly P [--weights w1,w2,w3]
  bs3 roots isolated|lqh --poly P [--weights ...] [--lct-lambda p/q]
  bs3 arrangement --forms "l1,l2,..."

Reports are emitted as deterministic text (default) or JSON mirroring the
same fields; rationals print as reduced p/q strings.  Exit codes: 0 success,
1 parse or usage error, 2 mathematical precondition violated, 3 resource
limit exceeded, 4 internal error (the package caught an inconsistency in
its own results, such as a failed saturation certificate or disagreeing
arrangement conditions).

Each request runs inside one step budget (groebner.step_budget), so
--step-cap N bounds the whole request, every computation counted
together by the step model of groebner._Budget.  Every count is
deterministic: --step-cap N with N the steps a request spends returns
its report, and N - 1 ends it with exit 3.  The default is
DEFAULT_STEP_CAP (10 million); a negative cap is a usage error, exit 1.

A value of --poly, --forms, --weights or --lct-lambda may start with "-"
also when spaced from its option (--lct-lambda -1/2).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from math import gcd

from . import arrangement as arr_mod
from . import bsroots, milnor
from .groebner import ResourceLimitError, step_budget
from .milnor import INFINITE
from .polyring import (Bs3Error, ParseError, PreconditionError, WeightSystem,
                       format_ratio, format_rational, parse_polynomial)

GENERAL_ASSERTIONS = [
    "reduced: asserted by caller, not verified",
    "locally quasi-homogeneous: asserted by caller, not verified",
]
ARRANGEMENT_ASSERTIONS = [
    "reduced: verified (pairwise distinct normalized forms)",
    "central: by construction (homogeneous linear forms)",
    "essential, indecomposable: verified",
    "locally quasi-homogeneous: automatic for hyperplane arrangements",
]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _step_cap(text):
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if cap < 0:
        raise argparse.ArgumentTypeError("must be at least 0, got %d" % cap)
    return cap


_JOINED = ("--poly", "--forms", "--weights", "--lct-lambda")


def _join_values(argv):
    """argv with the value of each --poly, --forms, --weights and
    --lct-lambda joined to it by "=": argparse reads a spaced value that
    starts with "-" as an option unless it looks like a negative number.
    An option is read as argparse reads it among the options of the
    subcommand argv[0] names: by its full name, or as a prefix of exactly
    one of them."""
    parser = _COMMANDS.get(argv[0]) if argv else None
    names = [o for o in parser._option_string_actions if o.startswith("--")
             ] if parser else []

    def resolved(arg):
        if arg in names or not arg.startswith("--"):
            return arg
        hits = [o for o in names if o.startswith(arg)]
        return hits[0] if len(hits) == 1 else arg

    out = []
    for arg in argv:
        if out and resolved(out[-1]) in _JOINED:
            arg = out.pop() + "=" + arg
        out.append(arg)
    return out


def _build_parser():
    parser = _Parser(prog="bs3", description=(
        "Bernstein-Sato zero sets of quasi-homogeneous polynomials and "
        "line arrangements in three variables, over exact rationals."))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, poly=True):
        if poly:
            p.add_argument("--poly", required=True,
                           help="polynomial in x,y,z (aliases x1,x2,x3)")
            p.add_argument("--weights", default="1,1,1",
                           help="comma-separated positive rational weights")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--step-cap", type=_step_cap, default=None,
                       help="step cap for the whole request")

    p_milnor = sub.add_parser("milnor", help="Milnor/H0 degree data and the "
                              "b-function of the logarithmic module")
    common(p_milnor)

    p_roots = sub.add_parser("roots", help="Bernstein-Sato root sets")
    p_roots.add_argument("kind", choices=["isolated", "lqh"])
    common(p_roots)
    p_roots.add_argument("--lct-lambda", default=None, metavar="p/q",
                         help="evaluate the twisted comparison test at this "
                         "lambda <= 0")

    p_arr = sub.add_parser("arrangement", help="full zero set for a central "
                           "essential indecomposable arrangement")
    p_arr.add_argument("--forms", required=True,
                       help="comma-separated linear forms, e.g. x,y,z,x+y+z")
    common(p_arr, poly=False)
    return parser, sub.choices


_PARSER, _COMMANDS = _build_parser()


def _parse_weights(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError("expected three comma-separated weights", 0)
    try:
        return WeightSystem(parts)
    except (ValueError, ZeroDivisionError):
        raise ParseError("malformed weight in %r" % text, 0)


def _parse_rational(text):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError("malformed rational %r" % text, 0)


def _ratios(numerators, D):
    """format_ratio(n, D) for each int n, D > 0: str(n) when D = 1, and
    else n/D is (n/g)/(D/g) for g = gcd(n, D), so each text is str(n // g)
    and a "/q" suffix built once per divisor g, empty when g = D."""
    if D == 1:
        return list(map(str, numerators))
    gs = [gcd(n, D) for n in numerators]
    suffixes = {g: "/%d" % (D // g) for g in set(gs)}
    suffixes[D] = ""
    return [str(n // g) + suffixes[g] for n, g in zip(numerators, gs)]


def _roots(root_set):
    return _ratios(root_set.numerators, root_set.denominator)


def _degree_table(data):
    scaled = data.scaled
    return dict(zip(_ratios(scaled, data.denominator), scaled.values()))


def _profile_fields(prof):
    h0 = _degree_table(prof.h0)
    fields = {
        "wdeg": format_rational(prof.wdeg_f),
        "is_isolated": prof.is_isolated,
        "h0": h0,
    }
    if prof.milnor_algebra_degrees == INFINITE:
        fields["milnor_algebra_degrees"] = INFINITE
    else:
        # milnor_profile makes the Milnor algebra table H0 itself
        fields["milnor_algebra_degrees"] = h0
        fields["milnor_number"] = prof.h0.total_dimension()
    return fields


def _profile_request(args, command):
    """(weights, Milnor profile, first report fields) of a --poly request."""
    w = _parse_weights(args.weights)
    f = parse_polynomial(args.poly)
    report = {"command": command, "poly": str(f), "weights": str(w)}
    return w, milnor.milnor_profile(f, w), report


def cmd_milnor(args):
    _, prof, report = _profile_request(args, "milnor")
    report.update(_profile_fields(prof))
    report["new_roots"] = _roots(bsroots.new_roots(prof))
    report["blf_roots"] = _roots(bsroots.blf_roots(prof))
    report["assertions"] = list(GENERAL_ASSERTIONS)
    return report


def cmd_roots(args):
    # lambda is read and checked before the polynomial and any basis work
    lam = (None if args.lct_lambda is None
           else bsroots.tlct_lambda(_parse_rational(args.lct_lambda)))
    w, prof, report = _profile_request(args, "roots %s" % args.kind)
    report["wdeg"] = format_rational(prof.wdeg_f)
    if args.kind == "isolated":
        report["is_isolated"] = prof.is_isolated
        report["roots"] = _roots(bsroots.roots_isolated(prof))
    else:
        report["h0"] = _degree_table(prof.h0)
        report["new_roots"] = _roots(bsroots.new_roots(prof))
        report["blf_roots"] = _roots(bsroots.blf_roots(prof))
        report["small_roots"] = _roots(bsroots.small_roots(prof))
        report["xi_set"] = _roots(bsroots.xi_set(prof))
        standard = (w.scaled, w.denominator) == ((1, 1, 1), 1)
        if standard and not prof.h0.is_empty():
            tax = bsroots.homogeneous_taxonomy(prof, bsroots.RootSet())
            report["tau"] = tax.tau
            report["upsilon"] = _roots(tax.upsilon)
    if lam is not None:
        report["tlct_lambda"] = format_rational(lam)
        report["tlct_holds"] = bsroots.tlct_holds(prof, lam)
    report["assertions"] = list(GENERAL_ASSERTIONS)
    return report


def _point_str(sp):
    a, b, c = sp.vector
    lead = a or b or c
    coords = ":".join(format_ratio(v, lead) for v in sp.vector)
    return "(%s) multiplicity %d" % (coords, sp.multiplicity)


def cmd_arrangement(args):
    # each form is parsed on its own, so a parse error's position is moved
    # from inside its form to inside the --forms value
    forms, start = [], 0
    for text in args.forms.split(","):
        try:
            forms.append(arr_mod.LinearForm.parse(text))
        except ParseError as exc:
            raise ParseError(exc.message, start + exc.position) from None
        start += len(text) + 1
    # full_root_report validates the forms before any step
    arr = arr_mod.Arrangement(forms)
    rep = arr_mod.full_root_report(arr)
    report = {
        "command": "arrangement",
        "forms": [str(f) for f in arr.forms],
        "degree": arr.degree,
        "weights": "1,1,1",
        "singular_points": [_point_str(sp) for sp in rep.singular_points],
        "h0": _degree_table(rep.conditions.h0),
        "comb_roots": _roots(rep.comb_roots),
        "non_comb_root": format_rational(rep.non_comb_root),
        "non_comb_present": rep.non_comb_present,
        "full_zero_set": _roots(rep.full_zero_set),
        "conditions": rep.conditions.flags(),
        "conditions_consistent": rep.conditions.consistent,
        "witness_dims": dict(rep.conditions.witness_dims),
        "formal": not rep.conditions.cond_g,
        "assertions": list(ARRANGEMENT_ASSERTIONS),
    }
    return report


def _scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def render_text(report):
    """The report as text: a scalar as "key: value", a table as one
    "key.sub: value" line per entry, and a list of strs as "key: a, b",
    or one "key[i]: item" line per item when an item holds a comma.  A
    table's "sub: value" lines are formatted once and joined under each
    key that holds it (a milnor report's h0 is its Milnor algebra table)."""
    lines = []
    bodies = {}  # id of a table -> its "sub: value" lines
    for key, value in report.items():
        if isinstance(value, dict):
            if not value:
                lines.append("%s: (none)" % key)
                continue
            body = bodies.get(id(value))
            if body is None:
                # the ints of a degree table print as they are
                body = bodies[id(value)] = [
                    "%s: %s" % (sub, v if v.__class__ is int else _scalar(v))
                    for sub, v in value.items()]
            prefix = key + "."
            lines.append(prefix + ("\n" + prefix).join(body))
        elif isinstance(value, list):
            joined = ", ".join(value)
            # the separators put len(value) - 1 commas in the joined text,
            # and any other comma is inside an item
            if value and joined.count(",") != len(value) - 1:
                lines += ["%s[%d]: %s" % (key, i, item)
                          for i, item in enumerate(value)]
            else:
                lines.append("%s: %s" % (key, joined or "(none)"))
        else:
            lines.append("%s: %s" % (key, _scalar(value)))
    return "\n".join(lines) + "\n"


def _parse_args(argv):
    """The namespace of argv.  An argv whose first word names a subcommand
    goes straight to that subcommand's parser, the one _PARSER hands the
    rest of it to, with the command set as _PARSER sets it; any other argv
    (no command, an unknown one, a top-level option) goes through
    _PARSER."""
    argv = _join_values(argv)
    parser = _COMMANDS.get(argv[0]) if argv else None
    if parser is None:
        return _PARSER.parse_args(argv)
    return parser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv=None):
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    started = time.monotonic()
    try:
        with step_budget(args.step_cap):
            if args.command == "milnor":
                report = cmd_milnor(args)
            elif args.command == "roots":
                report = cmd_roots(args)
            else:
                report = cmd_arrangement(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return 2
    except Bs3Error as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 4
    report["timing_ms"] = int((time.monotonic() - started) * 1000)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_text(report), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
