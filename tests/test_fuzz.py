"""Seeded CLI fuzz: every drawn request ends in a documented exit code with
no traceback, JSON and text agree, and --step-cap is exact."""

import json
import random
import time
from collections import Counter

from bs3 import cli, groebner
from test_budget import budgets, clear_caches  # noqa: F401

# the first line of stderr for each failing exit code
PREFIXES = {1: ("usage error:", "parse error:"),
            2: ("precondition violated:",),
            3: ("resource limit:",)}


def term(rng, exponents):
    c = str(rng.choice((1, 1, 2, 3, 5, -1, -2)))
    if rng.random() < 0.2:
        c += "/%d" % rng.randint(2, 5)
    names = [v if e == 1 else "%s^%d" % (v, e)
             for v, e in zip("xyz", exponents) if e]
    return "*".join([c] + names)


def draw_polynomial(rng):
    """(poly, weights): one to four terms of weighted degree D <= 9 under
    integer weights 1..3, or of three random monomials; the weights as
    w/D, as integers, or 1,1,1; a few with one character inserted or with
    invalid weights."""
    w = [rng.randint(1, 3) for _ in range(3)]
    D = rng.randint(2, 9)
    monomials = [(i, j, k) for i in range(D + 1) for j in range(D + 1)
                 for k in range(D + 1) if w[0] * i + w[1] * j + w[2] * k == D]
    if not monomials or rng.random() < 0.15:
        monomials = [tuple(rng.randint(0, 4) for _ in range(3))
                     for _ in range(3)]
    chosen = rng.sample(monomials, min(len(monomials), rng.randint(1, 4)))
    poly = "+".join(term(rng, m) for m in chosen).replace("+-", "-")
    if rng.random() < 0.05:
        at = rng.randrange(len(poly) + 1)
        poly = poly[:at] + rng.choice("^*+()x/ 7") + poly[at:]
    weights = ",".join("%d/%d" % (v, D) for v in w)
    if rng.random() < 0.3:
        weights = ",".join(map(str, w)) if rng.random() < 0.5 else "1,1,1"
    if rng.random() < 0.04:
        weights = rng.choice(("0,1,1", "1,1", "-1,2,2", "a,b,c", "1/0,1,1"))
    return poly, weights


def draw_form(rng):
    v = [rng.randint(-3, 3) for _ in range(3)]
    text = "".join("%+d*%s" % (c, name) for c, name in zip(v, "xyz") if c)
    return text.lstrip("+") or "0*x"


def draw_request(rng):
    """argv of one request: milnor, roots isolated, roots lqh (some with
    --lct-lambda) or an arrangement of 2..7 forms; a tenth with a step cap
    of at most 400, a few with a usage error."""
    kind = rng.choice(("milnor", "isolated", "lqh", "arrangement",
                       "arrangement"))
    if kind == "arrangement":
        forms = [draw_form(rng) for _ in range(rng.randint(2, 7))]
        argv = ["arrangement", "--forms", ",".join(forms)]
    else:
        poly, weights = draw_polynomial(rng)
        argv = ["milnor"] if kind == "milnor" else ["roots", kind]
        argv += ["--poly", poly, "--weights", weights]
        if kind != "milnor" and rng.random() < 0.2:
            argv += ["--lct-lambda",
                     "%d/%d" % (rng.randint(-3, 3), rng.randint(1, 4))]
    if rng.random() < 0.1:
        argv += ["--step-cap", str(rng.randint(0, 400))]
    if rng.random() < 0.03:
        argv += [rng.choice(("--bogus", "--step-cap=-1", "--format=xml"))]
    return argv


def timeless(text):
    return [line for line in text.splitlines()
            if not line.startswith("timing_ms:")]


def test_seeded_requests_exit_0_to_3_and_the_step_cap_is_exact(
        capsys, monkeypatch):
    made = []
    init = groebner._Budget.__init__

    def spy(self, cap):
        made.append(self)
        init(self, cap)

    monkeypatch.setattr(groebner._Budget, "__init__", spy)

    def run(argv):
        clear_caches()
        made.clear()
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    rng = random.Random(0)
    codes = Counter()
    for _ in range(300):
        argv = draw_request(rng)
        code, out, err = run(argv)
        codes[code] += 1
        assert "Traceback" not in err, argv
        if code:
            assert out == "" and err.startswith(PREFIXES[code]), argv
            continue
        assert err == "", argv
        used = made[0].used
        code, raw, _ = run(argv + ["--format", "json"])
        assert code == 0, argv
        data = json.loads(raw)
        assert timeless(cli.render_text(data)) == timeless(out), argv
        # the last --step-cap given is the one read
        code, capped, _ = run(argv + ["--step-cap", str(used)])
        assert code == 0 and timeless(capped) == timeless(out), argv
        if used:
            code, capped, err = run(argv + ["--step-cap", str(used - 1)])
            assert code == 3 and capped == "", argv
            assert err.startswith("resource limit:"), argv
    assert sorted(codes) == [0, 1, 2, 3], codes


# a weighted colon whose Buchberger run grows coefficients past 500,000
# bits, so one reduction step takes up to a second
GROWING = ["milnor",
           "--poly", "-2*x^3*y^7+5*x^4*z^10+1/2*x^15*y^3+5*x*y^5*z^4",
           "--weights", "1/24,3/24,2/24"]


def test_step_cap_bounds_time_as_coefficients_grow(capsys, budgets):
    # a step costs one more per 64-bit word of the coefficients it scales
    # by, so a cap that the first large coefficients pass ends the request
    # before they grow further, at the same count on every run
    for _ in range(2):
        clear_caches()
        start = time.perf_counter()
        code = cli.main(GROWING + ["--step-cap", "4000"])
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("resource limit:") and "Traceback" not in err
    assert budgets[0].used == budgets[1].used > 4000


def parse_outcome(parse, argv, capsys):
    """What parsing argv gives: its namespace, its usage-error text, or the
    code and output of an exit (help)."""
    try:
        return "namespace", parse(argv)
    except cli._UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return "exit", exc.code, captured.out, captured.err


def test_subcommand_dispatch_parses_as_the_top_level_parser(capsys):
    # an argv that names a subcommand skips the top-level parser and goes
    # to the one it hands that argv to: the namespace, a usage error's text
    # and a help text must come out as they do through the top-level parser
    rng = random.Random(11)
    argvs = [draw_request(rng) for _ in range(1000)]
    argvs += [
        [], ["bogus"], ["-h"], ["--help"], ["--format", "json"],
        ["milnor"], ["roots"], ["roots", "sideways", "--poly", "x"],
        ["roots", "lqh", "--for", "json", "--poly", "x*y*z"],
        ["milnor", "--poly", "x^2", "--bogus"],
        ["milnor", "--poly", "x^2", "extra"],
        ["milnor", "--poly", "x^2", "--step-cap", "-1"],
        ["milnor", "--poly", "x^2", "--step-cap", "ten"],
        ["roots", "-h"], ["arrangement", "--forms", "x,y,z", "--help"],
        ["milnor", "--po", "-x^2", "--weights", "1,1,1"],
        ["roots", "lqh", "--poly", "x", "--lct", "-1/2"],
        ["milnor", "--poly", "x", "--poly", "y"],
        ["milnor", "--", "--poly", "x"],
        ["arrangement", "--forms=x,y,z", "--format", "xml"],
    ]
    seen = set()
    for argv in argvs:
        want = parse_outcome(
            lambda a: cli._PARSER.parse_args(cli._join_values(a)), argv,
            capsys)
        got = parse_outcome(cli._parse_args, argv, capsys)
        assert got == want, argv
        seen.add(want[0])
    assert seen == {"namespace", "usage error", "exit"}
