"""The demos and the README library example run and print what they say;
the public names are pinned; and every function and method of the package
is entered by a demo, a README block or a fixed CLI request.
"""

import contextlib
import io
import os
import re
import runpy
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bs3
from bs3 import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MODULES = [bs3] + [getattr(bs3, path.stem) for path in
                   sorted(Path(bs3.__file__).parent.glob("*.py"))
                   if path.stem != "__init__"]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def run_library_blocks():
    """(namespace, printed lines) of the python blocks of the README's
    Library section, run one after the other in one namespace."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in re.findall(r"```python\n(.*?)```", section, re.S):
            exec(block, namespace)
    return namespace, out.getvalue().splitlines()


def test_readme_library_example_prints_what_it_says():
    namespace, lines = run_library_blocks()
    used = namespace["budget"].used
    assert used.__class__ is int and used > 0
    assert lines == ["{-2, -5/3, -4/3, -1}", "{-3/2, -5/4, -1, -3/4}",
                     "6 3 1 3", "3", str(used), "x + y True 1"]


def test_public_names_are_pinned():
    assert bs3.__all__ == """Arrangement ArrangementRootReport Bs3Error
        ConditionReport DEFAULT_STEP_CAP DegreeData GroebnerBasis
        HomogeneousTaxonomy INFINITE Ideal LinearForm MilnorProfile
        ParseError Polynomial PreconditionError RegularityReport
        ResourceLimitError RootSet SingularPoint
        SymmetryReport WeightSystem arrangement arrangement_profile blf_roots
        bsroots buchberger check_partial_symmetry comb_roots condition_report
        format_rational full_root_report graded groebner h0_degree_data
        homogeneous_taxonomy is_formal jacobian_ideal linalg milnor
        milnor_profile new_roots parse_polynomial polyring
        reconstruct_zero_set regularity_report relation_space_dimension
        roots_isolated saturated_leading_monomials sigma singular_points
        small_roots step_budget tlct_holds validate wdeg xi_set""".split()


# -- reachability -------------------------------------------------------------

# every subcommand, standard and other weights, text and JSON; each
# saturation route: Artinian, a saturated in(I) (the near pencil), and colons
# by the moment form under standard weights (c = 2, past the z-division) and
# under (1, 2, 2) (c = 1); an arrangement from each source of its report:
# the closed form its lattice certifies, and the basis run; a
# form with a fractional coefficient, which LinearForm.parse reads through
# the grammar and builds from its coefficients
REQUESTS = [argv.split() for argv in (
    "milnor --poly x^3+y^3+z^3",
    "milnor --poly x^2+y^3+z^5 --weights 1/2,1/3,1/5 --format json",
    "roots isolated --poly x^2+y^2+z^2",
    "roots isolated --poly x^4+y^6+z^9 --weights 9,6,4 --format json",
    "roots lqh --poly x^2*y*z+x*y^2*z+x*y*z^2 --lct-lambda 0",
    "roots lqh --poly x^4*z+5*x^2*y^2*z+6*y^4*z",
    "roots lqh --poly x^6*y*z+2*x*y^3*z+3*x*y*z^3 --weights 1/5,1/2,1/2 "
    "--lct-lambda -1/2 --format json",
    "roots lqh --poly 2*x^5+2*x^3*y+3*x^3*z+2*x*y*z --weights 1,2,2",
    "arrangement --forms x,y,z,x+y+z --step-cap 100000",
    "arrangement --forms x,y,z,x-y,x-z,y-z --format json",
    "arrangement --forms x,y,x+y,z,x+3y+z",
    "arrangement --forms x,y,z,1/2*x+y+z --format json")]

# what no request, demo or README block enters, each with what holds it;
# no __repr__ is asked to be entered
UNREACHED = sorted([
    # the partial-symmetry check of the paper and what it uses: no request
    # reports it yet (ROADMAP item 9)
    "bsroots.sigma", "bsroots.check_partial_symmetry",
    "bsroots.SymmetryReport.__init__", "bsroots.RootSet.difference",
    "bsroots.RootSet.__contains__",
    # read by benchmarks/tracer.py until the request trace replaces it
    # (ROADMAP item 5): a basis's held elements, made monic, and the repeat
    # counts, which hash each Ideal and compare it by value
    "groebner.GroebnerBasis.elements", "groebner._from_int_poly",
    "groebner.Ideal.__eq__", "groebner.Ideal.__hash__",
    # read by benchmarks/run.py until the benchmark is repaired (ROADMAP
    # item 1): Program._validate prints the coefficients of every form of
    # a screening request, and SingularPoint.__repr__ reads _scaled
    "arrangement.LinearForm.coefficients", "arrangement._scaled",
    # run once, when cli or groebner is imported
    "cli._build_parser", "cli._build_parser.common",
    "groebner._Packing.__init__", "groebner._unrolled_lcm",
    # error paths
    "cli._Parser.error", "groebner._too_large",
    "polyring.ParseError.__init__", "polyring._position"])


def test_a_fractional_form_reports_as_its_integer_normal(capsys):
    # a form prints from its normal, so the report on 1/2*x+y+z is the one
    # on x+2*y+2*z, byte for byte once the time is dropped
    reports = []
    for forms in ("x,y,z,1/2*x+y+z", "x,y,z,x+2*y+2*z"):
        assert cli.main(["arrangement", "--forms", forms,
                         "--format", "json"]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        reports.append("".join(line for line in lines
                               if not line.startswith('  "timing_ms": ')))
        assert len(lines) - 1 == reports[-1].count("\n"), forms
    assert reports[0] == reports[1]


def test_a_request_builds_no_polynomial_past_its_parse(monkeypatch):
    # a --poly request builds the one Polynomial it parses and takes its
    # partials on packed monomials; an arrangement request builds none
    built = []
    init = bs3.Polynomial.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(bs3.Polynomial, "__init__", spy)
    for argv in REQUESTS:
        built.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
        assert len(built) == (argv[0] != "arrangement"), argv


def defined_functions():
    """{(file, first line): dotted name} of every function and method of
    the package, nested ones included, lambdas and comprehensions not."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if (isinstance(const, types.CodeType)
                    and not const.co_name.startswith("<")):
                name = prefix + const.co_name
                if const.co_flags & 0x1:  # CO_OPTIMIZED: not a class body
                    found[const.co_filename, const.co_firstlineno] = name
                walk(const, name + ".")

    for module in MODULES:
        with open(module.__file__, encoding="utf-8") as source:
            walk(compile(source.read(), module.__file__, "exec"),
                 module.__name__.rpartition(".")[2] + ".")
    return found


def test_every_function_is_reached_by_a_request_a_demo_or_the_readme():
    entered = set()
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: entered.add(
        (frame.f_code.co_filename, frame.f_code.co_firstlineno)))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for script in DEMOS:
                runpy.run_path(str(script), run_name="__main__")
            run_library_blocks()
            codes = [cli.main(argv) for argv in REQUESTS]
    finally:
        sys.settrace(previous)
    assert codes == [0] * len(REQUESTS)
    unreached = [name for key, name in defined_functions().items()
                 if key not in entered and not name.endswith(".__repr__")]
    assert sorted(unreached) == UNREACHED
