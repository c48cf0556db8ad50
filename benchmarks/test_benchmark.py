"""Tests of the benchmark itself: inputs, checks and tracer.

Run from the root of the repository:

    python3 -m pytest -q benchmarks
"""

import json
import os
import signal
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Request, failed_shifts  # noqa: E402


@pytest.fixture(scope="module")
def program():
    return run.Program(ROOT)


def texts(workload, seed):
    return [r.text for r in WORKLOADS[workload].requests(seed, 25)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_the_inputs(workload):
    assert texts(workload, 7) == texts(workload, 7)
    assert texts(workload, 7) != texts(workload, 8)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_within_a_run_are_distinct(workload):
    requests = WORKLOADS[workload].requests(3, 25)
    assert len({r.key for r in requests}) == len(requests)


def test_request_count_does_not_depend_on_speed():
    for workload in WORKLOADS.values():
        assert len(workload.requests(1, 25)) == len(workload.requests(2, 25))


def test_failed_shifts_of_the_fixed_arrangements():
    # x and z meet at (0:1:0), on z = 0; y and x+y+z meet at (1:0:-1), on
    # z + x = 0; no intersection point lies on z + 2x + 3y = 0
    generic4 = WORKLOADS["arrangement"].fixed()[0]
    assert failed_shifts(generic4.spec["forms"]) == 2
    assert failed_shifts([(1, 0, 0), (0, 1, 0), (1, 1, 1)]) == 0


def test_arrangement_draws_fill_their_slots():
    for request in WORKLOADS["arrangement"].requests(4, 25):
        if request.name.startswith("r"):
            _, degree, shifts, _ = request.name.split(".")
            forms = request.spec["forms"]
            assert len(forms) == int(degree[1:])
            assert failed_shifts(forms) == int(shifts[1:])


def test_screening_draws_cover_every_verdict():
    verdicts = {checks.arrangement_verdict(r.spec["forms"])
                for r in WORKLOADS["screening"].requests(0, 25)}
    assert verdicts == {"valid", "not reduced", "not essential",
                        "decomposable"}


def test_tail_is_eleventh_largest():
    value, pct, n = run.tail([float(i) for i in range(1, 31)])
    assert (value, n) == (20.0, 30)
    assert pct == pytest.approx(100 * 20 / 30)


def test_poincare_polynomial_of_fermat_cubic():
    assert checks.poincare_coefficients((1, 1, 1), 3) == {0: 1, 1: 3, 2: 3,
                                                          3: 1}


def test_text_report_round_trip(program):
    request = WORKLOADS["arrangement"].fixed()[0]
    _, text, error = program.serve(request)
    assert error is None
    report = checks.parse_text_report(text)
    assert report["degree"] == 4
    assert report["full_zero_set"] == ["-3/2", "-5/4", -1, "-3/4"]
    assert report["conditions"]["b"] is True


def _cheap_requests():
    arrangement = WORKLOADS["arrangement"].fixed()[0]          # generic4
    isolated = [r for r in WORKLOADS["isolated"].requests(0, 25)
                if r.name.endswith(".s0")][:2]                 # both commands
    lqh = WORKLOADS["lqh-weighted"].requests(0, 25)[0]
    screening = WORKLOADS["screening"].requests(0, 25)[1]      # d = 10
    return ([("arrangement", arrangement)]
            + [("isolated", r) for r in isolated]
            + [("lqh-weighted", lqh), ("screening", screening)])


def _corrupt(text):
    """Change the last root of the first root list in a text report."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        key, _, value = line.partition(": ")
        if key in ("roots", "new_roots", "comb_roots") and value != "(none)":
            lines[i] = "%s: %s, 7/11" % (key, value)
            return "\n".join(lines) + "\n"
    if text.startswith("valid: "):
        return "decomposable: forged"
    raise AssertionError("nothing to corrupt in %r" % text[:80])


@pytest.mark.parametrize("workload,request_", _cheap_requests(),
                         ids=lambda v: v if isinstance(v, str) else v.name)
def test_corrupted_report_is_a_failure(program, workload, request_):
    _, text, error = program.serve(request_)
    assert error is None
    assert run.problems_of(program, workload, request_, text, {}) == []
    bad = _corrupt(text)
    assert run.problems_of(program, workload, request_, bad, {})
    # the recorded digest alone also catches it
    digests = {request_.text: checks.digest(text)}
    assert run.problems_of(program, workload, request_, text, digests) == []
    assert run.problems_of(program, workload, request_, bad, digests)


def test_failed_exit_code_is_reported(program):
    bad = Request("bad", {}, argv=["roots", "isolated", "--poly", "x^2+y^3"])
    _, _, error = program.serve(bad)
    assert error is not None and error.startswith("exit 2")


def test_deadline_overrun_is_a_failure(program, monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.05)
    fermat40 = WORKLOADS["isolated"].fixed()[0]
    elapsed, result, error = program.serve(fermat40)
    assert result is None and error.startswith("request overran")
    assert elapsed < 1


def test_graded_call_into_groebner_is_a_child_span(program):
    bs3 = program.package
    ideal = bs3.jacobian_ideal(bs3.parse_polynomial("x^3+y^3+z^3"))
    for cache in program.caches:
        cache.cache_clear()
    tracer = Tracer(bs3)
    with tracer:
        bs3.graded.h0_degree_data(ideal, bs3.graded.STANDARD)
    names = [tracer.names[i] for i in tracer.fn]
    parents = [names[p] if p >= 0 else None for p in tracer.parent]
    assert names[0] == "graded.h0_degree_data" and parents[0] is None
    assert ("groebner.buchberger", "graded.h0_degree_data") in zip(names,
                                                                   parents)
    assert ("groebner.saturate_irrelevant",
            "graded.h0_degree_data") in zip(names, parents)
    # unwrapped again afterwards
    assert bs3.graded.buchberger is bs3.groebner.buchberger
    assert not hasattr(bs3.groebner.buchberger, "__wrapped__")


def test_self_times_add_up_to_the_traced_time(program):
    tracer = Tracer(program.package)
    request = WORKLOADS["arrangement"].fixed()[1]              # generic5
    with tracer:
        elapsed, _, error = program.serve(request)
    assert error is None
    summary = tracer.summary()
    layers = sum(summary[layer + ".self_s"] for layer in
                 ("polyring", "linalg", "groebner", "graded", "milnor",
                  "bsroots", "arrangement", "cli"))
    top = sum(tracer.end[i] - tracer.start[i]
              for i in range(len(tracer.fn)) if tracer.parent[i] < 0)
    assert layers == pytest.approx(top, rel=1e-9)
    assert 0 < top <= elapsed
    assert summary["arrangement.is_formal.calls"] == 2
    assert summary["groebner.buchberger.calls"] > 0
    assert 0 < summary["groebner.buchberger.repeat_ratio"] < 1


def test_benchmark_json_names_every_metric_once():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


def test_probe_times_the_reference_during_a_request(program):
    request = WORKLOADS["isolated"].fixed()[0]                 # fermat40
    before = signal.getsignal(signal.SIGVTALRM)
    probe = hostspeed.Probe()
    with probe:
        elapsed, _, error = program.serve(request)
    assert error is None
    # ticks during the request, and one chunk after it
    assert len(probe.samples) >= 2
    assert 0 < probe.spent < elapsed
    assert probe.factor() > 0
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGVTALRM) is before


def test_pass_puts_latencies_at_the_reference_speed(program):
    run_ = run.Pass(program, "arrangement", {}, hostspeed.Probe())
    run_.send(WORKLOADS["arrangement"].fixed()[0])             # generic4
    assert run_.failures == []
    (raw,), (scaled,) = run_.raw_latencies, run_.latencies
    assert scaled == pytest.approx(raw * run_.probe.factor())
