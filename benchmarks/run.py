#!/usr/bin/env python3
"""Cold-request benchmark for bs3.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload arrangement --seed 1 --seconds 25 --trace 0

One process, one thread, one client in a closed loop: each request is sent
after the previous one has returned.  Requests go through `bs3.cli.main`
(text reports, as a CLI user sees them) or, for `screening`, through
`bs3.arrangement.validate`.  Every `lru_cache` in the package is cleared
before each request, so each request pays what a fresh `bs3` process pays.
Every answer is checked (checks.py).  End-to-end times are put at one
reference host speed (hostspeed.py); the raw wall times are printed too.
The last line of standard output is one JSON object: end-to-end metrics with
`--trace 0`, per-layer metrics from a traced pass with `--trace 1`.
`--workload all` runs every workload in its own process and prints their
metric lines.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostspeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
DEADLINE_S = 60.0        # a request running longer counts as failed
RUN_CAP_S = 150.0        # no request starts after this much time in a pass
SETUP_REPEATS = 7        # fresh processes timed for setup_s (this one too)
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = ".bench_out"


class SetupError(Exception):
    pass


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded("request overran %.0f s" % DEADLINE_S)


class Program:
    """The bs3 package of the checkout at `root`, imported from source."""

    def __init__(self, root):
        src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(src, "bs3", "cli.py")):
            raise SetupError("no bs3 sources under %s" % src)
        sys.path.insert(0, src)
        import bs3
        import bs3.cli
        if not os.path.abspath(bs3.__file__).startswith(src + os.sep):
            raise SetupError("bs3 imported from %s, not the checkout"
                             % bs3.__file__)
        self.package = bs3
        self.caches = [obj for mod in vars(bs3).values()
                       if getattr(mod, "__name__", "").startswith("bs3.")
                       for obj in vars(mod).values()
                       if hasattr(obj, "cache_clear")]
        self.oracles = _load_oracles(root)
        signal.signal(signal.SIGALRM, _on_alarm)

    def serve(self, request):
        """Send one request; return (seconds, output, error)."""
        for cache in self.caches:
            cache.cache_clear()
        out = io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                if request.argv is not None:
                    code = self.package.cli.main(list(request.argv))
                    result = out.getvalue()
                    error = None if code == 0 else "exit %d: %s" % (
                        code, err.getvalue().strip())
                else:
                    result, error = self._validate(request.forms), None
        except DeadlineExceeded as exc:
            result, error = None, str(exc)
        except Exception as exc:  # any escape is a failed request
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        return elapsed, result, error

    def _validate(self, forms):
        try:
            arr = self.package.arrangement.validate(forms)
        except self.package.polyring.PreconditionError as exc:
            return str(exc)
        return "valid: " + repr([f.coefficients for f in arr.forms])


def _load_oracles(root):
    path = os.path.join(root, "tests", "oracles.py")
    if not os.path.isfile(path):
        raise SetupError("missing %s" % path)
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def problems_of(program, workload, request, result, digests):
    """Everything wrong with one answer; empty when it is correct."""
    want = digests.get(request.text)
    if want is not None and checks.digest(result) != want:
        return ["report differs from the recorded digest"]
    if workload == "screening":
        return checks.check_screening(request.spec, result)
    report = checks.parse_text_report(result)
    try:
        if workload == "arrangement":
            return checks.check_arrangement(request.spec, report,
                                            program.oracles)
        if workload == "isolated":
            return checks.check_isolated(request.spec, report)
        return checks.check_lqh(request.spec, report)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return ["malformed report (%s: %s)" % (type(exc).__name__, exc)]


def setup(root, workload, seed, seconds):
    """Import bs3 and build the request list; the time taken is returned
    at the reference host speed."""
    start = time.perf_counter()
    program = Program(root)
    requests = WORKLOADS[workload].requests(seed, seconds)
    elapsed = time.perf_counter() - start
    return program, requests, elapsed * hostspeed.setup_factor()


def load_digests():
    if not os.path.isfile(DIGESTS):
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh)


class Pass:
    """Latencies and failures of the requests sent so far.  With a
    `hostspeed.Probe`, `latencies` are at the reference speed and
    `raw_latencies` keep the wall times; without one they are equal."""

    def __init__(self, program, workload, digests, probe=None):
        self.program = program
        self.workload = workload
        self.digests = digests
        self.probe = probe
        self.latencies = []
        self.raw_latencies = []
        self.failures = []
        self.served = []

    def send(self, request):
        if self.probe is None:
            elapsed, result, error = self.program.serve(request)
            factor = 1.0
        else:
            with self.probe:
                elapsed, result, error = self.program.serve(request)
            elapsed -= self.probe.spent
            factor = self.probe.factor()
        if error is None:
            problems = problems_of(self.program, self.workload, request,
                                   result, self.digests)
            error = "; ".join(problems) if problems else None
        self.raw_latencies.append(elapsed)
        self.latencies.append(elapsed * factor)
        self.served.append(request)
        if error is not None:
            self.failures.append((request, error))

    def report_failures(self):
        for request, error in self.failures[:10]:
            print("FAILED %s [%s]: %s" % (request.name, request.text, error),
                  file=sys.stderr)


def closed_loop(requests, send):
    """Send each request after the previous one returned; return the wall
    time of the loop."""
    started = time.perf_counter()
    for i, request in enumerate(requests):
        if time.perf_counter() - started > RUN_CAP_S:
            break
        send(i, request)
    return time.perf_counter() - started


def tail(latencies):
    """The highest percentile with at least ten samples above it: the
    11th largest value (the smallest one when there are fewer than 11).
    Returns (value, percentile, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def child_setup_seconds(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def end_to_end(program, args, requests, own_setup):
    """Metrics at the reference host speed; the raw wall-time figures go
    into the notes."""
    setups = [own_setup] + [
        child_setup_seconds(args.workload, args.seed, args.seconds)
        for _ in range(SETUP_REPEATS - 1)]
    run = Pass(program, args.workload, load_digests(), hostspeed.Probe())
    wall = closed_loop(requests, lambda i, request: run.send(request))
    run.report_failures()
    value, pct, n = tail(run.latencies)
    ok = len(run.latencies) - len(run.failures)
    metrics = {
        "throughput_rps": ok / sum(run.latencies),
        "latency_p50_ms": 1000 * statistics.median(run.latencies),
        "latency_tail_ms": 1000 * value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": statistics.median(setups),
    }
    notes = ["latency_tail_ms is p%.1f of %d samples" % (pct, n),
             "failed_ratio = %d/%d" % (len(run.failures), len(run.latencies)),
             "raw wall time: %.3f requests/s, p50 %.1f ms, tail %.1f ms, "
             "loop %.1f s" % (ok / sum(run.raw_latencies),
                              1000 * statistics.median(run.raw_latencies),
                              1000 * tail(run.raw_latencies)[0], wall),
             "reference speed factor: median %.3f over the requests"
             % statistics.median(r / w for r, w in zip(run.latencies,
                                                       run.raw_latencies))]
    return run, metrics, notes


def traced(program, args, requests):
    """Each request untraced, then again traced, so that both passes see
    the same machine conditions."""
    digests = load_digests()
    plain = Pass(program, args.workload, digests)
    run = Pass(program, args.workload, digests)
    tracer = Tracer(program.package)

    def send_both(i, request):
        plain.send(request)
        tracer.request = i
        with tracer:
            run.send(request)

    closed_loop(requests, send_both)
    plain.report_failures()
    run.report_failures()
    metrics = tracer.summary()
    wall = sum(run.latencies)
    covered = sum(v for k, v in metrics.items()
                  if k.count(".") == 1 and k.endswith(".self_s"))
    metrics["harness.self_s"] = wall - covered
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_ratio"] = wall / sum(plain.latencies)
    _write_trace(args, tracer, plain, run)
    return [plain, run], metrics


def _write_trace(args, tracer, plain, run):
    """Spans and per-input latencies (both passes) under .bench_out/."""
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d" % (args.workload, args.seed))
    tracer.write_spans(stem + "-spans.tsv")
    rows = [{"name": r.name, "request": r.text,
             "untraced_ms": 1000 * a, "traced_ms": 1000 * b}
            for r, a, b in zip(run.served, plain.latencies, run.latencies)]
    with open(stem + "-latency.json", "w") as fh:
        json.dump(rows, fh, indent=1)
    fixed = {r.name for r in WORKLOADS[args.workload].fixed()}
    for row in rows:
        if row["name"] in fixed:
            print("fixed member %s: %.1f ms untraced, %.1f ms traced"
                  % (row["name"], row["untraced_ms"], row["traced_ms"]))


def declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def run_one(args, root):
    program, requests, own_setup = setup(root, args.workload, args.seed,
                                         args.seconds / (2 if args.trace else 1))
    if args.trace:
        passes, values = traced(program, args, requests)
    else:
        run, values, notes = end_to_end(program, args, requests, own_setup)
        passes = [run]
        for note in notes:
            print(note)
    metrics = {}
    for m in declared_metrics(root, args.trace):
        if args.trace:
            # a function never called in this workload has no spans
            values.setdefault(m["name"], 0)
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%s %s = %.6g %s" % (args.workload, m["name"],
                                   values[m["name"]], m["unit"]))
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own fresh process; metric lines only."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if (proc.returncode or not lines
                or not json.loads(lines[-1])["correct"]):
            status = 1
    return status


def record_digests(args, root):
    """Write digests.json from the request list of the default seed."""
    recorded = {}
    for name in WORKLOADS:
        program, requests, _ = setup(root, name, DEFAULT_SEED, args.seconds)
        for request in requests:
            _, result, error = program.serve(request)
            problems = ([error] if error else
                        problems_of(program, name, request, result, {}))
            if problems:
                raise SetupError("%s: %s" % (request.text, problems))
            recorded[request.text] = checks.digest(result)
    with open(DIGESTS, "w") as fh:
        json.dump(recorded, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("recorded %d digests" % len(recorded))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json for the default seed")
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        if args.record_digests:
            return record_digests(args, root)
        if args.workload == "all":
            return run_all(args)
        if args.setup_only:
            print(setup(root, args.workload, args.seed, args.seconds)[2])
            return 0
        return run_one(args, root)
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print("benchmark setup failed: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
