"""CPU time per 1,000 steps over seeded CLI requests, each run twice.

Runs COUNT requests drawn by test_fuzz.draw_request from
random.Random(SEED), each twice in a row in one process, and prints the
exit-code counts of the first runs, the number of requests whose second
run ended in another exit code or spent other steps, the median and
largest CPU time per 1,000 steps over the first runs that spent at least
MIN_STEPS steps, and the argv of the five requests whose first run took
the most CPU time.  It exits 1 when a request exits 4 (an internal error)
or raises, or when a second run differs from its first; times are
printed, never asserted, since they depend on the host.  pytest does not
collect it.  Run it from the repository root:

    PYTHONPATH=src python tests/fuzz_steps.py
"""

import contextlib
import io
import random
import statistics
import sys
import time
import traceback
from collections import Counter

from bs3 import cli, groebner
from test_fuzz import draw_request

SEED = 1
COUNT = 2000
# a request of fewer steps is timed mostly by parsing and report building
MIN_STEPS = 100


def run(argv, budgets):
    """(exit code, or "raised", steps spent, CPU seconds)."""
    budgets.clear()
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = "raised"
    seconds = time.process_time() - start
    if "Traceback" in err.getvalue():
        print(err.getvalue(), file=sys.stderr)
        code = "raised"
    return code, sum(budget.used for budget in budgets), seconds


def main():
    budgets = []
    init = groebner._Budget.__init__

    def spy(self, cap):
        budgets.append(self)
        init(self, cap)

    groebner._Budget.__init__ = spy
    rng = random.Random(SEED)
    codes = Counter()
    timed = []  # (CPU seconds, steps, argv)
    bad = []
    drifted = []  # (argv, (code, steps) of the first run, of the second)
    for _ in range(COUNT):
        argv = draw_request(rng)
        code, steps, seconds = run(argv, budgets)
        again, steps_again, _ = run(argv, budgets)
        codes[code] += 1
        timed.append((seconds, steps, argv))
        if code in (4, "raised"):
            bad.append((code, argv))
        if (again, steps_again) != (code, steps):
            drifted.append((argv, (code, steps), (again, steps_again)))
    print("requests: %d (seed %d)" % (COUNT, SEED))
    print("exit codes: %s" % ", ".join(
        "%s: %d" % (code, n) for code, n in sorted(codes.items(), key=str)))
    print("second runs that differ in exit code or steps: %d" % len(drifted))
    rates = [1000 * seconds / steps * 1000 for seconds, steps, _ in timed
             if steps >= MIN_STEPS]
    if rates:
        print("CPU ms per 1,000 steps over %d requests of >= %d steps: "
              "median %.3f, largest %.3f"
              % (len(rates), MIN_STEPS, statistics.median(rates), max(rates)))
    print("slowest requests (CPU ms, steps, argv):")
    for seconds, steps, argv in sorted(timed, key=lambda t: -t[0])[:5]:
        print("  %.1f %d %r" % (1000 * seconds, steps, argv))
    for code, argv in bad:
        print("FAILED (%s): %r" % (code, argv))
    for argv, first, second in drifted[:5]:
        print("DIFFERS (exit code, steps) %r then %r: %r"
              % (first, second, argv))
    return 1 if bad or drifted else 0


if __name__ == "__main__":
    sys.exit(main())
