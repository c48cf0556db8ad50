"""CPU time per 1,000 steps over seeded CLI requests.

Runs COUNT requests drawn by test_fuzz.draw_request from
random.Random(SEED), each with the caches cleared, and prints the exit-code
counts, the median and largest CPU time per 1,000 steps over the requests
that spent at least MIN_STEPS steps, and the argv of the five requests that
took the most CPU time.  It exits 1 only when a request exits 4 (an
internal error) or raises; times are printed, never asserted, since they
depend on the host.  pytest does not collect it.  Run it from the
repository root:

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
from test_budget import clear_caches
from test_fuzz import draw_request

SEED = 1
COUNT = 2000
# a request of fewer steps is timed mostly by parsing and report building
MIN_STEPS = 100


def run(argv, budgets):
    """(exit code, or "raised", steps spent, CPU seconds)."""
    clear_caches()
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
    for _ in range(COUNT):
        argv = draw_request(rng)
        code, steps, seconds = run(argv, budgets)
        codes[code] += 1
        timed.append((seconds, steps, argv))
        if code in (4, "raised"):
            bad.append((code, argv))
    print("requests: %d (seed %d)" % (COUNT, SEED))
    print("exit codes: %s" % ", ".join(
        "%s: %d" % (code, n) for code, n in sorted(codes.items(), key=str)))
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
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
