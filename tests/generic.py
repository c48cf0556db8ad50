"""The closed forms of generic arrangements at larger sizes.

Checks each generic arrangement below as tier-1 checks the smaller ones
(test_arrangement.generic_mismatches): the report that condition_report
reads from the closed forms against the one the basis run of its Jacobian
gives, flags, witnesses and H0.  The rows are the moment curves
d = 4..20, the reversed moment curve at d = 16 and the first 40 generic
draws of random.Random(7) (corpus.generic_draws).  Prints one row per
arrangement with its degree, the fields that differ or the named check
the closed forms fail, and the seconds the check took, and exits 1 on
any mismatch.  Times are printed, never asserted, since they depend on
the host.  pytest does not collect it.  Run it from the repository root:

    PYTHONPATH=src python tests/generic.py
"""

import sys
import time

import corpus
from bs3.arrangement import validate
from open_rows import moment, reversed_moment
from test_arrangement import generic_mismatches

ROWS = [("moment d=%d" % d, moment(d)) for d in range(4, 21)]
ROWS += [("reversed-moment d=16", reversed_moment(16))]


def main():
    rows = [(name, validate(forms.split(","))) for name, forms in ROWS]
    rows += [("draw %d" % i, arr)
             for i, arr in enumerate(corpus.generic_draws(40), 1)]
    failed = False
    for name, arr in rows:
        start = time.perf_counter()
        mismatches = generic_mismatches(arr)
        seconds = time.perf_counter() - start
        print("%-20s d=%-2d %s in %.2f s"
              % (name, arr.degree,
                 "MISMATCH " + ", ".join(mismatches) if mismatches else "ok",
                 seconds))
        failed = failed or bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
