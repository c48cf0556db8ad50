"""The closed form at larger sizes: generic arrangements, five lines and
arrangements with added concurrent lines that the lattice certifies.

Checks each arrangement below as tier-1 checks the smaller ones
(test_arrangement.closed_form_mismatches): the report that
condition_report reads from the closed form against the one the basis
run of its Jacobian gives, flags, witnesses and H0.  The generic rows are
the moment curves d = 4..20, the reversed moment curve at d = 16 and the
first 40 generic draws of random.Random(7) (corpus.generic_draws); each
prints one row with its degree, the fields that differ or the named check
the closed form fails, and the seconds the check took.  Then 400 draws of
five lines that are not generic (corpus.quintic_draws) and 400 draws of
d = 6..9 lines with one or two triple points that the lattice certifies
(corpus.concurrent_draws), each with coefficients in [-50, 50], print a
row each only on a mismatch, and one summary row per kind.  Exits 1 on
any mismatch.  Times are printed, never asserted, since they depend on
the host.  pytest does not collect it.  Run it from the repository root:

    PYTHONPATH=src python tests/generic.py
"""
import sys
import time

import corpus
from bs3.arrangement import validate
from open_rows import moment, reversed_moment
from test_arrangement import closed_form_mismatches

ROWS = [("moment d=%d" % d, moment(d)) for d in range(4, 21)]
ROWS += [("reversed-moment d=16", reversed_moment(16))]


def main():
    rows = [(name, validate(forms.split(","))) for name, forms in ROWS]
    rows += [("draw %d" % i, arr)
             for i, arr in enumerate(corpus.generic_draws(40), 1)]
    failed = False
    for name, arr in rows:
        start = time.perf_counter()
        mismatches = closed_form_mismatches(arr)
        seconds = time.perf_counter() - start
        print("%-20s d=%-2d %s in %.2f s"
              % (name, arr.degree,
                 "MISMATCH " + ", ".join(mismatches) if mismatches else "ok",
                 seconds))
        failed = failed or bool(mismatches)
    for kind, draws in (("quintic", corpus.quintic_draws),
                        ("concurrent", corpus.concurrent_draws)):
        start, wrong = time.perf_counter(), 0
        arrs = draws(400, 50)
        for i, arr in enumerate(arrs, 1):
            mismatches = closed_form_mismatches(arr)
            if mismatches:
                print("%s draw %-4d d=%-2d MISMATCH %s"
                      % (kind, i, arr.degree, ", ".join(mismatches)))
                wrong += 1
        print("%-20s d=%d..%d %d of 400 mismatch in %.2f s"
              % (kind + " draws", min(a.degree for a in arrs),
                 max(a.degree for a in arrs), wrong,
                 time.perf_counter() - start))
        failed = failed or bool(wrong)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
