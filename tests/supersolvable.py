"""The closed forms of the larger supersolvable draws.

Checks each supersolvable draw (k, seed) in ROWS, built by
corpus.supersolvable, as tier-1 checks the smaller ones
(test_arrangement.supersolvable_mismatches): the Hilbert function of R/J
read from the request's basis against its closed form for t < 3d, H0
empty, the non-combinatorial root absent, formality and e.  Prints one
row per draw with its degree, the multiplicity m of its modular point
and the seconds it took, and exits 1 on any
mismatch.  Times are printed, never asserted, since they depend on the
host.  pytest does not collect it.  Run it from the repository root:

    PYTHONPATH=src python tests/supersolvable.py
"""

import sys
import time

import corpus
from test_arrangement import supersolvable_mismatches

# (k, seed), giving d = 20, 30 and 34
ROWS = [(7, 4), (8, 5), (9, 6)]


def main():
    failed = False
    for k, seed in ROWS:
        start = time.perf_counter()
        mismatches = supersolvable_mismatches(k, seed)
        seconds = time.perf_counter() - start
        d = corpus.supersolvable(k, seed).degree
        print("k=%d seed=%d d=%d m=%d: %s in %.2f s"
              % (k, seed, d, d - k,
                 "MISMATCH " + ", ".join(mismatches) if mismatches else "ok",
                 seconds))
        failed = failed or bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
