"""One request on each fixed arrangement input of ROADMAP's open rows.

Runs `bs3 arrangement --format json` in process through cli.main on each
row of ROWS, and prints the wall seconds
cli.main took and the sha1 of its report without `timing_ms`, the one
field that depends on the host.  Exits 1 when a request fails or a digest
differs from the one recorded in DIGESTS, so a change that moves these
reports shows here.  Times are printed, never asserted.  pytest does not
collect it.  Run it from the repository root:

    PYTHONPATH=src python tests/open_rows.py
"""

import contextlib
import hashlib
import io
import json
import sys
import time

from bs3 import cli

# the sweep draw of ROADMAP's fixed inputs: its first d forms are the
# degree-d draw
SWEEP = ("x,y,z,x-2y+2z,2y-z,x+y+z,x+2y-z,2x-y-z,2x-2y+z,y-2z,x+z,x+y-z,"
         "2x-y+z,x-y-z,2x-y,2x-2y-z,2x+y+2z,x+2y-2z,x-y+z,x-y,"
         "x-z,x-2y-z,x-2y,2x-y-2z").split(",")
ROADMAP16 = ("x,y,z,2*x-1*y+2*z,2*x-1*y+1*z,2*x-1*y,2*x+2*y-1*z,2*x+1*y+1*z,"
             "1*x-1*y-1*z,1*x+1*y,1*x+2*y-2*z,1*x+1*y-2*z,2*x-1*y-2*z,"
             "1*x-1*z,1*x+1*y+1*z,1*x-2*y")


def moment(d):
    """The lines x + k*y + k^2*z for k = 0..d-1."""
    return ",".join("x+%d*y+%d*z" % (k, k * k) for k in range(d))


def reversed_moment(d):
    """The lines (1 + k + k^2)*x + (k + k^2)*y + k^2*z for k = 0..d-1: the
    moment curve moved by the unimodular matrix of rows (1, 0, 0),
    (1, 1, 0) and (1, 1, 1), so generic, with the moment curve's report
    except for the forms and the printed points."""
    return ",".join("%d*x+%d*y+%d*z" % (1 + k + k * k, k + k * k, k * k)
                    for k in range(d))


def near_moment(d):
    """The moment lines for k = 0..d-2 and 2*x+3*y+3*z, which passes
    through the crossings of the k = 0, 1 lines and of the k = 2, 3 lines:
    the moment curve with two triple points on a common line, so not
    generic, but its lattice certifies the closed form."""
    return moment(d - 1) + ",2*x+3*y+3*z"


def split_moment(d):
    """The moment lines for k = 0..d-3, 2*x+y+z, through the crossing of
    the k = 0, 1 lines, and x+y-z, through that of the k = 2, 3 lines:
    two triple points on no common line, so the lattice does not certify
    the closed form and the request makes the run."""
    return moment(d - 2) + ",2*x+y+z,x+y-z"


ROWS = [("roadmap d=16", ROADMAP16)]
ROWS += [("sweep d=%d" % d, ",".join(SWEEP[:d])) for d in (16, 20, 22, 24)]
ROWS += [("moment d=%d" % d, moment(d)) for d in (16, 20, 24)]
ROWS += [("near-moment d=%d" % d, near_moment(d)) for d in (16, 20, 24)]
ROWS += [("split-moment d=%d" % d, split_moment(d)) for d in (12, 16)]
ROWS += [("reversed-moment d=16", reversed_moment(16))]

# sha1 of each report without timing_ms, as json.dumps(sort_keys=True)
# writes it
DIGESTS = {
    "roadmap d=16": "2ce2a3ce3958836f67c2a0d5c83b1e201ca630de",
    "sweep d=16": "754d16d1d4eae485386112af9bda4d5b0c67b639",
    "sweep d=20": "06face3a8609f9643b755ad7f298ec9f2d42f7a7",
    "sweep d=22": "8aeec508cd91726fb33351ffd1990ebc86b6a6bd",
    "sweep d=24": "ec4cda939103387af9fcb9f5914b6a865a790de6",
    "moment d=16": "6a8dd2eb314abe628203af9c745df19c470828e5",
    "moment d=20": "6967cd7d86edb47411b430afafc0b54557e56013",
    "moment d=24": "7b20982ba333d0c26af5e1f6b29b8e8d9a98a739",
    "near-moment d=16": "d10f3c228d8f71c50dc56dbc32d7357c5c19653e",
    "near-moment d=20": "7ebe3e447672f92a800a699fc724363f898f51b7",
    "near-moment d=24": "815d818f14657a842e148c8f3b7badca27bcddc9",
    "split-moment d=12": "e05c7e114047fd55240e24deb6d620dc43b0588d",
    "split-moment d=16": "5d58718ba11c20f82da63b93277b093ea7819d10",
    "reversed-moment d=16": "e3a909920d5839aa92f42911d41637384121aa2e",
}


def request(forms):
    """(exit code, wall seconds of cli.main, sha1 of the report without
    timing_ms, or None when the request failed)."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["arrangement", "--forms", forms, "--format", "json"])
    seconds = time.perf_counter() - start
    if code:
        return code, seconds, None
    report = json.loads(out.getvalue())
    del report["timing_ms"]
    text = json.dumps(report, sort_keys=True)
    return code, seconds, hashlib.sha1(text.encode()).hexdigest()


def main():
    failed = False
    for name, forms in ROWS:
        code, seconds, digest = request(forms)
        ok = code == 0 and digest == DIGESTS.get(name)
        print("%-20s %6.2f s  %s  %s"
              % (name, seconds, digest or "exit %d" % code,
                 "ok" if ok else "MISMATCH"))
        failed = failed or not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
