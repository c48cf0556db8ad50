"""Host-speed probe: times a fixed pure-Python reference chunk while a
request runs, so request times can be put at one reference speed.

The benchmark runs on a few virtual CPUs of a shared host whose speed
drifts: the same pure-Python loop runs anywhere between 1x and 1.7x its
fastest time, switching within seconds and staying in one state for up to
minutes.  That moves every wall time of a run together and swamps the
program's own changes.  The probe measures the drift where it happens:

* while a request runs, a `SIGVTALRM` timer fires every `PERIOD_S` of the
  process's CPU time and its handler runs `reference_chunk` once, timing it;
* after the request one more chunk is timed, so even a short request has a
  sample.

The request's time is its wall time minus the time spent in the handler;
`factor()` is `NOMINAL_CHUNK_S` over the mean chunk time seen during and
just after the request, and the time times that factor is the request's
time at the reference speed (the speed at which a chunk takes
`NOMINAL_CHUNK_S`).  The chunk does not touch bs3, so a change to the
program moves the request times and not the factor.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from math import gcd

PERIOD_S = 0.02
# median time of one reference_chunk on the host the benchmark was written
# on (2 virtual CPUs of an Intel Xeon, Python 3.11.7)
NOMINAL_CHUNK_S = 0.00055


def reference_chunk():
    """A fixed mix of what bs3 spends its time on: small-integer row
    arithmetic with gcd, tuple keys in a dict, and a growing big integer.
    The collector is held off, so the chunk never pays for a collection
    of garbage the program left behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0
        seen = {}
        for k in range(25):
            rows = [[(i * 7 + j * 13 + k) % 17 - 8 for j in range(4)]
                    for i in range(6)]
            for row in rows:
                g = 0
                for x in row:
                    g = gcd(g, x)
                key = tuple(x // g for x in row) if g else tuple(row)
                seen[key] = seen.get(key, 0) + 1
            p = 1
            for x in range(1, 30):
                p = p * (x + k) + 7
            total += p % 1000003 + len(seen)
        return total
    finally:
        if enabled:
            gc.enable()


def timed_chunk():
    start = time.perf_counter()
    reference_chunk()
    return time.perf_counter() - start


def setup_factor(count=21):
    """Reference factor of this process right now: the median of `count`
    chunks, for a measurement that cannot be sampled while it runs (the
    set-up, whose time is mostly spent in imports)."""
    return NOMINAL_CHUNK_S / statistics.median(
        timed_chunk() for _ in range(count))


class Probe:
    """Samples the reference chunk during one request at a time:

        with probe:
            elapsed = serve(request)
        at_reference_speed = (elapsed - probe.spent) * probe.factor()
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _on_tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            took = timed_chunk()
            self.samples.append(took)
            self.spent += took
        finally:
            self._busy = False

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGVTALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
        self.samples.append(timed_chunk())
        return False

    def factor(self):
        return NOMINAL_CHUNK_S / statistics.fmean(self.samples)
