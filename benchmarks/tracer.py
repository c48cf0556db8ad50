"""Outside-in tracer: wraps the public functions of every bs3 module.

Each public function is replaced by a wrapper in *every* namespace that
binds it (its own module, the modules that imported it by name, and the
package), so a call from `graded` into `groebner` is seen as a child span of
the `graded` span.  The monomial primitives (`mono_*`, `grevlex_key`),
private helpers and class methods are not wrapped: their time lands in the
caller's self time.

Spans are kept in flat arrays in memory (function, parent span, request,
start, end) and written out at the end of the run.  Argument keys and
results of `buchberger` and `saturate_irrelevant` are kept per span and
turned into counters only after the run, so their cost stays out of the
spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

LAYERS = ("polyring", "linalg", "groebner", "graded", "milnor", "bsroots",
          "arrangement", "cli")
OBSERVED = ("groebner.buchberger", "groebner.saturate_irrelevant")


def _excluded(name):
    return name.startswith("_") or name.startswith("mono_") or \
        name == "grevlex_key"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, layer) for layer in LAYERS]
        self.names = []          # "layer.function" per wrapped function
        self.wrappers = {}       # id(original) -> wrapper
        for layer, module in zip(LAYERS, self.modules):
            for name, obj in sorted(vars(module).items()):
                if (inspect.isfunction(obj) and not _excluded(name)
                        and obj.__module__ == module.__name__):
                    self.wrappers[id(obj)] = self._wrap(len(self.names), obj)
                    self.names.append("%s.%s" % (layer, name))
        self.observed = {i for i, n in enumerate(self.names) if n in OBSERVED}
        self.fn = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = []          # (span, name, args, kwargs, result)
        self.stack = [-1]
        self.request = 0
        self.patched = []

    def _wrap(self, index, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.fn)
            self.fn.append(index)
            self.parent.append(self.stack[-1])
            self.req.append(self.request)
            self.end.append(0.0)
            self.stack.append(span)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = time.perf_counter()
                self.stack.pop()
            if index in self.observed:
                self.calls.append((span, self.names[index], args, kwargs,
                                   result))
            return result

        return wrapper

    def install(self):
        for ns in [self.package] + self.modules:
            for attr, value in list(vars(ns).items()):
                wrapper = self.wrappers.get(id(value))
                if wrapper is not None:
                    self.patched.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, value in reversed(self.patched):
            setattr(ns, attr, value)
        self.patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its child spans cover."""
        n = len(self.fn)
        own = [self.end[i] - self.start[i] for i in range(n)]
        out = list(own)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                out[p] -= own[i]
        return out

    def summary(self):
        """Self time and call count per function and per layer, plus the
        buchberger/saturation counters."""
        self_s = self.self_times()
        per_fn = {}
        for i, t in enumerate(self_s):
            name = self.names[self.fn[i]]
            entry = per_fn.setdefault(name, [0.0, 0])
            entry[0] += t
            entry[1] += 1
        metrics = {}
        for layer in LAYERS:
            metrics[layer + ".self_s"] = 0.0
            metrics[layer + ".calls"] = 0
        for name, (t, count) in per_fn.items():
            layer = name.split(".", 1)[0]
            metrics[name + ".self_s"] = t
            metrics[name + ".calls"] = count
            metrics[layer + ".self_s"] += t
            metrics[layer + ".calls"] += count
        metrics.update(self._counters())
        return metrics

    def _counters(self):
        out = {}
        for name in OBSERVED:
            seen = set()
            calls = repeats = 0
            for span, fname, args, kwargs, _ in self.calls:
                if fname != name:
                    continue
                calls += 1
                try:
                    key = (self.req[span], args, tuple(sorted(kwargs.items())))
                    repeats += key in seen
                    seen.add(key)
                except TypeError:
                    pass
            out[name + ".repeat_ratio"] = repeats / calls if calls else 0.0
        bases = [r for _, fname, _, _, r in self.calls
                 if fname == "groebner.buchberger"]
        out["groebner.buchberger.basis_len_max"] = max(
            (len(b.elements) for b in bases), default=0)
        out["groebner.buchberger.coeff_bits_max"] = max(
            (_coeff_bits(b) for b in bases), default=0)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span\tparent\trequest\tfunction\tstart_s\tend_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.fn)):
                fh.write("%d\t%d\t%d\t%s\t%.7f\t%.7f\n" % (
                    i, self.parent[i], self.req[i], self.names[self.fn[i]],
                    self.start[i] - t0, self.end[i] - t0))


def _coeff_bits(basis):
    """Largest bit length of a numerator or denominator in a basis."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for p in basis.elements for c in p.terms.values()), default=0)
