"""Root-set formulas for Bernstein-Sato zero loci of quasi-homogeneous input.

Everything here is finite set arithmetic over exact rationals, driven by the
degree data in a MilnorProfile: the isolated-singularity formula, the new
roots coming from H0_m degrees, the zero set of the b-function of the
logarithmic module, the partial-symmetry set Xi, the (-3,-2] window, the
twisted logarithmic comparison test, and the homogeneous taxonomy that
reconstructs a full zero set from tau, the degree, and the [-1,0) roots.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .polyring import PreconditionError, format_rational


class RootSet:
    """Finite set of rational numbers, kept sorted ascending.  Duplicates
    go in input order, so monotone input or two merged runs sort linearly."""

    __slots__ = ("roots",)

    def __init__(self, roots=()):
        self.roots = tuple(sorted(dict.fromkeys(roots)))

    def union(self, other):
        return RootSet(self.roots + tuple(other))

    def difference(self, other):
        drop = set(other)
        return RootSet(r for r in self.roots if r not in drop)

    def window(self, lo, hi, include_lo=False, include_hi=True):
        lo, hi = Fraction(lo), Fraction(hi)
        out = []
        for r in self.roots:
            above = r > lo or (include_lo and r == lo)
            below = r < hi or (include_hi and r == hi)
            if above and below:
                out.append(r)
        return RootSet(out)

    def sigma_image(self):
        return RootSet(-2 - r for r in self.roots)

    def __contains__(self, r):
        r = Fraction(r)
        i = bisect_left(self.roots, r)
        return i < len(self.roots) and self.roots[i] == r

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)

    def __eq__(self, other):
        if isinstance(other, RootSet):
            return self.roots == other.roots
        return self.roots == RootSet(other).roots

    def __repr__(self):
        return "{%s}" % ", ".join(format_rational(r) for r in self.roots)


def sigma(alpha):
    """The reflection sigma(a) = -2 - a, an involution."""
    return -2 - Fraction(alpha)


class SymmetryReport:
    __slots__ = ("xi_set", "sigma_pairs", "asymmetric_outside_xi")

    def __init__(self, xi_set, sigma_pairs, asymmetric_outside_xi):
        self.xi_set = xi_set
        self.sigma_pairs = sigma_pairs
        self.asymmetric_outside_xi = asymmetric_outside_xi

    def __repr__(self):
        return ("SymmetryReport(xi=%r, pairs=%s, violations=%r)"
                % (self.xi_set, self.sigma_pairs,
                   self.asymmetric_outside_xi))


class HomogeneousTaxonomy:
    __slots__ = ("tau", "upsilon", "window_small", "reconstruction",
                 "determined_by")

    def __init__(self, tau, upsilon, window_small, reconstruction,
                 determined_by):
        self.tau = tau
        self.upsilon = upsilon
        self.window_small = window_small
        self.reconstruction = reconstruction
        self.determined_by = determined_by

    def __repr__(self):
        return ("HomogeneousTaxonomy(tau=%s, upsilon=%r, small=%r)"
                % (self.tau, self.upsilon, self.window_small))


def _h0_roots(profile, degrees, shift=0):
    """shift - (t + sum of weights)/wdeg(f) over the degrees t: the one map
    from H0 degrees to roots; ascending degrees give descending roots.
    Each root is one Fraction (shift*D - S - k)/D of integers, D = L*wdeg(f),
    S = L*sum(w), k = L*t, for L the weights' common denominator: a multiple
    of the denominator of every weighted degree t, an int or a Fraction."""
    L = profile.weights.denominator
    d = profile.wdeg_f
    D = d.numerator * (L // d.denominator)
    base = shift * D - sum(profile.weights.scaled)
    return [Fraction(base - t.numerator * (L // t.denominator), D)
            for t in degrees]


def roots_isolated(profile):
    """Zero set for an isolated quasi-homogeneous singularity:
    -(t + sum of weights)/wdeg(f) over Milnor algebra degrees t, plus -1."""
    if not profile.is_isolated:
        raise PreconditionError("singular locus is not isolated; the "
                                "isolated-singularity formula does not apply")
    degrees = profile.milnor_algebra_degrees.support
    return RootSet(_h0_roots(profile, degrees) + [-1])


def new_roots(profile):
    """-(t + sum of weights)/wdeg(f) over the H0 support; these belong to
    the Bernstein-Sato zero set of any reduced locally quasi-homogeneous f."""
    return RootSet(_h0_roots(profile, profile.h0.support))


def blf_roots(profile):
    """Zero set of the b-function of the logarithmic module:
    (-t + 2*wdeg(f) - sum of weights)/wdeg(f) over the H0 support, the new
    roots shifted by 2.  Empty output encodes b-function 1."""
    return RootSet(_h0_roots(profile, profile.h0.support, 2))


def xi_set(profile):
    """Xi = the new roots and their shift by 1; the zero set is
    sigma-symmetric away from Xi."""
    return RootSet(_h0_roots(profile, profile.h0.support)
                   + _h0_roots(profile, profile.h0.support, 1))


def check_partial_symmetry(zeros, xi):
    """Which elements of zeros outside xi fail to pair under sigma."""
    zeros = RootSet(zeros)
    xi = RootSet(xi)
    outside = zeros.difference(xi)
    violations = [a for a in outside if sigma(a) not in outside]
    pairs = []
    for a in outside:
        b = sigma(a)
        if b in outside and a <= b:
            pairs.append((a, b))
    return SymmetryReport(xi, pairs, RootSet(violations))


def small_roots(profile):
    """The part of the zero set in (-3, -2], which the H0 degrees determine
    exactly."""
    return new_roots(profile).window(-3, -2)


def tlct_holds(profile, lam):
    """Twisted logarithmic comparison test for lambda <= 0: holds iff
    -(lambda - 2) * wdeg(f) - sum of weights avoids the H0 support."""
    lam = Fraction(lam)
    if lam > 0:
        raise PreconditionError("twisted comparison test needs lambda <= 0")
    value = -(lam - 2) * profile.wdeg_f - profile.weight_sum
    return value not in profile.h0.entries


def reconstruct_zero_set(tau, d, interval_roots):
    """Zero set from the taxonomy data: tau (None when H0 = 0), the degree,
    and the [-1,0) roots.  Upsilon is the tau-symmetric block of candidate
    roots; the (-2,-1) part combines Upsilon with the sigma-reflection of
    the supplied (-1,0) roots."""
    interval = RootSet(interval_roots)
    bad = [r for r in interval if not (-1 <= r < 0)]
    if bad:
        raise PreconditionError("interval roots must lie in [-1, 0); got %s"
                                % bad)
    if tau is None:
        upsilon = RootSet()
    else:
        upsilon = RootSet(Fraction(-(t + 3), d)
                          for t in range(tau, 3 * d - 6 - tau + 1))
    part_small = upsilon.window(-3, -2)
    part_mid = upsilon.window(-2, -1, include_hi=False).union(
        interval.window(-1, 0, include_lo=False, include_hi=False)
        .sigma_image())
    part_interval = interval.union(upsilon.window(-1, 0, include_lo=True,
                                                  include_hi=False))
    full = part_small.union(part_mid).union(part_interval)
    return upsilon, part_small, full


def homogeneous_taxonomy(profile, interval_roots):
    """Taxonomy of the zero set of a reduced locally quasi-homogeneous
    homogeneous polynomial, determined by tau = min H0 degree, the degree,
    and the externally supplied [-1,0) roots."""
    if profile.weights.weights != (1, 1, 1):
        raise PreconditionError("taxonomy applies to the standard grading "
                                "only")
    if profile.h0.is_empty():
        raise PreconditionError("H0 is zero: tau is undefined")
    tau = profile.h0.support[0]
    if tau.denominator != 1:
        raise PreconditionError("tau must be an integer under w = 1")
    tau = int(tau)
    d = int(profile.wdeg_f)
    upsilon, part_small, full = reconstruct_zero_set(tau, d, interval_roots)
    determined_by = {
        "tau": tau,
        "degree": d,
        "supplied_interval_roots": RootSet(interval_roots),
    }
    return HomogeneousTaxonomy(tau, upsilon, part_small, full, determined_by)
