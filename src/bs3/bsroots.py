"""Root-set formulas for Bernstein-Sato zero loci of quasi-homogeneous input.

Everything here is finite set arithmetic over exact rationals, driven by the
degree data in a MilnorProfile: the isolated-singularity formula, the new
roots coming from H0_m degrees, the zero set of the b-function of the
logarithmic module, the partial-symmetry set Xi, the (-3,-2] window, the
twisted logarithmic comparison test, and the homogeneous taxonomy that
reconstructs a full zero set from tau, the degree, and the [-1,0) roots.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm

from .polyring import PreconditionError, format_ratio


class RootSet:
    """Finite set of rational numbers, kept as ascending int numerators
    over one denominator.  RootSet(roots) takes Fractions or ints and uses
    the least common denominator of them; the H0 formulas hand over their
    numerators over D = L*wdeg(f) directly.  Iteration gives Fraction
    views.  Duplicates go in input order, so monotone input or two merged
    runs sort linearly."""

    __slots__ = ("numerators", "denominator")

    def __init__(self, roots=()):
        if isinstance(roots, RootSet):
            self.numerators = roots.numerators
            self.denominator = roots.denominator
            return
        roots = list(roots)
        D = lcm(*(r.denominator for r in roots))
        self.numerators = tuple(sorted(dict.fromkeys(
            r.numerator * (D // r.denominator) for r in roots)))
        self.denominator = D

    @classmethod
    def _over(cls, numerators, denominator):
        """The roots n/denominator over the ints n, in any order."""
        out = cls.__new__(cls)
        out.numerators = tuple(sorted(dict.fromkeys(numerators)))
        out.denominator = denominator
        return out

    def _common(self, other):
        """Both sets' numerators over the lcm of their denominators."""
        other = RootSet(other)
        D = lcm(self.denominator, other.denominator)
        a, b = D // self.denominator, D // other.denominator
        return (D, [n * a for n in self.numerators],
                [n * b for n in other.numerators])

    def union(self, other):
        D, mine, theirs = self._common(other)
        return RootSet._over(mine + theirs, D)

    def difference(self, other):
        D, mine, theirs = self._common(other)
        drop = set(theirs)
        return RootSet._over([n for n in mine if n not in drop], D)

    def window(self, lo, hi, include_lo=False, include_hi=True):
        """The roots between lo and hi, each end included as asked.  A
        bound off the grid 1/D splits the numerators as its floor does."""
        D, ns = self.denominator, self.numerators
        lo, hi = lo * D, hi * D
        cut_lo = (bisect_left if include_lo and lo.denominator == 1
                  else bisect_right)
        cut_hi = (bisect_left if not include_hi and hi.denominator == 1
                  else bisect_right)
        i = cut_lo(ns, lo.numerator // lo.denominator)
        j = cut_hi(ns, hi.numerator // hi.denominator)
        return RootSet._over(ns[i:j], D)

    def sigma_image(self):
        D = self.denominator
        return RootSet._over([-2 * D - n for n in self.numerators], D)

    def __contains__(self, r):
        n = r * self.denominator
        if n.denominator != 1:
            return False
        n = n.numerator
        i = bisect_left(self.numerators, n)
        return i < len(self.numerators) and self.numerators[i] == n

    def __iter__(self):
        D = self.denominator
        return (Fraction(n, D) for n in self.numerators)

    def __len__(self):
        return len(self.numerators)

    def __eq__(self, other):
        if not isinstance(other, RootSet):
            other = RootSet(other)
        a, b = self.denominator, other.denominator
        return (len(self) == len(other)
                and all(m * b == n * a for m, n in zip(self.numerators,
                                                      other.numerators)))

    def __repr__(self):
        D = self.denominator
        return "{%s}" % ", ".join(format_ratio(n, D) for n in self.numerators)


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


def _scaled(profile):
    """D = L*wdeg(f) and S = L*sum(w) as ints, for L the weights' common
    denominator, over which h0_degree_data keeps the H0 degrees k = L*t;
    L is a multiple of the denominator of wdeg(f)."""
    w = profile.weights
    L = w.denominator
    d = profile.wdeg_f
    return d.numerator * (L // d.denominator), sum(w.scaled)


def _h0_roots(profile, shifts):
    """shift - (t + sum of weights)/wdeg(f) over the H0 degrees t and the
    shifts: the one map from H0 degrees to roots.  Each root is returned
    as its numerator shift*D - S - k over D, for the scaled degree k = L*t
    (_scaled); the numerators and D come back as a list and an int, and
    ascending degrees give descending numerators."""
    D, S = _scaled(profile)
    degrees = profile.h0.scaled
    return [shift * D - S - k for shift in shifts for k in degrees], D


def roots_isolated(profile):
    """Zero set for an isolated quasi-homogeneous singularity:
    -(t + sum of weights)/wdeg(f) over Milnor algebra degrees t, plus -1.
    The Milnor algebra is H0 itself here (milnor_profile)."""
    if not profile.is_isolated:
        raise PreconditionError("singular locus is not isolated; the "
                                "isolated-singularity formula does not apply")
    numerators, D = _h0_roots(profile, (0,))
    return RootSet._over(numerators + [-D], D)


def new_roots(profile):
    """-(t + sum of weights)/wdeg(f) over the H0 support; these belong to
    the Bernstein-Sato zero set of any reduced locally quasi-homogeneous f."""
    return RootSet._over(*_h0_roots(profile, (0,)))


def blf_roots(profile):
    """Zero set of the b-function of the logarithmic module:
    (-t + 2*wdeg(f) - sum of weights)/wdeg(f) over the H0 support, the new
    roots shifted by 2.  Empty output encodes b-function 1."""
    return RootSet._over(*_h0_roots(profile, (2,)))


def xi_set(profile):
    """Xi = the new roots and their shift by 1; the zero set is
    sigma-symmetric away from Xi."""
    return RootSet._over(*_h0_roots(profile, (0, 1)))


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


def tlct_lambda(lam):
    """lam as a Fraction, refused unless lambda <= 0: the twisted
    comparison test's domain, checkable before any profile is built."""
    lam = Fraction(lam)
    if lam > 0:
        raise PreconditionError("twisted comparison test needs lambda <= 0")
    return lam


def tlct_holds(profile, lam):
    """Twisted logarithmic comparison test for lambda <= 0: holds iff
    -(lambda - 2) * wdeg(f) - sum of weights avoids the H0 support."""
    lam = tlct_lambda(lam)
    p, q = lam.numerator, lam.denominator
    # the value times L is ((2q - p)*D - S*q)/q; off the grid 1/L it is
    # no H0 degree
    D, S = _scaled(profile)
    k, off = divmod((2 * q - p) * D - S * q, q)
    return bool(off) or k not in profile.h0.scaled


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
        upsilon = RootSet._over([-(t + 3) for t in
                                 range(tau, 3 * d - 6 - tau + 1)], d)
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
    tau, off = divmod(next(iter(profile.h0.scaled)), profile.h0.denominator)
    if off:
        raise PreconditionError("tau must be an integer under w = 1")
    d = int(profile.wdeg_f)
    upsilon, part_small, full = reconstruct_zero_set(tau, d, interval_roots)
    determined_by = {
        "tau": tau,
        "degree": d,
        "supplied_interval_roots": RootSet(interval_roots),
    }
    return HomogeneousTaxonomy(tau, upsilon, part_small, full, determined_by)
