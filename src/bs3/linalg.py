"""Exact rank computations over Q via integer row reduction.

Matrices are lists of equal-length rows with int or Fraction entries.
Rows are rescaled to primitive integer vectors, so elimination uses only
integer cross-multiplication and gcd normalization; no rounding anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .groebner import _budget, _scaling_steps


def _primitive_int_row(row):
    """Scale a rational row to a primitive integer row (gcd 1, or all zero).
    An entry that is neither an int nor a Fraction, such as a float or a
    str, is refused with TypeError rather than rounded or parsed."""
    denom = 1
    for v in row:
        if isinstance(v, Fraction):
            denom = lcm(denom, v.denominator)
        elif not isinstance(v, int):
            raise TypeError("matrix entries must be int or Fraction, got %r"
                            % (v,))
    ints = [v.numerator * (denom // v.denominator) for v in row]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _check_rectangular(rows):
    if not rows:
        return 0
    width = len(rows[0])
    for r in rows:
        if len(r) != width:
            raise ValueError("ragged matrix: row lengths differ")
    return width


def rank(rows):
    """Rank of a matrix given as a list of rows.  A row operation, row
    times a minus pivot row times b, spends steps of the open budget as a
    reduction step does (groebner._scaling_steps): one, and one more per
    64-bit word past the first of each of a and b."""
    width = _check_rectangular(rows)
    if width == 0:
        return 0
    budget = _budget()
    work = [_primitive_int_row(r) for r in rows]
    work = [r for r in work if any(r)]
    rk = 0
    for col in range(width):
        pivot = None
        for i in range(rk, len(work)):
            if work[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        prow = work[rk]
        pval = prow[col]
        for i in range(rk + 1, len(work)):
            row = work[i]
            v = row[col]
            if v == 0:
                continue
            g = gcd(pval, v)
            a, b = pval // g, v // g
            budget.spend(_scaling_steps(a, b))
            new = [a * x - b * y for x, y in zip(row, prow)]
            g2 = 0
            for x in new:
                g2 = gcd(g2, x)
            if g2 > 1:
                new = [x // g2 for x in new]
            work[i] = new
        work = [r for r in work if any(r)]
        rk += 1
        if rk >= len(work):
            break
    return rk
