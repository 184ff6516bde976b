"""Longhand helpers the tests check the package against.

The interval helpers cross-multiply the ends and honour the open flags, so
they share no code with the package's interval arithmetic.  The synthesis
longhand states the re-pick rule with public pieces and ``Fraction`` sums.
"""

from fractions import Fraction

from combstab import IntervalQ, pick_simplest_rational


def _over(x: Fraction, y: Fraction) -> int:
    """Positive when x > y, zero when x == y: both denominators are positive."""
    return x.numerator * y.denominator - y.numerator * x.denominator


def interval_contains(iv: IntervalQ, value: Fraction) -> bool:
    """Whether value lies in iv; an open end excludes the value equal to it."""
    above, below = _over(value, iv.lo), _over(iv.hi, value)
    return (above > 0 or (above == 0 and not iv.lo_open)) and (
        below > 0 or (below == 0 and not iv.hi_open)
    )


def interval_intersection(a: IntervalQ, b: IntervalQ) -> IntervalQ:
    """The larger lower end and the smaller upper end; on equal ends the open one wins."""
    lo = _over(a.lo, b.lo)
    hi = _over(a.hi, b.hi)
    return IntervalQ(
        a.lo if lo >= 0 else b.lo,
        a.hi if hi <= 0 else b.hi,
        lo_open=a.lo_open if lo > 0 else b.lo_open if lo < 0 else a.lo_open or b.lo_open,
        hi_open=a.hi_open if hi < 0 else b.hi_open if hi > 0 else a.hi_open or b.hi_open,
    )


def synthesize_longhand(region):
    """Weights by the synthesis rule on a strict region, and whether the first picks were re-picked.

    The simplest rational in each tooth interval; when those total 1 or
    more, each tooth is picked again in its share (lo_j, lo_j + s/(N-1)) of
    the slack s = 1 - sum(lo_j), unless its first pick already lies there.
    """
    if not region.feasible:
        return None, False
    intervals = region.intervals
    picks = [pick_simplest_rational(iv) for iv in intervals]
    repicked = sum(picks, Fraction(0)) >= 1
    if repicked:
        share = (1 - sum((iv.lo for iv in intervals), Fraction(0))) / len(intervals)
        picks = [
            p if p < iv.lo + share
            else pick_simplest_rational(interval_intersection(iv, IntervalQ.open(iv.lo, iv.lo + share)))
            for p, iv in zip(picks, intervals)
        ]
    return (*picks, 1 - sum(picks, Fraction(0))), repicked
