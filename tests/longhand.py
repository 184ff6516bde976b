"""Longhand interval helpers the tests decide containment and intersection with.

They cross-multiply the ends and honour the open flags, so they share no
code with the package's interval arithmetic.
"""

from fractions import Fraction

from combstab import IntervalQ


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
