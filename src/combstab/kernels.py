"""Hot integer kernel: the simplest fraction strictly inside an open interval.

Everything here is exact integer arithmetic on arbitrary-precision ints.
"""

from __future__ import annotations

BACKEND = "pure-python"


def simplest_between(ap: int, aq: int, bp: int, bq: int) -> tuple[int, int]:
    """Simplest fraction strictly inside the open interval (ap/aq, bp/bq).

    Returns the unique (numerator, denominator) in lowest terms with the
    smallest denominator among all fractions strictly between the endpoints
    (smallest numerator on the denominator-1 tie).  Stern-Brocot descent in
    continued-fraction form: runs of identical tree steps are taken in one
    Euclidean division, so the walk is logarithmic, never linear.

    Requires aq > 0, bq > 0 and ap/aq < bp/bq.
    """
    if aq <= 0 or bq <= 0:
        raise ValueError("denominators must be positive")
    if ap * bq >= bp * aq:
        raise ValueError("empty open interval")
    # Convergent frame: a local answer (p, q) lifts to
    # ((h1*p + h0*q) / (k1*p + k0*q)) in the original coordinates.
    h1, h0, k1, k0 = 1, 0, 0, 1
    while True:
        fl = ap // aq
        c = fl + 1
        if c * bq < bp and c * aq > ap:
            p, q = c, 1
            break
        ap2 = ap - fl * aq
        bp2 = bp - fl * bq
        if ap2 == 0:
            # Interval is (fl, fl + bp2/bq); simplest inside is fl + 1/q2.
            q2 = bq // bp2 + 1
            p, q = fl * q2 + 1, q2
            break
        h1, h0, k1, k0 = h1 * fl + h0, h1, k1 * fl + k0, k1
        # Shift into [0, 1) and invert; ordering is preserved.
        ap, aq, bp, bq = bq, bp2, aq, ap2
    return h1 * p + h0 * q, k1 * p + k0 * q
