"""Necessary slope inequalities, feasibility regions and polarization synthesis.

For a bundle of rank n with component Euler characteristics chi_j and total
chi, a polarization w can only make the bundle semistable when

    w_j * chi <= chi_j <= w_j * chi + n        for j = 1, ..., N-1.

Each side of the inequality is witnessed by an explicit subsheaf profile, so
a failed check is a certificate, not just a boolean.  Solving the same
inequalities for w_j yields a rational interval per tooth; picking the
simplest rational in each strict interval and completing on the spine
constructs a polarization whenever one exists.

Predicates are decided on integers: each side of the inequality, each
witness slope's sign condition and the synthesis re-pick's comparison are
cross-multiplications of numerators and denominators.
``Fraction`` holds the reported values (witness slopes, interval ends,
picks), each built once from integers.  Every N-term sum (the weight sum,
the slack, the pick totals) is the pairwise integer sum of
:func:`~combstab.model._exact_sum`, reduced once at the end.  The slack is
taken once, where the region decides feasibility, and synthesis re-picks
from that same value.  The interval ends and their clipping to (0, 1) stay
``Fraction`` arithmetic.

Validation is at the boundary only: each public function checks its input,
derives chi_j and chi once and calls one private core on those numbers
(``_necessary``, ``_region``, ``_synthesize``), which a caller holding them
(the CLI) calls directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn, Sequence

from . import kernels
from .model import (
    BundleData,
    CombCurve,
    Polarization,
    ToothWitness,
    _check_lengths,
    _exact_sum,
    _tooth_eulers,
    component_eulers,
    format_rational,
    total_euler,
)


@dataclass(frozen=True, slots=True)
class IntervalQ:
    """Rational interval with finite, independently open/closed endpoints.

    Emptiness is a derived property; :meth:`empty` gives the canonical
    empty interval.
    """

    lo: Fraction
    hi: Fraction
    lo_open: bool = False
    hi_open: bool = False

    @classmethod
    def open(cls, lo: Fraction, hi: Fraction) -> "IntervalQ":
        return cls(lo, hi, lo_open=True, hi_open=True)

    @classmethod
    def empty(cls) -> "IntervalQ":
        return cls(Fraction(0), Fraction(0), lo_open=True, hi_open=True)

    @property
    def is_empty(self) -> bool:
        if self.lo == self.hi:
            return self.lo_open or self.hi_open
        return self.lo > self.hi

    def render(self) -> str:
        if self.is_empty:
            return "(empty)"
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{format_rational(self.lo)}, {format_rational(self.hi)}{right}"


@dataclass(frozen=True, slots=True)
class ComponentCheck:
    """Outcome of the two-sided inequality at one tooth, with witness on failure."""

    j: int
    lower_ok: bool
    upper_ok: bool
    witness: ToothWitness | None = None
    witness_slope: Fraction | None = None


@dataclass(frozen=True, slots=True)
class NecessaryVerdict:
    components: tuple[ComponentCheck, ...]
    overall_pass: bool


def canonical_witnesses(
    curve: CombCurve, bundle: BundleData, j: int
) -> tuple[ToothWitness, ToothWitness]:
    """The two subsheaf profiles that witness failures of the inequality at tooth j.

    First the restriction to C_j twisted down at its node (supported on the
    tooth alone, euler chi_j - n); second the complementary subsheaf
    supported off the tooth (euler chi - chi_j).  1 <= j <= N-1.
    """
    chi_j, chi = _tooth_eulers(curve, bundle, j)
    num, n = curve.num_components, bundle.rank
    return _restricted(num, n, chi_j, j), _complement(num, n, chi_j, chi, j)


def _restricted(num: int, n: int, chi_j: int, j: int) -> ToothWitness:
    return ToothWitness(f"E_{j}(-p_{j})", j, num, n, 0, chi_j - n)


def _complement(num: int, n: int, chi_j: int, chi: int, j: int) -> ToothWitness:
    return ToothWitness(f"tilde-E_{j}", j, num, 0, n, chi - chi_j)


def _tooth_sides(w_j: Fraction, chi_j: int, chi: int, n: int, strict: bool = False) -> tuple[bool, bool]:
    """Lower and upper side of w_j*chi <= chi_j <= w_j*chi + n (strict: with <).

    Decided by cross-multiplication: with w_j = p/q, q > 0, the sides read
    p*chi <= chi_j*q <= p*chi + n*q.
    """
    p, q = w_j.numerator, w_j.denominator
    low, mid = p * chi, chi_j * q
    if strict:
        return low < mid, mid < low + n * q
    return low <= mid, mid <= low + n * q


def necessary_check(curve: CombCurve, bundle: BundleData, w: Polarization) -> NecessaryVerdict:
    """Test w_j*chi <= chi_j <= w_j*chi + n at every tooth, attaching witnesses.

    A lower failure is witnessed by the complementary profile, an upper
    failure by the twisted restriction; the attached witness always has
    polarized slope strictly above chi/n.  Only the reported witness is
    built.  Its slope needs no N-term sum: the twisted restriction has
    weighted multirank n*w_j and the complement n*(S - w_j), S the weight
    sum, taken once per call.  With w_j = p/q and S = P/Q the slopes are
    euler*q/(n*p) and euler*Q*q/(n*(P*q - p*Q)), each one ``Fraction`` of
    integers; a weighted multirank <= 0 raises the ValueError of
    :func:`~combstab.model.slope`.
    """
    n = bundle.rank
    chis, chi = component_eulers(curve, bundle), total_euler(curve, bundle)
    _check_lengths(curve, w.weights, "polarization")
    sides = [_tooth_sides(w_j, chi_j, chi, n) for w_j, chi_j in zip(w.weights, chis[:-1])]
    return _necessary(n, chis, chi, w.weights, _exact_sum(w.weights), sides)


def _necessary(
    n: int, chis: Sequence[int], chi: int, weights: Sequence[Fraction], total: Fraction, sides: list
) -> NecessaryVerdict:
    """The verdict from each tooth's (lower_ok, upper_ok) in ``sides``; ``total`` is S."""
    num = len(chis)
    big_p, big_q = total.numerator, total.denominator
    checks = []
    for j, (w_j, chi_j, (lower_ok, upper_ok)) in enumerate(zip(weights, chis, sides), start=1):
        witness = witness_slope = None
        p, q = w_j.numerator, w_j.denominator
        if not lower_ok:
            witness = _complement(num, n, chi_j, chi, j)
            rest = big_p * q - p * big_q  # (S - w_j)*Q*q
            if rest <= 0:
                _refuse_weighted(n * (total - w_j))
            witness_slope = Fraction(witness.euler * big_q * q, n * rest)
        elif not upper_ok:
            witness = _restricted(num, n, chi_j, j)
            if p <= 0:
                _refuse_weighted(n * w_j)
            witness_slope = Fraction(witness.euler * q, n * p)
        checks.append(ComponentCheck(j, lower_ok, upper_ok, witness, witness_slope))
    return NecessaryVerdict(
        components=tuple(checks),
        overall_pass=all(c.lower_ok and c.upper_ok for c in checks),
    )


def _refuse_weighted(weighted: Fraction) -> NoReturn:
    raise ValueError(f"weighted multirank must be positive, got {weighted}")


@dataclass(frozen=True, slots=True)
class FeasibleRegion:
    """Per-tooth weight intervals plus the simplex-completion feasibility flag."""

    intervals: tuple[IntervalQ, ...]
    feasible: bool
    strict: bool


# Every clipped end shares these immutable values.
_ZERO, _ONE = Fraction(0), Fraction(1)


def _tooth_interval(chi_j: int, chi: int, n: int, strict: bool) -> IntervalQ:
    """The tooth's weight interval clipped to (0, 1); a clipped end is open."""
    if chi == 0:
        # The inequality no longer involves w_j at all.
        ok = 0 < chi_j < n if strict else 0 <= chi_j <= n
        return IntervalQ.open(_ZERO, _ONE) if ok else IntervalQ.empty()
    lo, hi = Fraction(chi_j - n, chi), Fraction(chi_j, chi)
    if chi < 0:
        lo, hi = hi, lo
    lo_open = hi_open = strict
    if lo <= 0:
        lo, lo_open = _ZERO, True
    if hi >= 1:
        hi, hi_open = _ONE, True
    return IntervalQ(lo, hi, lo_open=lo_open, hi_open=hi_open)


def feasible_region(curve: CombCurve, bundle: BundleData, strict: bool = False) -> FeasibleRegion:
    """Solve the per-tooth inequalities for w_j, clipped to (0, 1).

    ``strict=True`` solves the open variant used for synthesis.  The region
    is feasible when each interval is nonempty and some choice of teeth
    weights leaves the spine weight w_N = 1 - sum(w_j) strictly inside
    (0, 1).  Every clipped interval lies in (0, 1) and holds points as close
    to its lower end lo_j as wished, so this holds exactly when the slack
    1 - sum(lo_j) is positive.
    """
    chis, chi = component_eulers(curve, bundle), total_euler(curve, bundle)
    return _region(chis, chi, bundle.rank, strict)[0]


def _region(
    chis: Sequence[int], chi: int, n: int, strict: bool
) -> tuple[FeasibleRegion, Fraction | None]:
    """The region and its slack 1 - sum(lo_j), taken once.

    The slack is the weight left for the spine with every tooth at its lower
    end; it is None when some interval is empty.
    """
    intervals = tuple(_tooth_interval(chi_j, chi, n, strict) for chi_j in chis[:-1])
    slack = None
    if all(not iv.is_empty for iv in intervals):
        slack = 1 - _exact_sum(iv.lo for iv in intervals)
    feasible = slack is not None and slack > 0
    return FeasibleRegion(intervals=intervals, feasible=feasible, strict=strict), slack


def pick_simplest_rational(interval: IntervalQ) -> Fraction:
    """Rational with the smallest denominator in the interval (smallest numerator on ties).

    Open interiors are searched by Stern-Brocot descent; closed endpoints
    simply compete as candidates.  Requires a nonempty interval.
    """
    if interval.is_empty:
        raise ValueError("empty interval has no simplest rational")
    candidates = []
    if not interval.lo_open:
        candidates.append(interval.lo)
    if not interval.hi_open:
        candidates.append(interval.hi)
    if interval.lo < interval.hi:
        p, q = kernels.simplest_between(
            interval.lo.numerator,
            interval.lo.denominator,
            interval.hi.numerator,
            interval.hi.denominator,
        )
        candidates.append(Fraction(p, q))
    return min(candidates, key=lambda f: (f.denominator, f.numerator))


def _strict_inequalities_hold(chis: Sequence[int], chi: int, n: int, w: Polarization) -> bool:
    return all(
        all(_tooth_sides(w_j, chi_j, chi, n, strict=True)) for w_j, chi_j in zip(w.weights, chis[:-1])
    )


def synthesize_polarization(curve: CombCurve, bundle: BundleData) -> Polarization | None:
    """Construct a polarization satisfying the strict inequalities, or None.

    Picks the simplest rational in each strict tooth interval and completes
    with w_N = 1 - sum.  The picks lie in (0, 1), so w_N < 1; if they push
    w_N to 0 or below, each tooth is picked once more in its share of the
    slack s = 1 - sum(lo_j), the open interval
    (lo_j, min(hi_j, lo_j + s/(N-1))).  These picks sum to less than
    sum(lo_j) + s = 1, so a feasible region (s > 0) always yields a
    polarization.  A first pick already inside its share is kept: the
    simplest rational of an interval is also that of any subinterval
    holding it.  The re-pick compares by cross-multiplication and hands the
    integer ends to :func:`kernels.simplest_between`.
    """
    return _synthesize(component_eulers(curve, bundle), total_euler(curve, bundle), bundle.rank)


def _synthesize(chis: Sequence[int], chi: int, n: int) -> Polarization | None:
    region, slack = _region(chis, chi, n, strict=True)
    if not region.feasible:
        return None
    intervals = region.intervals
    picks = [pick_simplest_rational(iv) for iv in intervals]
    total = _exact_sum(picks)
    if total >= 1:
        picks = [
            _repick(pick, iv.lo, slack.numerator, slack.denominator * len(intervals))
            for pick, iv in zip(picks, intervals)
        ]
        total = _exact_sum(picks)
    # Picks and their total in (0, 1) leave the spine weight 1 - total in
    # (0, 1) as well, and the weights sum to 1 by construction.
    in_unit = all(0 < x.numerator < x.denominator for x in (*picks, total))
    w = Polarization(tuple(picks) + (1 - total,))
    if not in_unit or not _strict_inequalities_hold(chis, chi, n, w):
        raise RuntimeError("synthesized polarization violates the strict inequalities")
    return w


def _repick(pick: Fraction, lo: Fraction, share_p: int, share_q: int) -> Fraction:
    """``pick`` if below lo + share_p/share_q, else the simplest rational in (lo, lo + share).

    ``pick`` lies inside its open tooth interval (lo, hi), so a re-picked
    tooth has lo + share <= pick < hi: its share ends below hi and is the
    whole interval (lo, min(hi, lo + share)).  With lo = a/b the end is
    (a*share_q + share_p*b)/(b*share_q), left unreduced.
    """
    a, b = lo.numerator, lo.denominator
    top_p, top_q = a * share_q + share_p * b, b * share_q
    if pick.numerator * top_q < top_p * pick.denominator:
        return pick
    return Fraction(*kernels.simplest_between(a, b, top_p, top_q))
