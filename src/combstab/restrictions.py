"""Classification of restrictions of a polarization-semistable bundle.

Assuming the bundle on the comb is semistable for the given polarization,
each restriction to a tooth is either provably semistable or constrained to
a short list of numerically admissible destabilizers (rank, euler) pairs.
One classifier, :func:`classify_restriction`, covers every rank >= 2: its
criteria are sharp at rank 2 and partial above.  All verdicts are
conditional on that assumption; the module never decides semistability of
the bundle itself.

The destabilizer range of each rank is two floor divisions, taken here;
tooth j's Euler numbers and index check come from :mod:`~combstab.model`.

Validation is at the boundary only: each public function checks its input,
derives chi_j and chi once and calls one private core on those numbers
(``_classify``, ``_filtered``, ``_candidate_range``), which a caller holding
them (the CLI) calls directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .model import BundleData, CombCurve, Polarization, _check_lengths, _tooth_eulers


class RestrictionCase(Enum):
    SEMISTABLE_BY_WINDOW = "SemistableByWindow"
    SEMISTABLE_BY_PARITY = "SemistableByParity"
    SEMISTABLE_BY_DIVISIBILITY = "SemistableByDivisibility"
    POSSIBLY_UNSTABLE = "PossiblyUnstable"
    INCONCLUSIVE_INTEGRAL_WCHI = "InconclusiveIntegralWChi"

    @property
    def is_semistable(self) -> bool:
        return self in (
            RestrictionCase.SEMISTABLE_BY_WINDOW,
            RestrictionCase.SEMISTABLE_BY_PARITY,
            RestrictionCase.SEMISTABLE_BY_DIVISIBILITY,
        )


@dataclass(frozen=True, slots=True)
class RestrictionVerdict:
    """Conditional verdict for one tooth restriction.

    ``forced_destabilizers`` lists every numerically admissible (rank,
    euler characteristic) pair of a destabilizing subbundle; it is nonempty
    only for POSSIBLY_UNSTABLE.
    """

    j: int
    case: RestrictionCase
    forced_destabilizers: tuple[tuple[int, int], ...] = ()
    notes: str = ""


def euclidean_remainder(value: int, modulus: int) -> int:
    """Remainder in {0, ..., modulus-1}, also for negative values.

    -7 mod 3 is 2 here (so -7 = 3*(-3) + 2), never the truncated -1.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    return value % modulus


def _integral_wchi(w_j: Fraction, chi: int) -> bool:
    """Whether w_j*chi is an integer: q divides p*chi for w_j = p/q."""
    return (w_j.numerator * chi) % w_j.denominator == 0


def _in_window(w_j: Fraction, chi: int, chi_j: int, a: int) -> bool:
    """w_j*chi + a < chi_j < w_j*chi + a + 1, as p*chi + a*q < chi_j*q < p*chi + (a+1)*q."""
    p, q = w_j.numerator, w_j.denominator
    low = p * chi + a * q
    return low < chi_j * q < low + q


def destabilizer_candidates(
    curve: CombCurve, bundle: BundleData, w: Polarization, j: int, k: int
) -> list[int]:
    """All integers chi_L admissible for a rank-k destabilizer of the tooth-j restriction.

    Admissible means chi_L/k > chi_j/n (strictly destabilizing) together
    with chi_L <= k*w_j*chi/n + k, the ceiling imposed on twisted-down
    subsheaves by semistability of the whole bundle.
    """
    n = bundle.rank
    if not 1 <= k <= n - 1:
        raise ValueError(f"destabilizer rank must be in 1..{n - 1}, got {k}")
    _check_lengths(curve, w.weights, "polarization")
    chi_j, chi = _tooth_eulers(curve, bundle, j)
    return list(_candidate_range(k, n, chi_j, chi, w.weights[j - 1]))


def _candidate_range(k: int, n: int, chi_j: int, chi: int, w_j: Fraction) -> range:
    """chi_L with k*chi_j/n < chi_L <= k*p*chi/(q*n) + k, w_j = p/q: two floor divisions."""
    return range(k * chi_j // n + 1, k * w_j.numerator * chi // (w_j.denominator * n) + k + 1)


def filtered_destabilizer_candidates(
    curve: CombCurve, bundle: BundleData, w: Polarization, j: int
) -> tuple[tuple[int, int], ...]:
    """Raw candidates for every rank, filtered by the divisibility constraints.

    When n | chi_j, pairs with k | chi_L are excluded outright and the rest
    must sit at chi_j*k/n + a with 0 < a < k; otherwise pairs with k | chi_L
    are pinned to the single quotient chi_j/n + (n - r_j)/n.
    """
    _check_lengths(curve, w.weights, "polarization")
    chi_j, chi = _tooth_eulers(curve, bundle, j)
    return _filtered(bundle.rank, chi_j, chi, w.weights[j - 1])


def _filtered(n: int, chi_j: int, chi: int, w_j: Fraction) -> tuple[tuple[int, int], ...]:
    n_divides = chi_j % n == 0
    forced_quotient = chi_j // n + 1  # slope forced on candidates with k | chi_L
    kept = []
    for k in range(1, n):
        candidates = _candidate_range(k, n, chi_j, chi, w_j)
        if n_divides:
            # The range starts just above k*chi_j/n, a multiple of k, so its
            # first k - 1 entries are exactly the survivors.
            kept.extend((k, chi_l) for chi_l in candidates[: k - 1])
        elif k == 1:
            if forced_quotient in candidates:
                kept.append((1, forced_quotient))
        else:
            kept.extend(
                (k, chi_l) for chi_l in candidates if chi_l % k or chi_l // k == forced_quotient
            )
    return tuple(kept)


def _listing_length(n: int, chis: Sequence[int], chi: int, w: Polarization) -> int:
    """Bound on the entries the classifier walks or lists over all teeth.

    A tooth with w_j*chi an integer lists nothing.  Otherwise, with n | chi_j
    each rank k keeps at most k - 1 pairs, at most n(n-1)/2 in all; without
    it rank 1 keeps at most one pair and the ranks k >= 2 are walked entry
    by entry, at least half of them listed.
    """
    per_tooth = n * (n - 1) // 2
    total = 0
    for w_j, chi_j in zip(w.weights, chis[:-1]):
        if _integral_wchi(w_j, chi):
            continue
        if chi_j % n == 0:
            total += per_tooth
            continue
        total += 1
        for k in range(2, n):
            candidates = _candidate_range(k, n, chi_j, chi, w_j)
            total += max(0, candidates.stop - candidates.start)
    return total


def classify_restriction(
    curve: CombCurve, bundle: BundleData, w: Polarization, j: int
) -> RestrictionVerdict:
    """Classification of the tooth-j restriction (rank >= 2).

    With w_j*chi an integer the classification is silent.  Otherwise the
    top unit window above w_j*chi + n - 1 proves semistability when n = 2 or
    n | chi_j.  At rank 2 an even chi_j proves semistability, and otherwise
    the only admissible destabilizer is a line subbundle with euler
    (chi_j + 1)/2.  Above rank 2 every destabilizer candidate must survive
    the divisibility filters (no k | chi_L when n | chi_j; integral-slope
    candidates pinned to chi_j/n + (n - r_j)/n), and an exhausted candidate
    list with n | chi_j is itself a semistability proof.
    """
    n = bundle.rank
    if n < 2:
        raise ValueError(f"classification needs rank >= 2, got {n}")
    _check_lengths(curve, w.weights, "polarization")
    chi_j, chi = _tooth_eulers(curve, bundle, j)
    return _classify(n, chi_j, chi, w.weights[j - 1], j)


def _classify(n: int, chi_j: int, chi: int, w_j: Fraction, j: int) -> RestrictionVerdict:
    if _integral_wchi(w_j, chi):
        wchi = w_j.numerator * chi // w_j.denominator
        return RestrictionVerdict(
            j=j,
            case=RestrictionCase.INCONCLUSIVE_INTEGRAL_WCHI,
            notes=f"w_{j}*chi = {wchi} is an integer; the classification is silent here",
        )
    n_divides = chi_j % n == 0
    if (n == 2 or n_divides) and _in_window(w_j, chi, chi_j, n - 1):
        return RestrictionVerdict(
            j=j,
            case=RestrictionCase.SEMISTABLE_BY_WINDOW,
            notes=(
                f"chi_{j} = {chi_j} lies in the upper unit window above w_{j}*chi + 1"
                if n == 2
                else f"{n} divides chi_{j} = {chi_j} and chi_{j} lies in the top unit window"
            ),
        )
    if n == 2 and n_divides:
        return RestrictionVerdict(
            j=j,
            case=RestrictionCase.SEMISTABLE_BY_PARITY,
            notes=f"chi_{j} = {chi_j} is even; no line subbundle can reach slope above chi_{j}/2",
        )
    forced = _filtered(n, chi_j, chi, w_j)
    if n == 2:
        # The only value a destabilizing line subbundle can take; intersecting
        # with the admissible range keeps the verdict honest on inputs that
        # already violate the necessary inequalities.
        forced_euler = (chi_j + 1) // 2
        if any(pair != (1, forced_euler) for pair in forced):
            raise RuntimeError(f"rank-2 filter kept {forced}, not only (1, {forced_euler})")
        if forced:
            notes = (
                f"a destabilizer must be a line subbundle with euler characteristic "
                f"{forced_euler} (= (chi_{j} + 1)/2)"
            )
        else:
            notes = (
                f"the forced line-subbundle euler {forced_euler} (= (chi_{j} + 1)/2) is "
                f"itself outside the admissible range, so nothing can destabilize; the "
                f"semistability hypothesis on the whole bundle must already fail here"
            )
    elif n_divides and not forced:
        return RestrictionVerdict(
            j=j,
            case=RestrictionCase.SEMISTABLE_BY_DIVISIBILITY,
            notes=(
                f"{n} divides chi_{j} = {chi_j} and the divisibility filters exclude "
                f"every admissible destabilizer"
            ),
        )
    elif forced:
        r_j = chi_j % n
        notes = (
            f"admissible destabilizers listed as (rank, euler); "
            f"remainder of chi_{j} mod {n} is {r_j}"
        )
    else:
        notes = (
            "no numerically admissible destabilizer survives, but no semistability "
            "criterion applies either"
        )
    return RestrictionVerdict(
        j=j,
        case=RestrictionCase.POSSIBLY_UNSTABLE,
        forced_destabilizers=forced,
        notes=notes,
    )
