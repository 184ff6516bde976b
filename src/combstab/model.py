"""Exact numerical model for vector bundles on comb-like nodal curves.

A comb-like curve has N >= 2 smooth components: teeth C_1, ..., C_{N-1}
each meet the spine C_N in exactly one node p_j and meet nothing else.
Bundles are modelled by their numerical shadow only: rank, per-component
degrees, and the Euler characteristics derived from them.  All arithmetic
is exact; rationals are :class:`fractions.Fraction` and floating point is
banned throughout the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _check_int(value: object, what: str, *args: object) -> int:
    # ``args`` fill the ``{}`` fields of ``what`` only on failure: a valid entry formats no label.
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what.format(*args)} must be an integer, got {value!r}")
    return value


def _as_fraction(value: object, what: str, *args: object) -> Fraction:
    """Coerce to an exact rational; floats are rejected, never rounded."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    kind = "float " if isinstance(value, float) else ""
    raise TypeError(f"{what.format(*args)} must be exact (int, Fraction or 'p/q' string), got {kind}{value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` into a Fraction in lowest terms.

    After outer whitespace is stripped the text must match the ASCII
    grammar ``-?[0-9]+(/[0-9]+)?``; decimals, exponents, ``+`` signs, signed
    denominators, inner spaces, digit separators and non-ASCII digits are
    rejected, as the wire format is exact by contract.  A fraction not in
    lowest terms, such as ``"2/4"``, is accepted and reduced.
    """
    s = text.strip()
    if not _RATIONAL.fullmatch(s):
        raise ValueError(f"not an exact rational: {text!r}")
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc


def format_rational(value: Fraction | int) -> str:
    """Render in lowest terms: ``"p/q"``, or plain ``"p"`` for integers."""
    q = value if type(value) is Fraction else Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True, slots=True)
class CombCurve:
    """Numerical shape of a comb-like curve: one genus per component.

    Component indices are 1-based; the last index N is the spine.
    The arithmetic genus of the comb is the plain sum of the g_j, taken
    once on construction; it takes no part in equality, hashing or repr.
    """

    genera: tuple[int, ...]
    arithmetic_genus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "genera", tuple(self.genera))
        if len(self.genera) < 2:
            raise ValueError("a comb-like curve needs at least 2 components")
        for j, g in enumerate(self.genera, start=1):
            _check_int(g, "genus of component {}", j)
            if g < 0:
                raise ValueError(f"genus of component {j} is negative: {g}")
        object.__setattr__(self, "arithmetic_genus", sum(self.genera))

    @property
    def num_components(self) -> int:
        return len(self.genera)


@dataclass(frozen=True, slots=True)
class BundleData:
    """Rank and multidegree of a bundle on the comb (same rank on every component).

    The total degree, the plain sum of the multidegree, is taken once on
    construction; it takes no part in equality, hashing or repr.
    """

    rank: int
    multidegree: tuple[int, ...]
    total_degree: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "multidegree", tuple(self.multidegree))
        _check_int(self.rank, "rank")
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")
        for j, d in enumerate(self.multidegree, start=1):
            _check_int(d, "degree on component {}", j)
        object.__setattr__(self, "total_degree", sum(self.multidegree))


@dataclass(frozen=True, slots=True)
class Polarization:
    """Tuple of rational weights, one per component.

    Validity (each weight strictly between 0 and 1, exact sum 1) is checked
    by :func:`validate_polarization`, not by the constructor, so that the
    checker can report violations on arbitrary input.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coerced = tuple(_as_fraction(w, "weight {}", j) for j, w in enumerate(self.weights, start=1))
        object.__setattr__(self, "weights", coerced)


@dataclass(frozen=True, slots=True)
class SubsheafProfile:
    """Multirank and Euler characteristic of a candidate subsheaf.

    This is the general unit of slope comparison: witnesses against
    semistability are reported as profiles, never as geometric objects.
    The witnesses the package builds itself are :class:`ToothWitness`
    records, which store the same data in O(1).
    """

    multirank: tuple[int, ...]
    euler: int
    label: str = ""

    def __post_init__(self) -> None:
        multirank = tuple(self.multirank)
        object.__setattr__(self, "multirank", multirank)
        _check_int(self.euler, "euler characteristic")
        for j, r in enumerate(multirank, start=1):
            _check_int(r, "multirank entry {}", j)
            if r < 0:
                raise ValueError(f"multirank entry {j} is negative: {r}")
        if not any(multirank):
            raise ValueError("multirank must not be identically zero")


@dataclass(frozen=True, slots=True)
class ToothWitness:
    """Subsheaf profile with one rank on component j and another on every other one.

    Every witness the package reports has this shape: the twisted
    restriction E_j(-p_j) (rank n on tooth j, 0 elsewhere), its complement
    tilde-E_j (0 on the tooth, n elsewhere) and a trivial kernel part (rank
    k_j on component j, 0 elsewhere).  The record takes O(1) space whatever
    N is; :attr:`multirank` builds the N-entry tuple on request, so
    :func:`slope` accepts it like a :class:`SubsheafProfile`.
    """

    label: str
    j: int
    num_components: int
    on_tooth: int
    off_tooth: int
    euler: int

    @property
    def multirank(self) -> tuple[int, ...]:
        off = (self.off_tooth,)
        return off * (self.j - 1) + (self.on_tooth,) + off * (self.num_components - self.j)


def _check_lengths(curve: CombCurve, values: Sequence[object], what: str) -> None:
    if len(values) != curve.num_components:
        raise ValueError(
            f"{what} has {len(values)} entries for a curve with {curve.num_components} components"
        )


def component_eulers(curve: CombCurve, bundle: BundleData) -> tuple[int, ...]:
    """Per-component Euler characteristics chi_j of the bundle's restrictions.

    Curve and bundle validated their integers on construction, so only the
    lengths are checked here.
    """
    _check_lengths(curve, bundle.multidegree, "multidegree")
    n = bundle.rank
    return tuple(d + n * (1 - g) for g, d in zip(curve.genera, bundle.multidegree))


def total_euler(curve: CombCurve, bundle: BundleData) -> int:
    """Euler characteristic of the bundle on the whole comb.

    Gluing at the N-1 nodes costs rank * (N-1) against the sum of the
    component values, which leaves the closed form deg(E) + n*(1 - p_a).
    Public entry points that need chi_j as well take :func:`component_eulers`
    and this once per call and hand both to their private helpers.
    """
    _check_lengths(curve, bundle.multidegree, "multidegree")
    return bundle.total_degree + bundle.rank * (1 - curve.arithmetic_genus)


def _tooth_eulers(curve: CombCurve, bundle: BundleData, j: int) -> tuple[int, int]:
    """chi_j and chi for tooth j, after checking the tooth index and the multidegree length.

    chi_j is the one tooth's d_j + n*(1 - g_j); chi takes the closed form,
    so no other component's Euler number is derived.
    """
    if not 1 <= j <= curve.num_components - 1:
        raise IndexError(f"tooth index must be in 1..{curve.num_components - 1}, got {j}")
    chi = total_euler(curve, bundle)
    return bundle.multidegree[j - 1] + bundle.rank * (1 - curve.genera[j - 1]), chi


def slope(profile: SubsheafProfile | ToothWitness, polarization: Polarization) -> Fraction:
    """Polarized slope: euler characteristic over the weighted multirank sum."""
    if len(profile.multirank) != len(polarization.weights):
        raise ValueError(
            f"multirank has {len(profile.multirank)} entries, polarization has "
            f"{len(polarization.weights)}"
        )
    denom = _exact_sum(w * r for w, r in zip(polarization.weights, profile.multirank))
    if denom <= 0:
        raise ValueError(f"weighted multirank must be positive, got {denom}")
    return Fraction(profile.euler) / denom


def _exact_sum(terms: Iterable[Fraction]) -> Fraction:
    """Exact sum of rationals, added pairwise on integer numerators and denominators.

    Each pass adds neighbours over the lcm of their two denominators (equal
    denominators need no gcd), so every operand stays as small as the partial
    sum it carries and the multiplications stay balanced.  Numerator and
    denominator are reduced once, at the end.  Summing one by one with
    ``Fraction`` instead reduces after every term, against a denominator that
    keeps growing.
    """
    pairs = [(q.numerator, q.denominator) for q in terms]
    while len(pairs) > 1:
        merged = []
        for (a, b), (c, d) in zip(pairs[::2], pairs[1::2]):
            if b == d:
                merged.append((a + c, b))
            else:
                g = gcd(b, d)
                merged.append((a * (d // g) + c * (b // g), b // g * d))
        if len(pairs) % 2:
            merged.append(pairs[-1])
        pairs = merged
    return Fraction(*pairs[0]) if pairs else Fraction(0)


def validate_polarization(polarization: Polarization) -> list[str]:
    """Check 0 < w_j < 1 for every j and exact sum 1; return violations (empty = ok).

    With w_j = p/q in lowest terms, q > 0, the bounds read 0 < p < q.
    """
    violations: list[str] = []
    for j, w in enumerate(polarization.weights, start=1):
        p, q = w.numerator, w.denominator
        if not p > 0:
            violations.append(f"w_{j} = {format_rational(w)} is not > 0")
        if not p < q:
            violations.append(f"w_{j} = {format_rational(w)} is not < 1")
    total = _exact_sum(polarization.weights)
    if total != 1:
        violations.append(f"weights sum to {format_rational(total)}, not 1")
    return violations
