"""Numerics of kernel bundles attached to generated pairs on a comb.

A generated pair is a globally generated bundle E of rank n together with
an l-dimensional generating space of sections, l > n.  Its kernel bundle M
(the kernel of the evaluation map) has rank m = l - n and multidegree
-deg(E).  The per-tooth kernel dimensions k_j of the section-restriction
maps are user-supplied: they encode gluing geometry the numerical shadow
cannot see, and they drive every instability statement here.

All components are required to have genus >= 2.

Validation is at the boundary only: each public function is ``_require_valid``
followed by one private core, and the cores call only one another, so a caller
that has validated the pair itself (the CLI does) calls only the cores.  A core
takes what its caller derived already: the tooth witnesses, chi_j(M), chi(M).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from .model import (
    BundleData,
    CombCurve,
    Polarization,
    ToothWitness,
    _check_int,
    component_eulers,
    total_euler,
)
from .polarization import _synthesize
from .restrictions import euclidean_remainder


@dataclass(frozen=True, slots=True)
class PairAssumptions:
    """Non-numeric hypotheses supplied as flags, never derived.

    general_linear_series: each restricted pair is a general linear series
    (rank-1 sufficiency input).  butler_conjecture: assume the kernel-bundle
    semistability conjecture for general pairs (rank >= 2 sufficiency
    input).  components_general_in_moduli: the component curves are general
    members of their moduli spaces.
    """

    general_linear_series: bool = False
    butler_conjecture: bool = False
    components_general_in_moduli: bool = False


@dataclass(frozen=True, slots=True)
class GeneratedPairData:
    """Numerical shadow of a generated pair (E, V).

    ``kernel_dims[j]`` is the dimension of the kernel of restriction of V
    to component j+1 (0-based storage, 1-based component talk).
    """

    rank: int
    sections: int
    multidegree: tuple[int, ...]
    kernel_dims: tuple[int, ...]
    assumptions: PairAssumptions = field(default_factory=PairAssumptions)

    def __post_init__(self) -> None:
        object.__setattr__(self, "multidegree", tuple(self.multidegree))
        object.__setattr__(self, "kernel_dims", tuple(self.kernel_dims))
        _check_int(self.rank, "rank")
        _check_int(self.sections, "sections")
        for j, d in enumerate(self.multidegree, start=1):
            _check_int(d, "degree on component {}", j)
        for j, k in enumerate(self.kernel_dims, start=1):
            _check_int(k, "kernel dimension at component {}", j)
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")
        if len(self.multidegree) != len(self.kernel_dims):
            raise ValueError(
                f"multidegree has {len(self.multidegree)} entries, kernel_dims "
                f"{len(self.kernel_dims)}"
            )
        for j, k in enumerate(self.kernel_dims, start=1):
            if k < 0:
                raise ValueError(f"kernel dimension at component {j} is negative: {k}")

    @property
    def kernel_rank(self) -> int:
        return self.sections - self.rank


def validate_pair(curve: CombCurve, pair: GeneratedPairData) -> list[str]:
    """Collect every numerical inconsistency of the pair (empty list = ok).

    Checks: l > n; genus >= 2 everywhere; nonnegative degrees; degree 1 is
    impossible for a globally generated bundle on a genus >= 2 component;
    the classical bound deg >= h0 - rank for globally generated bundles,
    applied with h0 >= l - k_j; kernel dimensions cannot exceed the kernel
    rank l - n; a nonzero kernel on the spine forces one on some tooth.
    """
    violations: list[str] = []
    if len(pair.multidegree) != curve.num_components:
        violations.append(
            f"multidegree has {len(pair.multidegree)} entries for a curve with "
            f"{curve.num_components} components"
        )
        return violations
    n, l = pair.rank, pair.sections
    if l <= n:
        violations.append(f"sections l = {l} must exceed rank n = {n}")
    for j, g in enumerate(curve.genera, start=1):
        if g < 2:
            violations.append(f"component {j} has genus {g} < 2")
    for j, (d, k) in enumerate(zip(pair.multidegree, pair.kernel_dims), start=1):
        if d < 0:
            violations.append(f"degree d_{j} = {d} of a globally generated bundle is negative")
        elif d == 1:
            violations.append(
                f"degree d_{j} = 1 is impossible for a globally generated bundle on a "
                f"component of genus >= 2"
            )
        else:
            bound = (l - k) - n
            if bound > 0 and 0 < d < bound:
                violations.append(
                    f"degree d_{j} = {d} violates the globally generated bound "
                    f"d_{j} >= (l - k_{j}) - n = {bound}"
                )
        if l > n and k > l - n:
            violations.append(
                f"kernel dimension k_{j} = {k} exceeds the kernel rank l - n = {l - n}"
            )
    if pair.kernel_dims[-1] > 0 and not any(pair.kernel_dims[:-1]):
        violations.append(
            "inconsistent kernel dimensions: a nonzero kernel on the spine requires a "
            "nonzero kernel on some tooth"
        )
    return violations


def _require_valid(curve: CombCurve, pair: GeneratedPairData) -> None:
    violations = validate_pair(curve, pair)
    if violations:
        raise ValueError("invalid generated pair: " + "; ".join(violations))


def kernel_data(curve: CombCurve, pair: GeneratedPairData) -> BundleData:
    """Rank and multidegree of the kernel bundle: (l - n, -multidegree of E)."""
    _require_valid(curve, pair)
    return _kernel_bundle(curve, pair)[0]


def _kernel_bundle(curve: CombCurve, pair: GeneratedPairData) -> tuple[BundleData, int]:
    m = BundleData(rank=pair.kernel_rank, multidegree=tuple(-d for d in pair.multidegree))
    # The defining sequence gives chi(M) = l*(1 - p_a) - chi(E), chi(E) = -deg(M) + n*(1 - p_a).
    chi_structure = 1 - curve.arithmetic_genus
    chi_e = -m.total_degree + pair.rank * chi_structure
    if (chi := total_euler(curve, m)) != pair.sections * chi_structure - chi_e:
        raise RuntimeError("kernel bundle euler characteristic disagrees with its defining sequence")
    return m, chi


def _kernel_eulers(curve: CombCurve, pair: GeneratedPairData) -> tuple[tuple[int, ...], int, int]:
    m, chi = _kernel_bundle(curve, pair)
    return component_eulers(curve, m), chi, m.rank


def _restriction_witness(curve: CombCurve, pair: GeneratedPairData, j: int) -> ToothWitness | None:
    """Witness that the restriction of the kernel bundle to component j is unstable.

    A nonzero section-restriction kernel sits inside the restricted kernel
    bundle as a trivial subbundle of rank k_j and slope 0; with d_j > 0 the
    restriction has negative slope -d_j/(l-n), so the witness destabilizes.
    With d_j = 0 the slopes tie and no witness exists.
    """
    k = pair.kernel_dims[j - 1]
    if k > 0 and pair.multidegree[j - 1] > 0:
        euler = k * (1 - curve.genera[j - 1])
        return ToothWitness("trivial-kernel-part", j, curve.num_components, k, 0, euler)
    return None


class StrongUnstabilityKind(Enum):
    STRONGLY_UNSTABLE = "StronglyUnstable"
    NOT_DETERMINED = "NotDetermined"
    NO_KERNEL_OBSTRUCTION = "NoKernelObstruction"


@dataclass(frozen=True, slots=True)
class StrongUnstabilityVerdict:
    verdict: StrongUnstabilityKind
    triggering_j: int | None = None
    reason: str = ""


def strong_unstability(curve: CombCurve, pair: GeneratedPairData) -> StrongUnstabilityVerdict:
    """Decide strong unstability of the kernel bundle from the tooth kernels.

    m = l - n.  A nonzero tooth kernel with positive degree forces strong
    unstability when m = 2; for m > 2 it does so when d_j differs from
    m - r_j (r_j the euclidean remainder of the restricted kernel-bundle
    euler characteristic mod m), and also when m divides that euler
    characteristic outright.  Components with d_j = 0 give no obstruction:
    the slope comparison behind the witness degenerates there.
    """
    _require_valid(curve, pair)
    return _strong_unstability(curve, pair, _tooth_witnesses(curve, pair))


def _tooth_witnesses(curve: CombCurve, pair: GeneratedPairData) -> Iterator[ToothWitness | None]:
    """Each tooth's :func:`_restriction_witness`, built as the walk reaches it."""
    return (_restriction_witness(curve, pair, j) for j in range(1, curve.num_components))


def _strong_unstability(
    curve: CombCurve, pair: GeneratedPairData, witnesses: Iterable[ToothWitness | None]
) -> StrongUnstabilityVerdict:
    """The verdict from the restriction witnesses, in component order from tooth 1."""
    m = pair.kernel_rank
    if all(k == 0 for k in pair.kernel_dims):
        return StrongUnstabilityVerdict(
            verdict=StrongUnstabilityKind.NO_KERNEL_OBSTRUCTION,
            reason="every section-restriction kernel is zero",
        )
    if m == 1:
        return StrongUnstabilityVerdict(
            verdict=StrongUnstabilityKind.NOT_DETERMINED,
            reason="kernel bundle has rank 1; the unstability tests need rank >= 2",
        )
    for j, witness in zip(range(1, curve.num_components), witnesses):
        if witness is None:
            continue
        k, d = witness.on_tooth, pair.multidegree[j - 1]
        if m == 2:
            reason = (
                f"rank-2 kernel bundle with nonzero restriction kernel at tooth {j}: "
                f"a destabilizing line subbundle would force degree 1 on a globally "
                f"generated bundle, which is impossible"
            )
        else:
            chi_j_m = -d + m * (1 - curve.genera[j - 1])
            r = euclidean_remainder(chi_j_m, m)
            if r == 0:
                reason = (
                    f"divisibility contradiction at tooth {j}: m = {m} divides "
                    f"chi_{j}(M) = {chi_j_m}, which excludes the rank-{k} trivial kernel "
                    f"subbundle as a destabilizer under any polarization, yet it "
                    f"destabilizes the restriction"
                )
            elif d != m - r:
                reason = (
                    f"degree-remainder test at tooth {j}: d_{j} = {d} differs from "
                    f"m - r_{j} = {m - r} (m = {m}, chi_{j}(M) = {chi_j_m}, r_{j} = {r})"
                )
            else:
                continue
        return StrongUnstabilityVerdict(
            verdict=StrongUnstabilityKind.STRONGLY_UNSTABLE, triggering_j=j, reason=reason
        )
    return StrongUnstabilityVerdict(
        verdict=StrongUnstabilityKind.NOT_DETERMINED,
        reason=(
            "every tooth with a nonzero kernel has degree 0, where the slope "
            "comparison degenerates"
            if m == 2
            else "every tooth with a nonzero kernel has either d_j = m - r_j (the open "
            "gap case) or the degenerate d_j = 0"
        ),
    )


def kernel_polarization(curve: CombCurve, pair: GeneratedPairData) -> Polarization:
    """Polarization making the kernel-bundle inequalities hold strictly.

    For a valid pair every restricted euler characteristic is negative, so
    the strict region is always feasible and a polarization is returned.
    """
    _require_valid(curve, pair)
    return _kernel_polarization(*_kernel_eulers(curve, pair))


def _kernel_polarization(chis: Sequence[int], chi: int, m: int) -> Polarization:
    w = _synthesize(chis, chi, m)
    if w is None:  # excluded by the argument in kernel_polarization's docstring
        raise RuntimeError("kernel bundle of a valid pair has no polarization")
    return w


class CharacterizationKind(Enum):
    EXISTS_SEMISTABLE_POLARIZATION = "ExistsSemistablePolarization"
    STRONGLY_UNSTABLE = "StronglyUnstable"
    DIVISIBILITY_CONTRADICTION = "DivisibilityContradiction"
    CONDITIONAL = "Conditional"
    NOT_DETERMINED = "NotDetermined"


@dataclass(frozen=True, slots=True)
class CharacterizationReport:
    """Combined verdict of the if-and-only-if characterization."""

    verdict: CharacterizationKind
    polarization: Polarization | None = None
    triggering_j: int | None = None
    missing_assumptions: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()


def characterize(curve: CombCurve, pair: GeneratedPairData) -> CharacterizationReport:
    """Full conditional characterization of semistability of the kernel bundle.

    Zero kernels plus the appropriate genericity flag yield a constructive
    polarization; a nonzero kernel routes through the strong-unstability
    tests, with an outright contradiction certificate when the kernel rank
    divides every degree.
    """
    _require_valid(curve, pair)
    su = _strong_unstability(curve, pair, _tooth_witnesses(curve, pair))
    return _characterize(pair, su, lambda: _kernel_eulers(curve, pair))


def _characterize(
    pair: GeneratedPairData, su: StrongUnstabilityVerdict, kernel_eulers: Callable[[], tuple]
) -> CharacterizationReport:
    n = pair.rank
    m = pair.kernel_rank
    flags = pair.assumptions
    notes: list[str] = []
    if not flags.components_general_in_moduli:
        notes.append(
            "conclusions additionally presume the components are general in their "
            "moduli spaces (flag components_general_in_moduli not set)"
        )
    if su.verdict is StrongUnstabilityKind.NO_KERNEL_OBSTRUCTION:  # every k_j is zero
        needed, scope = (
            ("general_linear_series", "rank-1") if n == 1 else ("butler_conjecture", "rank >= 2")
        )
        if not getattr(flags, needed):
            return CharacterizationReport(
                verdict=CharacterizationKind.CONDITIONAL,
                missing_assumptions=(needed,),
                notes=tuple(notes + [f"{needed} required for {scope} sufficiency"]),
            )
        w = _kernel_polarization(*kernel_eulers())  # the one branch that asks for them
        notes.append(
            "all restriction kernels vanish, so the restricted kernel bundles are the "
            "component kernel bundles and are semistable under the assumed flags"
        )
        return CharacterizationReport(
            verdict=CharacterizationKind.EXISTS_SEMISTABLE_POLARIZATION,
            polarization=w,
            notes=tuple(notes),
        )
    if su.verdict is not StrongUnstabilityKind.STRONGLY_UNSTABLE:
        return CharacterizationReport(
            verdict=CharacterizationKind.NOT_DETERMINED,
            notes=tuple(notes + [su.reason]),
        )
    # When m divides every d_j it divides every chi_j(M), so the trigger is
    # the first tooth with a nonzero kernel and a positive degree.
    if m > 2 and all(d % m == 0 for d in pair.multidegree):
        notes.append(
            f"contradiction certificate: m = {m} divides every degree and every "
            f"m*(1 - g_j), hence every restricted euler characteristic of the "
            f"kernel bundle; a nonzero restriction kernel is then impossible for "
            f"a polarization-semistable kernel bundle"
        )
        return CharacterizationReport(
            verdict=CharacterizationKind.DIVISIBILITY_CONTRADICTION,
            triggering_j=su.triggering_j,
            notes=tuple(notes),
        )
    return CharacterizationReport(
        verdict=CharacterizationKind.STRONGLY_UNSTABLE,
        triggering_j=su.triggering_j,
        notes=tuple(notes + [su.reason]),
    )
