"""combstab: exact-rational semistability calculator for comb-like nodal curves.

Decides the necessary slope inequalities for a polarization (with witness
subsheaf profiles), classifies restrictions of a semistable bundle and
enumerates their numerically admissible destabilizers, analyzes kernel
bundles of generated pairs for strong unstability, and constructs feasible
polarizations via simplest-rational search.  Everything is exact; there is
no floating point.
"""

from .kernel_bundles import (
    CharacterizationKind,
    CharacterizationReport,
    GeneratedPairData,
    PairAssumptions,
    StrongUnstabilityKind,
    StrongUnstabilityVerdict,
    characterize,
    kernel_data,
    kernel_polarization,
    restriction_unstable,
    strong_unstability,
    validate_pair,
)
from .model import (
    BundleData,
    CombCurve,
    Polarization,
    SubsheafProfile,
    ToothWitness,
    component_euler,
    component_eulers,
    format_rational,
    parse_rational,
    slope,
    total_euler,
    validate_polarization,
)
from .polarization import (
    FeasibleRegion,
    IntervalQ,
    NecessaryVerdict,
    SufficiencyVerdict,
    canonical_witnesses,
    feasible_region,
    necessary_check,
    pick_simplest_rational,
    sufficiency_verdict,
    synthesize_polarization,
)
from .restrictions import (
    RestrictionCase,
    RestrictionVerdict,
    classify_rank2,
    classify_rankn,
    classify_restriction,
    destabilizer_candidates,
    divisibility_exclusion,
    euclidean_remainder,
    filtered_destabilizer_candidates,
)

__version__ = "0.1.0"

__all__ = [
    "BundleData",
    "CharacterizationKind",
    "CharacterizationReport",
    "CombCurve",
    "FeasibleRegion",
    "GeneratedPairData",
    "IntervalQ",
    "NecessaryVerdict",
    "PairAssumptions",
    "Polarization",
    "RestrictionCase",
    "RestrictionVerdict",
    "StrongUnstabilityKind",
    "StrongUnstabilityVerdict",
    "SubsheafProfile",
    "SufficiencyVerdict",
    "ToothWitness",
    "canonical_witnesses",
    "characterize",
    "classify_rank2",
    "classify_rankn",
    "classify_restriction",
    "component_euler",
    "component_eulers",
    "destabilizer_candidates",
    "divisibility_exclusion",
    "euclidean_remainder",
    "feasible_region",
    "filtered_destabilizer_candidates",
    "format_rational",
    "kernel_data",
    "kernel_polarization",
    "necessary_check",
    "parse_rational",
    "pick_simplest_rational",
    "restriction_unstable",
    "slope",
    "strong_unstability",
    "sufficiency_verdict",
    "synthesize_polarization",
    "total_euler",
    "validate_pair",
    "validate_polarization",
]
