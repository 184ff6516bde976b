"""Metamorphic relations on seeded instances.

Each relation maps an instance to one whose answers are known from the
first: relabelling the teeth, twisting by a line bundle whose multidegree
is a multiple of the weights, and doubling rank and degrees.  The relations
need no oracle, so they check the fast path against itself at every rank.
"""

import math
import random

import pytest

from combstab import (
    BundleData,
    CombCurve,
    Polarization,
    classify_restriction,
    feasible_region,
    necessary_check,
    synthesize_polarization,
)
from combstab.oracles import instance_stream

COUNT = 2000


@pytest.fixture(scope="module")
def instances():
    return list(instance_stream(20261021, COUNT))


def _sides(curve, bundle, w):
    return [(c.lower_ok, c.upper_ok) for c in necessary_check(curve, bundle, w).components]


def _cases(curve, bundle, w):
    """Each tooth's case and forced (rank, euler) pairs; none at rank 1."""
    if bundle.rank < 2:
        return []
    return [
        (v.case, v.forced_destabilizers)
        for v in (classify_restriction(curve, bundle, w, j) for j in range(1, curve.num_components))
    ]


def _permuted(values, order):
    """The per-tooth (or per-component) values in the new order; the spine is last in both."""
    return [values[i] for i in order[: len(values)]]


def _regions(curve, bundle):
    return [feasible_region(curve, bundle, strict=strict) for strict in (False, True)]


def test_permuting_the_teeth_permutes_every_answer(instances):
    rng = random.Random(1)
    for curve, bundle, w in instances:
        teeth = curve.num_components - 1
        # order[i] is the old tooth that becomes tooth i; the spine stays last.
        order = rng.sample(range(teeth), teeth) + [teeth]
        moved_curve = CombCurve(tuple(curve.genera[i] for i in order))
        moved_bundle = BundleData(bundle.rank, tuple(bundle.multidegree[i] for i in order))
        moved_w = Polarization(tuple(w.weights[i] for i in order))

        moved_sides = _sides(moved_curve, moved_bundle, moved_w)
        assert moved_sides == _permuted(_sides(curve, bundle, w), order)
        moved_cases = _cases(moved_curve, moved_bundle, moved_w)
        assert moved_cases == _permuted(_cases(curve, bundle, w), order)
        strict = feasible_region(curve, bundle, strict=True)
        moved_strict = feasible_region(moved_curve, moved_bundle, strict=True)
        assert moved_strict.feasible == strict.feasible
        assert list(moved_strict.intervals) == _permuted(strict.intervals, order)
        synthesized = synthesize_polarization(curve, bundle)
        moved = synthesize_polarization(moved_curve, moved_bundle)
        assert (moved is None) == (synthesized is None) == (not strict.feasible)
        if synthesized is not None:
            assert list(moved.weights) == _permuted(synthesized.weights, order)


def test_twisting_by_a_multiple_of_the_weights_keeps_every_side_and_case(instances):
    # With a_j = w_j*D for D the lcm of the weight denominators, the twist
    # d_j -> d_j + n*t*a_j moves chi_j and w_j*chi by the same n*t*a_j: no
    # side moves, and a rank-k destabilizer's euler moves by k*t*a_j.
    rng = random.Random(2)
    for curve, bundle, w in instances:
        n = bundle.rank
        d = math.lcm(*(x.denominator for x in w.weights))
        a = [int(x * d) for x in w.weights]
        t = rng.choice([-3, -2, -1, 1, 2, 3])
        twisted = BundleData(n, tuple(dj + n * t * aj for dj, aj in zip(bundle.multidegree, a)))

        assert _sides(curve, twisted, w) == _sides(curve, bundle, w)
        shifted = [
            (case, tuple((k, c + k * t * a[j]) for k, c in forced))
            for j, (case, forced) in enumerate(_cases(curve, bundle, w))
        ]
        assert _cases(curve, twisted, w) == shifted


def test_doubling_rank_and_degrees_keeps_sides_regions_and_synthesis(instances):
    # chi_j, chi and n all double, so every inequality is the old one times 2.
    for curve, bundle, w in instances:
        doubled = BundleData(2 * bundle.rank, tuple(2 * d for d in bundle.multidegree))
        assert _sides(curve, doubled, w) == _sides(curve, bundle, w)
        assert _regions(curve, doubled) == _regions(curve, bundle)
        assert synthesize_polarization(curve, doubled) == synthesize_polarization(curve, bundle)


def test_the_instances_reach_every_rank_and_both_verdicts(instances):
    verdicts = {(b.rank, necessary_check(c, b, w).overall_pass) for c, b, w in instances}
    synthesized = {b.rank for c, b, _ in instances if synthesize_polarization(c, b) is not None}
    assert {n for n, _ in verdicts} == synthesized == {1, 2, 3, 4}
    assert {passed for _, passed in verdicts} == {False, True}
