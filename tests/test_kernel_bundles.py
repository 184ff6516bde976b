import hashlib
import random
from fractions import Fraction

import pytest

from combstab import (
    BundleData,
    CharacterizationKind,
    CombCurve,
    GeneratedPairData,
    PairAssumptions,
    StrongUnstabilityKind,
    characterize,
    component_eulers,
    kernel_data,
    kernel_polarization,
    slope,
    strong_unstability,
    synthesize_polarization,
    total_euler,
    validate_pair,
)
from combstab import kernel_bundles, model, polarization, restrictions
from combstab.kernel_bundles import _restriction_witness
from combstab.oracles import pair_stream

C222 = CombCurve((2, 2, 2))
C23 = CombCurve((2, 3))
C22 = CombCurve((2, 2))


class TestValidatePair:
    def test_ok(self):
        pair = GeneratedPairData(1, 3, (3, 3), (0, 0))
        assert validate_pair(C22, pair) == []

    def test_degree_one_impossible(self):
        pair = GeneratedPairData(1, 3, (1, 3), (0, 0))
        violations = validate_pair(C22, pair)
        assert len(violations) == 1
        assert "d_1 = 1" in violations[0]

    def test_generation_bound_uses_kernel_dims(self):
        # h0 >= l - k_j, so d_1 >= (5 - 1) - 2 = 2 passes at equality.
        pair = GeneratedPairData(2, 5, (2, 4), (1, 0))
        assert validate_pair(C22, pair) == []
        tight = GeneratedPairData(2, 5, (2, 4), (0, 0))
        violations = validate_pair(C22, tight)
        assert any("d_1 = 2" in v for v in violations)

    def test_spine_kernel_needs_a_tooth_kernel(self):
        pair = GeneratedPairData(1, 3, (4, 4), (0, 1))
        violations = validate_pair(C22, pair)
        assert len(violations) == 1
        assert "spine" in violations[0]
        with pytest.raises(ValueError):
            kernel_data(C22, pair)

    def test_sections_must_exceed_rank(self):
        assert any(
            "sections" in v for v in validate_pair(C22, GeneratedPairData(3, 3, (4, 4), (0, 0)))
        )

    def test_length_mismatch_is_the_only_violation(self):
        pair = GeneratedPairData(1, 1, (1, -1), (0, 1))  # every other check would fail too
        assert validate_pair(C222, pair) == [
            "multidegree has 2 entries for a curve with 3 components"
        ]

    def test_constructor_refuses_mismatched_and_negative_dims(self):
        with pytest.raises(ValueError) as exc:
            GeneratedPairData(1, 3, (3, 3), (0,))
        assert str(exc.value) == "multidegree has 2 entries, kernel_dims 1"
        with pytest.raises(ValueError) as exc:
            GeneratedPairData(1, 3, (3, 3), (0, -1))
        assert str(exc.value) == "kernel dimension at component 2 is negative: -1"

    def test_low_genus_flagged(self):
        curve = CombCurve((1, 2))
        violations = validate_pair(curve, GeneratedPairData(1, 3, (3, 3), (0, 0)))
        assert any("genus 1" in v for v in violations)

    def test_negative_degree_flagged(self):
        violations = validate_pair(C22, GeneratedPairData(1, 3, (-2, 3), (0, 0)))
        assert any("negative" in v for v in violations)

    def test_kernel_dim_exceeding_kernel_rank(self):
        violations = validate_pair(C22, GeneratedPairData(1, 3, (3, 3), (3, 0)))
        assert any("kernel rank" in v for v in violations)


    @pytest.mark.parametrize(
        "args",
        [
            (True, 3, (3, 3), (0, 0)),
            (1, 3.0, (3, 3), (0, 0)),
            (1, 3, (3, "3"), (0, 0)),
            (1, 3, (3, 3), (0, False)),
        ],
        ids=["rank", "sections", "multidegree", "kernel_dims"],
    )
    def test_integer_fields_type_checked(self, args):
        with pytest.raises(TypeError):
            GeneratedPairData(*args)


class TestKernelData:
    def test_worked(self):
        pair = GeneratedPairData(1, 3, (3, 3, 3), (0, 0, 0))
        m = kernel_data(C222, pair)
        assert m.rank == 2
        assert m.multidegree == (-3, -3, -3)
        assert component_eulers(C222, m) == (-5, -5, -5)
        assert total_euler(C222, m) == -19

    def test_two_components(self):
        pair = GeneratedPairData(1, 4, (4, 5), (0, 0))
        m = kernel_data(C23, pair)
        assert m.rank == 3
        assert component_eulers(C23, m) == (-7, -11)
        assert total_euler(C23, m) == -21

    def test_zero_degrees(self):
        pair = GeneratedPairData(1, 3, (0, 0), (0, 0))
        m = kernel_data(C22, pair)
        assert m.multidegree == (0, 0)
        assert component_eulers(C22, m) == (-2, -2)

    def test_builds_one_record(self, monkeypatch):
        # The defining-sequence check takes chi(E) from integers, not from a record for E.
        built = []
        real = BundleData.__post_init__

        def counting(bundle):
            built.append(bundle)
            real(bundle)

        monkeypatch.setattr(BundleData, "__post_init__", counting)
        kernel_data(C222, GeneratedPairData(1, 3, (3, 3, 3), (0, 0, 0)))
        assert len(built) == 1

    def test_identity_against_defining_sequence(self):
        # chi(M) = l * chi(structure sheaf) - chi(E), recomputed from scratch.
        for curve, pair in pair_stream(9, 200):
            m = kernel_data(curve, pair)
            bundle_e = BundleData(pair.rank, pair.multidegree)
            assert total_euler(curve, m) == pair.sections * (
                1 - curve.arithmetic_genus
            ) - total_euler(curve, bundle_e)

    def test_rejects_invalid_pair(self):
        with pytest.raises(ValueError):
            kernel_data(C22, GeneratedPairData(1, 3, (1, 3), (0, 0)))


class TestRestrictionUnstable:
    def test_witness(self):
        pair = GeneratedPairData(1, 3, (3, 3), (1, 0))
        witness = _restriction_witness(C22, pair, 1)
        assert witness is not None
        assert witness.multirank == (1, 0)
        assert witness.euler == -1
        assert witness.label == "trivial-kernel-part"
        # slope 0 of the trivial part beats -d_1/(l-n) = -3/2
        assert Fraction(0) > Fraction(-3, 2)

    def test_witnesses_match_the_dense_longhand(self):
        # Valid pairs up to N = 200: every witness, spine ones included.
        rng = random.Random(4)
        seen = set()
        for _ in range(40):
            num = rng.randint(2, 200)
            curve = CombCurve(tuple(rng.randint(2, 5) for _ in range(num)))
            n = rng.randint(1, 4)
            l = n + rng.randint(1, 5)
            dims = [rng.randint(1, l - n) if rng.randrange(3) == 0 else 0 for _ in range(num)]
            dims[0] = max(dims[0], 1)  # a spine kernel needs a tooth kernel
            degrees = [max(2, l - k - n) + rng.randint(0, 20) for k in dims]
            pair = GeneratedPairData(n, l, tuple(degrees), tuple(dims))
            assert validate_pair(curve, pair) == []
            w = kernel_polarization(curve, pair)
            for j in range(1, num + 1):
                witness = _restriction_witness(curve, pair, j)
                if witness is None:
                    continue
                k = pair.kernel_dims[j - 1]
                assert list(witness.multirank) == [k if i == j else 0 for i in range(1, num + 1)]
                assert witness.euler == k * (1 - curve.genera[j - 1])
                assert _restriction_witness(curve, pair, j) == witness
                assert slope(witness, w) == Fraction(witness.euler) / (k * w.weights[j - 1])
                seen.add(j == num)
        assert seen == {False, True}

    def test_no_kernel_no_witness(self):
        pair = GeneratedPairData(1, 3, (3, 3), (1, 0))
        assert _restriction_witness(C22, pair, 2) is None

    def test_degree_zero_degenerates(self):
        pair = GeneratedPairData(1, 3, (0, 3), (1, 0))
        assert _restriction_witness(C22, pair, 1) is None


class TestStrongUnstability:
    def test_rank_two_kernel(self):
        pair = GeneratedPairData(1, 3, (3, 3, 3), (1, 0, 0))
        verdict = strong_unstability(C222, pair)
        assert verdict.verdict is StrongUnstabilityKind.STRONGLY_UNSTABLE
        assert verdict.triggering_j == 1

    def test_degree_remainder_mismatch(self):
        pair = GeneratedPairData(1, 4, (4, 5), (1, 0))
        verdict = strong_unstability(C23, pair)
        assert verdict.verdict is StrongUnstabilityKind.STRONGLY_UNSTABLE
        assert verdict.triggering_j == 1
        assert "r_1 = 2" in verdict.reason

    def test_gap_case(self):
        pair = GeneratedPairData(1, 4, (2, 5), (1, 0))
        verdict = strong_unstability(C23, pair)
        assert verdict.verdict is StrongUnstabilityKind.NOT_DETERMINED

    def test_no_kernels(self):
        pair = GeneratedPairData(1, 4, (4, 5), (0, 0))
        verdict = strong_unstability(C23, pair)
        assert verdict.verdict is StrongUnstabilityKind.NO_KERNEL_OBSTRUCTION

    def test_divisible_euler_with_positive_degree(self):
        # m = 3 divides chi_1(M) = -6; the trivial kernel part both must and
        # cannot destabilize, so no polarization works at all.
        pair = GeneratedPairData(1, 4, (3, 9), (1, 0))
        verdict = strong_unstability(C22, pair)
        assert verdict.verdict is StrongUnstabilityKind.STRONGLY_UNSTABLE
        assert "divisibility" in verdict.reason

    def test_degenerate_degree_zero(self):
        pair = GeneratedPairData(1, 3, (0, 3), (1, 0))
        verdict = strong_unstability(C22, pair)
        assert verdict.verdict is StrongUnstabilityKind.NOT_DETERMINED

    def test_rank_one_kernel(self):
        pair = GeneratedPairData(1, 2, (3, 3), (1, 0))
        verdict = strong_unstability(C22, pair)
        assert verdict.verdict is StrongUnstabilityKind.NOT_DETERMINED

    def test_inconsistent_spine_kernel(self):
        pair = GeneratedPairData(1, 3, (3, 3), (0, 1))
        with pytest.raises(ValueError):
            strong_unstability(C22, pair)

    def test_spine_kernel_with_tooth_kernel_is_fine(self):
        pair = GeneratedPairData(1, 3, (3, 3), (1, 1))
        verdict = strong_unstability(C22, pair)
        assert verdict.verdict is StrongUnstabilityKind.STRONGLY_UNSTABLE


class TestKernelPolarization:
    def test_worked_three_teeth(self):
        pair = GeneratedPairData(1, 3, (3, 3, 3), (0, 0, 0))
        w = kernel_polarization(C222, pair)
        assert w.weights == (Fraction(1, 3),) * 3

    def test_worked_two_components(self):
        pair = GeneratedPairData(1, 3, (3, 3), (0, 0))
        w = kernel_polarization(C22, pair)
        assert w.weights == (Fraction(1, 2), Fraction(1, 2))

    def test_always_present_for_valid_pairs(self):
        for curve, pair in pair_stream(3, 300):
            assert kernel_polarization(curve, pair) is not None

    def test_is_the_synthesis_of_the_kernel_bundle(self):
        # The selftest synthesizes from kernel_data, the polarize command from the same bundle.
        for curve, pair in pair_stream(11, 300):
            expected = synthesize_polarization(curve, kernel_data(curve, pair))
            assert kernel_polarization(curve, pair) == expected


def _count_eulers(monkeypatch):
    """Calls of component_eulers and total_euler, counted through every module binding them."""
    counts = dict.fromkeys(("component_eulers", "total_euler"), 0)
    for name in counts:
        for module in (kernel_bundles, model, polarization, restrictions):
            real = module.__dict__.get(name)
            if real is not None:

                def counting(*args, _real=real, _name=name):
                    counts[_name] += 1
                    return _real(*args)

                monkeypatch.setattr(module, name, counting)
    return counts


_N = 2000
_CURVE_2000 = CombCurve((2,) * _N)
# Rank 1, 4 sections, genus 2: no kernel with the rank-1 flag, or a kernel on
# every third tooth, each in the gap case d_j = m - r_j = 2.
_FREE_2000 = GeneratedPairData(
    1, 4, (5,) * _N, (0,) * _N, PairAssumptions(general_linear_series=True)
)
_GAP_2000 = GeneratedPairData(
    1, 4, tuple(2 if j % 3 == 0 else 5 for j in range(_N - 1)) + (5,),
    tuple(int(j % 3 == 0) for j in range(_N - 1)) + (0,),
)


@pytest.mark.parametrize(
    "function, pair, expected",
    [
        (kernel_polarization, _FREE_2000, {"component_eulers": 1, "total_euler": 1}),
        (kernel_polarization, _GAP_2000, {"component_eulers": 1, "total_euler": 1}),
        # Only the branch that synthesizes derives the kernel bundle's numbers.
        (characterize, _FREE_2000, {"component_eulers": 1, "total_euler": 1}),
        (characterize, _GAP_2000, {"component_eulers": 0, "total_euler": 0}),
        (kernel_data, _FREE_2000, {"component_eulers": 0, "total_euler": 1}),
        (strong_unstability, _GAP_2000, {"component_eulers": 0, "total_euler": 0}),
    ],
    ids=[
        "polarization-free",
        "polarization-gap",
        "characterize-free",
        "characterize-gap",
        "kernel-data",
        "strong-unstability",
    ],
)
def test_kernel_numbers_are_derived_once(monkeypatch, function, pair, expected):
    counts = _count_eulers(monkeypatch)
    function(_CURVE_2000, pair)
    assert counts == expected


class TestCharacterize:
    def test_rank_one_sufficiency(self):
        pair = GeneratedPairData(
            1, 3, (3, 3), (0, 0), assumptions=PairAssumptions(general_linear_series=True)
        )
        report = characterize(C22, pair)
        assert report.verdict is CharacterizationKind.EXISTS_SEMISTABLE_POLARIZATION
        assert report.polarization.weights == (Fraction(1, 2), Fraction(1, 2))

    def test_strongly_unstable_converse(self):
        pair = GeneratedPairData(1, 4, (4, 5), (1, 0))
        report = characterize(C23, pair)
        assert report.verdict is CharacterizationKind.STRONGLY_UNSTABLE
        assert report.triggering_j == 1

    def test_missing_butler_flag_is_conditional(self):
        pair = GeneratedPairData(2, 5, (3, 3), (0, 0))
        report = characterize(C22, pair)
        assert report.verdict is CharacterizationKind.CONDITIONAL
        assert report.missing_assumptions == ("butler_conjecture",)
        assert any("butler_conjecture" in n for n in report.notes)

    def test_butler_flag_unlocks_higher_rank(self):
        pair = GeneratedPairData(
            2, 5, (3, 3), (0, 0), assumptions=PairAssumptions(butler_conjecture=True)
        )
        report = characterize(C22, pair)
        assert report.verdict is CharacterizationKind.EXISTS_SEMISTABLE_POLARIZATION

    def test_divisibility_contradiction_certificate(self):
        pair = GeneratedPairData(1, 4, (3, 9), (1, 0))
        report = characterize(C22, pair)
        assert report.verdict is CharacterizationKind.DIVISIBILITY_CONTRADICTION
        assert report.triggering_j == 1

    def test_gap_case_not_determined(self):
        pair = GeneratedPairData(1, 4, (2, 5), (1, 0))
        report = characterize(C23, pair)
        assert report.verdict is CharacterizationKind.NOT_DETERMINED


def _longhand_strong_unstability(genera, pair):
    """(kind, j) of strong unstability, written out from the statement.

    Every tooth with a nonzero kernel and positive degree is tested and the
    smallest trigger reported: m = 2 always triggers; m > 2 triggers when m
    divides chi_j(M) = m*(1 - g_j) - d_j or when d_j differs from m - r_j.
    """
    m = pair.sections - pair.rank
    if not any(pair.kernel_dims):
        return StrongUnstabilityKind.NO_KERNEL_OBSTRUCTION, None
    if m == 1:
        return StrongUnstabilityKind.NOT_DETERMINED, None
    triggers = []
    teeth = zip(genera[:-1], pair.multidegree[:-1], pair.kernel_dims[:-1])
    for j, (g, d, k) in enumerate(teeth, start=1):
        if k == 0 or d <= 0:
            continue
        r = (m * (1 - g) - d) % m
        if m == 2 or r == 0 or d != m - r:
            triggers.append(j)
    if triggers:
        return StrongUnstabilityKind.STRONGLY_UNSTABLE, min(triggers)
    return StrongUnstabilityKind.NOT_DETERMINED, None


def _positive_degree_trigger(k: int, d: int) -> bool:
    return k > 0 and d > 0


def _longhand_characterize(genera, pair, trigger=_positive_degree_trigger):
    """(kind, j, missing assumptions) of the characterization, written out.

    ``trigger`` decides which tooth certifies a divisibility contradiction.
    """
    m = pair.sections - pair.rank
    if not any(pair.kernel_dims):
        needed = "general_linear_series" if pair.rank == 1 else "butler_conjecture"
        if getattr(pair.assumptions, needed):
            return CharacterizationKind.EXISTS_SEMISTABLE_POLARIZATION, None, ()
        return CharacterizationKind.CONDITIONAL, None, (needed,)
    if m > 2 and all(d % m == 0 for d in pair.multidegree):
        teeth = zip(pair.kernel_dims[:-1], pair.multidegree[:-1])
        certified = [j for j, (k, d) in enumerate(teeth, start=1) if trigger(k, d)]
        if certified:
            return CharacterizationKind.DIVISIBILITY_CONTRADICTION, certified[0], ()
    kind, j = _longhand_strong_unstability(genera, pair)
    if kind is StrongUnstabilityKind.STRONGLY_UNSTABLE:
        return CharacterizationKind.STRONGLY_UNSTABLE, j, ()
    return CharacterizationKind.NOT_DETERMINED, None, ()


def _drawn_pairs(seed: int, count: int):
    """Valid pairs over every flag combination; a third have every degree a multiple of m."""
    rng = random.Random(seed)
    for i in range(count):
        num, n, m = rng.randint(2, 5), rng.randint(1, 3), rng.randint(1, 5)
        genera = tuple(rng.randint(2, 4) for _ in range(num))
        if rng.randrange(5) == 0:
            kernel_dims = [0] * num
        else:
            kernel_dims = [rng.randint(1, m) if rng.randrange(2) else 0 for _ in range(num)]
            if kernel_dims[-1] and not any(kernel_dims[:-1]):
                kernel_dims[0] = 1
        multiples = rng.randrange(3) == 0
        degrees = []
        for k in kernel_dims:
            if rng.randrange(4) == 0:
                degrees.append(0)
            elif multiples:
                degrees.append(m * max(rng.randint(1, 4), 2 if m == 1 else 1))
            else:
                floor = max(2, m - k)
                degrees.append(rng.randint(floor, floor + 3 * m))
        flags = PairAssumptions(*(bool(i >> bit & 1) for bit in range(3)))
        yield genera, GeneratedPairData(n, n + m, tuple(degrees), tuple(kernel_dims), flags)


def test_kernel_verdicts_match_the_longhand():
    strong_kinds, characterizations, caught = set(), set(), 0
    for genera, pair in _drawn_pairs(seed=13, count=2400):
        curve = CombCurve(genera)
        assert validate_pair(curve, pair) == []
        su = strong_unstability(curve, pair)
        assert (su.verdict, su.triggering_j) == _longhand_strong_unstability(genera, pair)
        report = characterize(curve, pair)
        got = (report.verdict, report.triggering_j, report.missing_assumptions)
        expected = _longhand_characterize(genera, pair)
        assert got == expected, (genera, pair)
        mutant = _longhand_characterize(genera, pair, trigger=lambda k, d: k > 0)
        caught += mutant != got
        strong_kinds.add(su.verdict)
        characterizations.add(report.verdict)
    assert strong_kinds == set(StrongUnstabilityKind)
    assert characterizations == set(CharacterizationKind)
    # "First tooth with a kernel, whatever its degree" would be told apart.
    assert caught > 0


def _grid_pairs(seed: int, count: int):
    """Valid pairs over every flag combination, with d_j = 0 exactly when k_j = l - n.

    About a third have no kernel at all and, drawn apart from that, a third
    have every degree a multiple of m.
    """
    rng = random.Random(seed)
    for i in range(count):
        num, n, m = rng.randint(2, 6), rng.randint(1, 4), rng.randint(1, 5)
        genera = tuple(rng.randint(2, 5) for _ in range(num))
        kernel_dims = [0] * num
        if rng.randrange(3):
            kernel_dims = [rng.randint(1, m) if rng.randrange(2) else 0 for _ in range(num)]
            if kernel_dims[-1] and not any(kernel_dims[:-1]):
                kernel_dims[0] = 1
        multiples = rng.randrange(3) == 0
        degrees = []
        for k in kernel_dims:
            if k == m:
                degrees.append(0)
            elif multiples:
                degrees.append(m * rng.randint(2 if m == 1 else 1, 4))
            else:
                floor = max(2, m - k)
                degrees.append(rng.randint(floor, floor + 3 * m))
        flags = PairAssumptions(*(bool(i >> bit & 1) for bit in range(3)))
        pair = GeneratedPairData(n, n + m, tuple(degrees), tuple(kernel_dims), flags)
        yield CombCurve(genera), pair


def test_kernel_verdict_grid_is_pinned():
    # Every public kernel-bundle result on 4000 pairs, hashed as its repr.
    digest = hashlib.sha256()
    strong_kinds, characterizations = set(), set()
    negative = {CharacterizationKind.STRONGLY_UNSTABLE, CharacterizationKind.DIVISIBILITY_CONTRADICTION}
    for curve, pair in _grid_pairs(seed=19, count=4000):
        su = strong_unstability(curve, pair)
        report = characterize(curve, pair)
        results = (kernel_data(curve, pair), su, report, kernel_polarization(curve, pair))
        digest.update(repr(results).encode())
        strong_kinds.add(su.verdict)
        characterizations.add(report.verdict)
        # The kernel command's exit code relies on this.
        assert (report.verdict in negative) == (su.verdict is StrongUnstabilityKind.STRONGLY_UNSTABLE)
    assert strong_kinds == set(StrongUnstabilityKind)
    assert characterizations == set(CharacterizationKind)
    assert digest.hexdigest() == "188927ce72035c2772c75139e14a05ca83a9fa6db57fb2d54114a81d41601e1d"
