import pytest
from fractions import Fraction

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
    restriction_unstable,
    slope,
    strong_unstability,
    total_euler,
    validate_pair,
)
from combstab.oracles import InstanceBounds, pair_stream

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

    def test_sections_must_exceed_rank(self):
        assert any(
            "sections" in v for v in validate_pair(C22, GeneratedPairData(3, 3, (4, 4), (0, 0)))
        )

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

    def test_identity_against_defining_sequence(self):
        # chi(M) = l * chi(structure sheaf) - chi(E), recomputed from scratch.
        for curve, pair in pair_stream(InstanceBounds(seed=9), 200):
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
        witness = restriction_unstable(C22, pair, 1)
        assert witness is not None
        assert witness.multirank == (1, 0)
        assert witness.euler == -1
        assert witness.label == "trivial-kernel-part"
        # slope 0 of the trivial part beats -d_1/(l-n) = -3/2
        assert Fraction(0) > Fraction(-3, 2)

    def test_witnesses_match_the_dense_longhand(self):
        # Generated pairs up to N = 200: every witness, spine ones included.
        bounds = InstanceBounds(max_components=200, max_weight_denominator=200, seed=4)
        seen = set()
        for curve, pair in pair_stream(bounds, 40):
            num = curve.num_components
            w = kernel_polarization(curve, pair)
            for j in range(1, num + 1):
                witness = restriction_unstable(curve, pair, j)
                if witness is None:
                    continue
                k = pair.kernel_dims[j - 1]
                assert list(witness.multirank) == [k if i == j else 0 for i in range(1, num + 1)]
                assert witness.euler == k * (1 - curve.genera[j - 1])
                assert restriction_unstable(curve, pair, j) == witness
                assert slope(witness, w) == Fraction(witness.euler) / (k * w.weights[j - 1])
                seen.add(j == num)
        assert seen == {False, True}

    def test_no_kernel_no_witness(self):
        pair = GeneratedPairData(1, 3, (3, 3), (1, 0))
        assert restriction_unstable(C22, pair, 2) is None

    def test_degree_zero_degenerates(self):
        pair = GeneratedPairData(1, 3, (0, 3), (1, 0))
        assert restriction_unstable(C22, pair, 1) is None


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
        for curve, pair in pair_stream(InstanceBounds(seed=3), 300):
            assert kernel_polarization(curve, pair) is not None


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
