import hashlib
import random

import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from combstab import (
    BundleData,
    CombCurve,
    Polarization,
    RestrictionCase,
    classify_restriction,
    component_eulers,
    destabilizer_candidates,
    euclidean_remainder,
    filtered_destabilizer_candidates,
    total_euler,
)
from combstab.oracles import oracle_filtered_destabilizers
from combstab.restrictions import _candidate_range, _listing_length

C22 = CombCurve((2, 2))
B11 = BundleData(2, (1, 1))


class TestEuclideanRemainder:
    # The convention matters: truncated mod would give -1 for (-7, 3).
    @pytest.mark.parametrize(
        "value,modulus,expected",
        [(-7, 3, 2), (-5, 3, 1), (-6, 3, 0), (7, 3, 1), (0, 5, 0), (-1, 2, 1)],
    )
    def test_values(self, value, modulus, expected):
        assert euclidean_remainder(value, modulus) == expected
        quotient = (value - expected) // modulus
        assert modulus * quotient + expected == value

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            euclidean_remainder(3, 0)


@given(
    st.integers(1, 6),
    st.integers(-300, 300),
    st.integers(1, 6),
    st.integers(1, 64),
    st.integers(1, 64),
    st.integers(-300, 300),
)
def test_candidate_range_matches_fraction_arithmetic(k, chi_j, n, w_num, w_den, chi):
    candidates = _candidate_range(k, n, chi_j, chi, Fraction(w_num, w_den))
    lo, hi = candidates.start, candidates.stop - 1
    threshold = Fraction(chi_j, n)
    ceiling = Fraction(k * w_num * chi, w_den * n) + k
    for probe in (lo - 1, lo, hi, hi + 1):
        admissible = Fraction(probe, k) > threshold and probe <= ceiling
        assert admissible == (probe in candidates)


class TestDestabilizerCandidates:
    def test_rank2_worked(self):
        w = Polarization(("1/3", "2/3"))
        assert destabilizer_candidates(C22, B11, w, 1, 1) == [0]

    def test_rank3_worked(self):
        curve = CombCurve((2, 2))
        bundle = BundleData(3, (-3, -5))  # chis (-6, -8), total -17
        assert component_eulers(curve, bundle) == (-6, -8)
        assert total_euler(curve, bundle) == -17
        w = Polarization(("2/5", "3/5"))
        assert destabilizer_candidates(curve, bundle, w, 1, 2) == [-3]
        assert destabilizer_candidates(curve, bundle, w, 1, 1) == []

    def test_rank_bounds(self):
        w = Polarization(("1/3", "2/3"))
        with pytest.raises(ValueError):
            destabilizer_candidates(C22, B11, w, 1, 2)
        with pytest.raises(ValueError):
            destabilizer_candidates(C22, B11, w, 1, 0)


class TestDivisibilityExclusion:
    # The filters' divisibility rule on worked values: with n | chi_j a pair
    # (k, chi_L) with k | chi_L is excluded outright; otherwise such a pair
    # survives only at the pinned quotient chi_L/k = floor(chi_j/n) + 1.

    @staticmethod
    def raw_and_kept(chi_1):
        # Rank 3 on genera (2, 2), spine degree 40, weights (1/2, 1/2).
        bundle = BundleData(3, (chi_1 + 3, 40))
        w = Polarization(("1/2", "1/2"))
        raw = {(k, chi_l) for k in (1, 2) for chi_l in destabilizer_candidates(C22, bundle, w, 1, k)}
        return raw, set(filtered_destabilizer_candidates(C22, bundle, w, 1))

    def test_worked(self):
        raw, kept = self.raw_and_kept(-6)
        assert (1, 5) in raw and (1, 5) not in kept
        assert (2, -3) in kept
        assert (1, -2) in self.raw_and_kept(-7)[1]

    def test_negative_euler_uses_euclidean_convention(self):
        raw, kept = self.raw_and_kept(-9)
        assert (2, -4) in raw and (2, -4) not in kept
        # floor(-8/3) + 1 = -2 = -4/2; truncated division would pin -1.
        assert (2, -4) in self.raw_and_kept(-8)[1]


class TestClassifyRank2:
    def test_forced_destabilizer(self):
        w = Polarization(("1/3", "2/3"))
        verdict = classify_restriction(C22, B11, w, 1)
        assert verdict.case is RestrictionCase.POSSIBLY_UNSTABLE
        assert verdict.forced_destabilizers == ((1, 0),)

    def test_integral_weight_chi_is_inconclusive(self):
        w = Polarization(("1/2", "1/2"))
        verdict = classify_restriction(C22, B11, w, 1)
        assert verdict.case is RestrictionCase.INCONCLUSIVE_INTEGRAL_WCHI
        assert verdict.forced_destabilizers == ()

    def test_window(self):
        # chis (-1, -3), total -6; w_1*chi = -3/2, window (-1/2, 1/2)... take
        # w so that chi_1 = -1 falls strictly inside (w_1*chi+1, w_1*chi+2).
        bundle = BundleData(2, (1, -1))
        w = Polarization(("2/5", "3/5"))
        chi = total_euler(C22, bundle)
        assert w.weights[0] * chi + 1 < -1 < w.weights[0] * chi + 2
        verdict = classify_restriction(C22, bundle, w, 1)
        assert verdict.case is RestrictionCase.SEMISTABLE_BY_WINDOW

    def test_even_euler_is_semistable(self):
        bundle = BundleData(2, (2, 3))  # chis (0, 1), total -1
        w = Polarization(("1/3", "2/3"))
        assert (w.weights[0] * total_euler(C22, bundle)).denominator != 1
        verdict = classify_restriction(C22, bundle, w, 1)
        assert verdict.case is RestrictionCase.SEMISTABLE_BY_PARITY


class TestClassifyRankN:
    CURVE = CombCurve((2, 2))
    BUNDLE = BundleData(3, (-3, -5))  # chis (-6, -8), total -17

    def test_window(self):
        w = Polarization(("1/2", "1/2"))
        verdict = classify_restriction(self.CURVE, self.BUNDLE, w, 1)
        assert verdict.case is RestrictionCase.SEMISTABLE_BY_WINDOW

    def test_forced_list_excludes_line_subbundles(self):
        w = Polarization(("2/5", "3/5"))
        verdict = classify_restriction(self.CURVE, self.BUNDLE, w, 1)
        assert verdict.case is RestrictionCase.POSSIBLY_UNSTABLE
        assert verdict.forced_destabilizers == ((2, -3),)
        assert all(k != 1 for k, _ in verdict.forced_destabilizers)

    def test_integral_weight_chi(self):
        # w_1 * chi = -17/17 * ... pick weights with denominator 17.
        w = Polarization((Fraction(5, 17), Fraction(12, 17)))
        verdict = classify_restriction(self.CURVE, self.BUNDLE, w, 1)
        assert verdict.case is RestrictionCase.INCONCLUSIVE_INTEGRAL_WCHI

    def test_integral_slope_candidates_are_pinned(self):
        # chis (-7, -3), total -13; remainder of -7 mod 3 is 2, so candidates
        # with k | chi_L must sit at chi_L/k = -2; (2, -4) survives, (2, -2)
        # and (1, -1) style values are dropped.
        curve = CombCurve((2, 2))
        bundle = BundleData(3, (-4, 0))
        assert component_eulers(curve, bundle) == (-7, -3)
        w = Polarization(("1/2", "1/2"))
        verdict = classify_restriction(curve, bundle, w, 1)
        assert verdict.case is RestrictionCase.POSSIBLY_UNSTABLE
        assert verdict.forced_destabilizers == ((1, -2), (2, -4), (2, -3))
        wider = Polarization(("1/5", "4/5"))
        verdict = classify_restriction(curve, bundle, wider, 1)
        assert destabilizer_candidates(curve, bundle, wider, 1, 1) == [-2, -1, 0]
        assert destabilizer_candidates(curve, bundle, wider, 1, 2) == [-4, -3, -2, -1, 0]
        assert verdict.forced_destabilizers == ((1, -2), (2, -4), (2, -3), (2, -1))

    def test_divisibility_semistable(self):
        # 3 | chi_1 = 3, window fails, and the filters empty every rank.
        curve = CombCurve((2, 2))
        bundle = BundleData(3, (6, -2))  # chis (3, -5), total -5
        w = Polarization(("1/2", "1/2"))
        verdict = classify_restriction(curve, bundle, w, 1)
        assert verdict.case is RestrictionCase.SEMISTABLE_BY_DIVISIBILITY
        assert filtered_destabilizer_candidates(curve, bundle, w, 1) == ()

    def test_semistable_verdicts_have_empty_filtered_sets(self):
        for w_str in (["1/2", "1/2"], ["3/7", "4/7"], ["2/5", "3/5"]):
            w = Polarization(w_str)
            verdict = classify_restriction(self.CURVE, self.BUNDLE, w, 1)
            if verdict.case.is_semistable:
                assert filtered_destabilizer_candidates(self.CURVE, self.BUNDLE, w, 1) == ()


def test_filters_skip_huge_candidate_ranges():
    # chi_1 lies about 10^29 below w_1*chi, so each raw rank-k range is that
    # long; the survivors are the pinned line subbundle (n = 2) or the k - 1
    # eulers above k*chi_1/n (n | chi_1), and no range is walked.
    w = Polarization(("1/2", "1/2"))
    assert filtered_destabilizer_candidates(C22, BundleData(2, (5, 10**30)), w, 1) == ((1, 2),)
    assert filtered_destabilizer_candidates(
        CombCurve((0, 0)), BundleData(4, (4, 10**30)), w, 1
    ) == ((2, 5), (3, 7), (3, 8))


def test_dispatch():
    w = Polarization(("1/3", "2/3"))
    assert classify_restriction(C22, B11, w, 1).case is RestrictionCase.POSSIBLY_UNSTABLE
    v = classify_restriction(CombCurve((2, 2)), BundleData(3, (-3, -5)), Polarization(("1/2", "1/2")), 1)
    assert v.case is RestrictionCase.SEMISTABLE_BY_WINDOW
    with pytest.raises(ValueError):
        classify_restriction(C22, BundleData(1, (1, 1)), w, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda w, j: classify_restriction(C22, B11, w, j),
        lambda w, j: destabilizer_candidates(C22, B11, w, j, 1),
        lambda w, j: filtered_destabilizer_candidates(C22, B11, w, j),
    ],
    ids=["classify", "candidates", "filtered"],
)
def test_tooth_index_and_weight_count_are_checked(call):
    w = Polarization(("1/3", "2/3"))
    for j in (0, 2):
        with pytest.raises(IndexError) as exc:
            call(w, j)
        assert str(exc.value) == f"tooth index must be in 1..1, got {j}"
    with pytest.raises(ValueError) as exc:
        call(Polarization(("1/3", "1/3", "1/3")), 1)
    assert str(exc.value) == "polarization has 3 entries for a curve with 2 components"


# sha256 over (j, case value, forced destabilizers, notes) of every tooth
# verdict on the seeded grid below, taken when rank 2 and ranks >= 3 still
# had separate classifiers; any change to a verdict or its text moves it.
CLASSIFICATION_GRID_SHA256 = "8c358f8f59962f1a78e0b901878d66f3f39b4366072a087da49bb7518aa7e809"


def test_classification_grid_is_pinned():
    # Ranks 2-5, N <= 5 components, weight denominators <= 40.
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    seen = set()
    for _ in range(4000):
        n, num = rng.randint(2, 5), rng.randint(2, 5)
        curve = CombCurve(tuple(rng.randint(0, 3) for _ in range(num)))
        bundle = BundleData(n, tuple(rng.randint(-12, 12) for _ in range(num)))
        den = rng.randint(num, 40)
        cuts = sorted(rng.sample(range(1, den), num - 1))
        w = Polarization(tuple(Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])))
        chis = component_eulers(curve, bundle)
        for j in range(1, num):
            v = classify_restriction(curve, bundle, w, j)
            digest.update(repr((v.j, v.case.value, v.forced_destabilizers, v.notes)).encode())
            parity = chis[j - 1] % 2 if n == 2 else None
            seen.add((n == 2, v.case, parity, bool(v.forced_destabilizers)))
    # Every case at both rank kinds, forced lists empty and not, and the
    # rank-2 window with odd chi_j, which the parity exit would not reach.
    assert (True, RestrictionCase.SEMISTABLE_BY_WINDOW, 1, False) in seen
    only_above_rank2 = RestrictionCase.SEMISTABLE_BY_DIVISIBILITY
    only_rank2 = RestrictionCase.SEMISTABLE_BY_PARITY
    assert {(rank2, case) for rank2, case, _, _ in seen} == {
        (rank2, case)
        for rank2 in (True, False)
        for case in RestrictionCase
        if case is not (only_above_rank2 if rank2 else only_rank2)
    }
    unstable = {(rank2, forced) for rank2, case, _, forced in seen if case is RestrictionCase.POSSIBLY_UNSTABLE}
    assert unstable == {(rank2, forced) for rank2 in (True, False) for forced in (True, False)}
    assert digest.hexdigest() == CLASSIFICATION_GRID_SHA256


def _longhand_case(n: int, chi_j: int, chi: int, w_j: Fraction, forced) -> RestrictionCase:
    """The classifier's decision written out in Fraction arithmetic."""
    wchi = w_j * chi
    if wchi.denominator == 1:
        return RestrictionCase.INCONCLUSIVE_INTEGRAL_WCHI
    if n == 2:
        if wchi + 1 < chi_j < wchi + 2:
            return RestrictionCase.SEMISTABLE_BY_WINDOW
        if chi_j % 2 == 0:
            return RestrictionCase.SEMISTABLE_BY_PARITY
        return RestrictionCase.POSSIBLY_UNSTABLE
    if chi_j % n == 0 and wchi + (n - 1) < chi_j < wchi + n:
        return RestrictionCase.SEMISTABLE_BY_WINDOW
    if chi_j % n == 0 and not forced:
        return RestrictionCase.SEMISTABLE_BY_DIVISIBILITY
    return RestrictionCase.POSSIBLY_UNSTABLE


def test_classifier_matches_fraction_longhand_on_a_grid():
    # Two genus-0 components, so chi_1 = d_1 + n and chi = d_1 + d_2 + n are
    # set directly.  chi runs through negative, zero and positive values,
    # chi_1 through both edges of each unit window, and w_1 = p/q through
    # every fraction with q <= 6, integral w_1*chi included.
    curve = CombCurve((0, 0))
    weights = sorted({Fraction(p, q) for q in range(2, 7) for p in range(1, q)})
    cases, edges = set(), set()
    for n in (2, 3, 4):
        window = 1 if n == 2 else n - 1
        for chi in range(-6, 7):
            for chi_1 in range(-10, 11):
                bundle = BundleData(n, (chi_1 - n, chi - chi_1))
                for w_1 in weights:
                    w = Polarization((w_1, 1 - w_1))
                    verdict = classify_restriction(curve, bundle, w, 1)
                    oracle = oracle_filtered_destabilizers(curve, bundle, w, 1)
                    case = _longhand_case(n, chi_1, chi, w_1, oracle)
                    assert verdict.case is case, (n, chi_1, chi, w_1)
                    if case is RestrictionCase.POSSIBLY_UNSTABLE:
                        assert list(verdict.forced_destabilizers) == oracle
                    elif case is RestrictionCase.INCONCLUSIVE_INTEGRAL_WCHI:
                        assert f"w_1*chi = {w_1 * chi} is an integer" in verdict.notes
                    cases.add((n == 2, case, (chi > 0) - (chi < 0)))
                    offset = chi_1 - w_1 * chi
                    if offset in (window, window + 1):
                        edges.add((n, offset - window))
                    # The listing bound: ranks k >= 2 walked entry by entry
                    # when n does not divide chi_1, plus the pairs listed
                    # beside that walk (one for rank 1, else n(n-1)/2).
                    longhand_walk = longhand_pairs = 0
                    if (w_1 * chi).denominator != 1:
                        if chi_1 % n:
                            longhand_walk = sum(
                                len(destabilizer_candidates(curve, bundle, w, 1, k))
                                for k in range(2, n)
                            )
                            longhand_pairs = 1
                        else:
                            longhand_pairs = n * (n - 1) // 2
                    listing = _listing_length(n, (chi_1, chi - chi_1 + n), chi, w)
                    assert listing == longhand_walk + longhand_pairs
                    assert listing >= len(verdict.forced_destabilizers)
    assert edges == {(n, e) for n in (2, 3, 4) for e in (0, 1)}
    # chi = 0 makes w_1*chi integral, so every other case needs chi != 0.
    reachable = {
        True: ("SEMISTABLE_BY_WINDOW", "SEMISTABLE_BY_PARITY", "POSSIBLY_UNSTABLE"),
        False: ("SEMISTABLE_BY_WINDOW", "SEMISTABLE_BY_DIVISIBILITY", "POSSIBLY_UNSTABLE"),
    }
    assert cases == {
        (rank2, RestrictionCase.INCONCLUSIVE_INTEGRAL_WCHI, sign) for rank2 in reachable for sign in (-1, 0, 1)
    } | {
        (rank2, RestrictionCase[name], sign)
        for rank2, names in reachable.items()
        for name in names
        for sign in (-1, 1)
    }


def test_wide_classification_matches_longhand_chi():
    # N = 2000, rank 3: chi comes from totals the records keep, so every
    # tooth's verdict is checked against chi summed here entry by entry.
    rng = random.Random(2000)
    num, n = 2000, 3
    curve = CombCurve(tuple(rng.randint(0, 3) for _ in range(num)))
    bundle = BundleData(n, tuple(rng.randint(-20, 20) for _ in range(num)))
    den = rng.randint(num, 8 * num)
    cuts = sorted(rng.sample(range(1, den), num - 1))
    w = Polarization(tuple(Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])))
    chis = [d + n * (1 - g) for g, d in zip(curve.genera, bundle.multidegree)]
    chi = sum(chis) - n * (num - 1)
    assert total_euler(curve, bundle) == chi
    cases = set()
    for j in range(1, num):
        verdict = classify_restriction(curve, bundle, w, j)
        oracle = oracle_filtered_destabilizers(curve, bundle, w, j)
        case = _longhand_case(n, chis[j - 1], chi, w.weights[j - 1], oracle)
        assert verdict.case is case, j
        assert list(verdict.forced_destabilizers) == (
            oracle if case is RestrictionCase.POSSIBLY_UNSTABLE else []
        )
        cases.add(case)
    assert len(cases) >= 3
