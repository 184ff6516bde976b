import gc
import random
from fractions import Fraction

import pytest

from hypothesis import given

from combstab import (
    BundleData,
    CombCurve,
    GeneratedPairData,
    IntervalQ,
    Polarization,
    canonical_witnesses,
    feasible_region,
    necessary_check,
    pick_simplest_rational,
    slope,
    synthesize_polarization,
    total_euler,
    validate_polarization,
)

from combstab import kernels, oracles, polarization
from combstab.kernel_bundles import _restriction_witness
from longhand import interval_contains, interval_intersection, synthesize_longhand
from test_model import curve_bundle_polarization

C22 = CombCurve((2, 2))
B11 = BundleData(2, (1, 1))
B51 = BundleData(2, (5, 1))
W_HALF = Polarization(("1/2", "1/2"))
C000 = CombCurve((0, 0, 0))
B_NARROW = BundleData(1, (-51, -51, 0))
B_CHI_ZERO = BundleData(2, (-1, -1, 0))  # chi_j = 1 on both teeth, chi = 0


def _force_first_picks(monkeypatch, picks):
    """The first len(picks) calls of the pick kernel return ``picks``, later ones the real pick."""
    real, forced = kernels.simplest_between, iter(picks)

    def simplest_between(*ends):
        pick = next(forced, None)
        return real(*ends) if pick is None else (pick.numerator, pick.denominator)

    monkeypatch.setattr(polarization.kernels, "simplest_between", simplest_between)


def assert_strict_inequalities(curve: CombCurve, bundle: BundleData, w: Polarization) -> None:
    n = bundle.rank
    chi = total_euler(curve, bundle)
    for j in range(1, curve.num_components):
        wchi = w.weights[j - 1] * chi
        chij = bundle.multidegree[j - 1] + n * (1 - curve.genera[j - 1])
        assert wchi < chij < wchi + n


class TestCanonicalWitnesses:
    def test_worked(self):
        restricted, complement = canonical_witnesses(C22, B11, 1)
        assert restricted.multirank == (2, 0)
        assert restricted.euler == -3
        assert restricted.label == "E_1(-p_1)"
        assert complement.multirank == (0, 2)
        assert complement.euler == -3
        assert complement.label == "tilde-E_1"

    def test_positive_degree(self):
        restricted, _ = canonical_witnesses(C22, B51, 1)
        assert restricted.multirank == (2, 0)
        assert restricted.euler == 1

    def test_degenerate_complement_euler(self):
        # chi_1 equal to the total chi makes the complement euler vanish.
        curve = CombCurve((0, 0))
        bundle = BundleData(1, (5, 0))
        _, complement = canonical_witnesses(curve, bundle, 1)
        assert total_euler(curve, bundle) == 6
        assert complement.euler == 0

    def test_index_errors(self):
        with pytest.raises(IndexError):
            canonical_witnesses(C22, B11, 2)  # the spine has no witness pair
        with pytest.raises(IndexError):
            canonical_witnesses(C22, B11, 0)

    def test_large_curve_derives_one_tooth(self, monkeypatch):
        # Only tooth j's euler and the closed-form total are derived.
        def refuse(curve, bundle):
            raise AssertionError("every component's euler number was derived")

        monkeypatch.setattr(polarization, "component_eulers", refuse)
        num = 10**5
        curve = CombCurve((2,) * num)
        bundle = BundleData(3, (4,) * num)
        restricted, complement = canonical_witnesses(curve, bundle, num - 1)
        # chi_j = 4 + 3*(1 - 2) = 1 and chi = 4*N + 3*(1 - 2*N) = 3 - 2*N.
        assert (restricted.euler, complement.euler) == (1 - 3, 3 - 2 * num - 1)
        assert restricted.num_components == complement.num_components == num


class TestNecessaryCheck:
    def test_passing_instance(self):
        verdict = necessary_check(C22, B11, W_HALF)
        assert verdict.overall_pass
        (check,) = verdict.components
        assert check.lower_ok and check.upper_ok
        assert check.witness is None and check.witness_slope is None

    def test_upper_failure_is_weight_independent_at_chi_zero(self):
        for w in (W_HALF, Polarization(("1/5", "4/5"))):
            verdict = necessary_check(C22, B51, w)
            assert not verdict.overall_pass
            (check,) = verdict.components
            assert check.lower_ok and not check.upper_ok
            assert check.witness is not None
            assert check.witness.label == "E_1(-p_1)"
            assert check.witness_slope > Fraction(total_euler(C22, B51), 2)

    def test_boundary_equality_passes(self):
        # chi_1 = w_1 * chi exactly: the closed inequality holds.
        bundle = BundleData(2, (0, 2))
        verdict = necessary_check(C22, bundle, W_HALF)
        assert verdict.components[0].lower_ok

    def test_weight_count_is_checked(self):
        with pytest.raises(ValueError) as exc:
            necessary_check(C22, B11, Polarization(("1/3", "1/3", "1/3")))
        assert str(exc.value) == "polarization has 3 entries for a curve with 2 components"

    @given(curve_bundle_polarization())
    def test_witness_slope_identity(self, cbw):
        # A side fails exactly when its witness profile out-slopes the bundle.
        curve, bundle, w = cbw
        mu = Fraction(total_euler(curve, bundle), bundle.rank)
        verdict = necessary_check(curve, bundle, w)
        for check in verdict.components:
            restricted, complement = canonical_witnesses(curve, bundle, check.j)
            assert check.upper_ok == (slope(restricted, w) <= mu)
            assert check.lower_ok == (slope(complement, w) <= mu)

    def test_reported_slope_is_model_slope(self):
        # Seeded instances, half with weights that do not sum to 1: the
        # reported slope comes from n*w_j or n*(S - w_j), never from slope().
        rng = random.Random(20260808)
        seen = set()
        for i in range(600):
            num = rng.randint(2, 8)
            curve = CombCurve(tuple(rng.randint(0, 4) for _ in range(num)))
            bundle = BundleData(rng.randint(1, 4), tuple(rng.randint(-20, 20) for _ in range(num)))
            if i % 2:
                w = Polarization(tuple(Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(num)))
            else:
                den = rng.randint(num, 64)
                cuts = sorted(rng.sample(range(1, den), num - 1))
                w = Polarization(tuple(Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])))
            for check in necessary_check(curve, bundle, w).components:
                if check.witness is None:
                    assert check.lower_ok and check.upper_ok and check.witness_slope is None
                    continue
                restricted, complement = canonical_witnesses(curve, bundle, check.j)
                assert check.witness == (complement if not check.lower_ok else restricted)
                assert check.witness_slope == slope(check.witness, w)
                seen.add((check.witness.label[0], sum(w.weights) == 1))
        assert seen == {("E", True), ("E", False), ("t", True), ("t", False)}

    @pytest.mark.parametrize("weights", [("0", "1"), ("-1/3", "4/3")])
    def test_nonpositive_weight_raises_like_slope(self, weights):
        # chis (3, -1), chi 0: the upper side fails at any weight, and the
        # twisted restriction has weighted multirank 2*w_1 <= 0.
        w = Polarization(weights)
        restricted, _ = canonical_witnesses(C22, B51, 1)
        with pytest.raises(ValueError) as expected:
            slope(restricted, w)
        with pytest.raises(ValueError) as got:
            necessary_check(C22, B51, w)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("weights", [("1", "0"), ("3/2", "-1/2")])
    def test_nonpositive_complement_weight_raises_like_slope(self, weights):
        # chis (1, 6), chi 6: w_1 >= 1 makes w_1*chi > chi_1, a lower failure
        # whose complement has weighted multirank w_2 <= 0.
        curve, bundle = CombCurve((0, 0)), BundleData(1, (0, 5))
        w = Polarization(weights)
        _, complement = canonical_witnesses(curve, bundle, 1)
        with pytest.raises(ValueError) as expected:
            slope(complement, w)
        with pytest.raises(ValueError) as got:
            necessary_check(curve, bundle, w)
        assert str(got.value) == str(expected.value)

    def test_wide_instance(self):
        # N = 1000, rank 3, random degrees: most teeth fail.  Every witness
        # is checked against the quotient written out, a sample against slope().
        rng = random.Random(1000)
        num, n = 1000, 3
        curve = CombCurve(tuple(rng.randint(0, 3) for _ in range(num)))
        bundle = BundleData(n, tuple(rng.randint(-20, 20) for _ in range(num)))
        den = rng.randint(num, 8 * num)
        cuts = sorted(rng.sample(range(1, den), num - 1))
        w = Polarization(tuple(Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])))
        chi = total_euler(curve, bundle)
        verdict = necessary_check(curve, bundle, w)
        failing = [c for c in verdict.components if c.witness is not None]
        assert len(failing) > num // 2 and not verdict.overall_pass
        for check in failing:
            w_j = w.weights[check.j - 1]
            share = w_j if check.lower_ok else 1 - w_j
            assert check.witness_slope == Fraction(check.witness.euler) / (n * share)
            assert check.witness_slope > Fraction(chi, n)
            assert sum(check.witness.multirank) == n * (1 if check.lower_ok else num - 1)
        for check in failing[::50]:
            assert check.witness_slope == slope(check.witness, w)


def _wide(seed: int, num: int, n: int) -> tuple[CombCurve, BundleData, Polarization]:
    """Random genera 0..3 and degrees -20..20, weights with a common denominator."""
    rng = random.Random(seed)
    curve = CombCurve(tuple(rng.randint(0, 3) for _ in range(num)))
    bundle = BundleData(n, tuple(rng.randint(-20, 20) for _ in range(num)))
    den = rng.randint(num, 8 * num)
    cuts = sorted(rng.sample(range(1, den), num - 1))
    return curve, bundle, Polarization(tuple(Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])))


class TestToothWitness:
    @pytest.mark.parametrize("num, n", [(2, 2), (3, 1), (30, 4), (300, 2), (1000, 3)])
    def test_wide_witnesses_match_the_dense_longhand(self, num, n):
        curve, bundle, w = _wide(num + n, num, n)
        verdict = necessary_check(curve, bundle, w)
        failing = [c for c in verdict.components if c.witness is not None]
        assert failing
        for check in failing:
            j = check.j
            if not check.lower_ok:
                dense = [0 if i == j else n for i in range(1, num + 1)]
            else:
                dense = [n if i == j else 0 for i in range(1, num + 1)]
            assert list(check.witness.multirank) == dense
            restricted, complement = canonical_witnesses(curve, bundle, j)
            rebuilt = complement if not check.lower_ok else restricted
            assert rebuilt is not check.witness
            assert rebuilt == check.witness and hash(rebuilt) == hash(check.witness)
            assert slope(check.witness, w) == check.witness_slope

    def test_witness_holds_no_n_entry_container(self):
        # At N = 10^4 a witness stores a handful of scalars, never the
        # multirank itself; .multirank is built on request.
        num = 10**4
        curve, bundle, w = _wide(7, num, 3)
        witnesses = [c.witness for c in necessary_check(curve, bundle, w).components if c.witness]
        assert {wt.label[0] for wt in witnesses} == {"E", "t"}
        witnesses += canonical_witnesses(curve, bundle, num - 1)
        pair = GeneratedPairData(1, 3, (3,) * num, (1,) + (0,) * (num - 2) + (1,))
        witnesses.append(_restriction_witness(CombCurve((2,) * num), pair, num))
        for witness in witnesses:
            assert not hasattr(witness, "__dict__")
            parts = [p for p in gc.get_referents(witness) if p is not type(witness)]
            assert all(not hasattr(p, "__len__") or len(p) < 100 for p in parts)
        assert len(witnesses[-1].multirank) == num


class TestFeasibleRegion:
    def test_negative_total(self):
        region = feasible_region(C22, B11)
        (iv,) = region.intervals
        assert (iv.lo, iv.hi, iv.lo_open, iv.hi_open) == (
            Fraction(1, 4),
            Fraction(3, 4),
            False,
            False,
        )
        assert region.feasible

    def test_zero_total_infeasible(self):
        region = feasible_region(C22, B51)
        assert region.intervals[0].is_empty
        assert not region.feasible

    def test_zero_total_unconstrained(self):
        # chi = 0 with 0 <= chi_j <= n: the weight is unconstrained in (0, 1).
        curve = CombCurve((1, 1))
        bundle = BundleData(2, (1, 1))  # chis (1, 1), total 0
        assert total_euler(curve, bundle) == 0
        region = feasible_region(curve, bundle)
        (iv,) = region.intervals
        assert (iv.lo, iv.hi, iv.lo_open, iv.hi_open) == (Fraction(0), Fraction(1), True, True)
        assert region.feasible

    def test_strict_is_open(self):
        region = feasible_region(C22, B11, strict=True)
        (iv,) = region.intervals
        assert (iv.lo_open, iv.hi_open) == (True, True)

    def test_zero_slack_is_infeasible(self):
        # chis (-1, -1, 2), chi = -2: both teeth start at 1/2, so sum(lo_j) = 1
        # exactly and the spine weight cannot be positive.
        bundle = BundleData(1, (-2, -2, 1))
        for strict in (False, True):
            region = feasible_region(C000, bundle, strict=strict)
            assert [iv.lo for iv in region.intervals] == [Fraction(1, 2)] * 2
            assert all(not iv.is_empty for iv in region.intervals)
            assert not region.feasible

    def test_slack_just_above_zero_is_feasible(self):
        # chis (-50, -50, 1), chi = -101: both teeth in (50/101, 51/101), so
        # the slack 1 - sum(lo_j) is 1/101.
        region = feasible_region(C000, B_NARROW, strict=True)
        assert [iv.render() for iv in region.intervals] == ["(50/101, 51/101)"] * 2
        assert region.feasible

    @given(curve_bundle_polarization())
    def test_strict_contained_in_closed(self, cbw):
        curve, bundle, _ = cbw
        strict = feasible_region(curve, bundle, strict=True)
        closed = feasible_region(curve, bundle, strict=False)
        for s, c in zip(strict.intervals, closed.intervals):
            assert s.is_empty or interval_intersection(s, c) == s

    @given(curve_bundle_polarization())
    def test_region_membership_matches_check(self, cbw):
        # A polarization passes the necessary check iff each weight lies in
        # its closed interval.
        curve, bundle, w = cbw
        region = feasible_region(curve, bundle, strict=False)
        verdict = necessary_check(curve, bundle, w)
        for iv, check in zip(region.intervals, verdict.components):
            assert interval_contains(iv, w.weights[check.j - 1]) == (check.lower_ok and check.upper_ok)

    def test_clipping_matches_intersection_with_the_unit_interval(self):
        # Two genus-0 components, so chi_1 = d_1 + n and chi = d_1 + d_2 + n
        # are set directly.  Each interval is solved from the inequality
        # unclipped, then intersected with the open (0, 1).
        curve = CombCurve((0, 0))
        unit = IntervalQ.open(Fraction(0), Fraction(1))
        ends_on_edges = set()
        for n in range(1, 5):
            for chi in range(-12, 13):
                for chi_1 in range(-12, 13):
                    bundle = BundleData(n, (chi_1 - n, chi - chi_1))
                    for strict in (False, True):
                        if chi == 0:
                            ok = 0 < chi_1 < n if strict else 0 <= chi_1 <= n
                            raw = unit if ok else IntervalQ.empty()
                        else:
                            lo, hi = sorted((Fraction(chi_1, chi), Fraction(chi_1 - n, chi)))
                            raw = IntervalQ(lo, hi, lo_open=strict, hi_open=strict)
                            if lo == 0:
                                ends_on_edges.add(("lo", strict))
                            if hi == 1:
                                ends_on_edges.add(("hi", strict))
                        expected = interval_intersection(raw, unit)
                        region = feasible_region(curve, bundle, strict=strict)
                        assert region.intervals == (expected,), (n, chi, chi_1, strict)
                        assert region.feasible == (not expected.is_empty and expected.lo < 1)
        assert ends_on_edges == {(end, strict) for end in ("lo", "hi") for strict in (False, True)}


class TestIntervalQ:
    def test_empty_flagging(self):
        assert IntervalQ.empty().is_empty
        assert IntervalQ.open(Fraction(1, 2), Fraction(1, 2)).is_empty
        assert not IntervalQ(Fraction(1, 2), Fraction(1, 2)).is_empty
        assert IntervalQ(Fraction(2), Fraction(1)).is_empty

    def test_render(self):
        assert IntervalQ(Fraction(1, 4), Fraction(3, 4)).render() == "[1/4, 3/4]"
        assert IntervalQ.open(Fraction(5, 19), Fraction(7, 19)).render() == "(5/19, 7/19)"
        assert IntervalQ.empty().render() == "(empty)"


class TestPickSimplestRational:
    @pytest.mark.parametrize(
        "lo,hi,expected",
        [
            (Fraction(5, 12), Fraction(7, 12), Fraction(1, 2)),
            (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)),
            (Fraction(0), Fraction(1), Fraction(1, 2)),
            (Fraction(5, 19), Fraction(7, 19), Fraction(1, 3)),
        ],
    )
    def test_open_worked(self, lo, hi, expected):
        assert pick_simplest_rational(IntervalQ.open(lo, hi)) == expected

    def test_closed_endpoint_wins(self):
        iv = IntervalQ(Fraction(1, 2), Fraction(3, 4))
        assert pick_simplest_rational(iv) == Fraction(1, 2)

    def test_point_interval(self):
        assert pick_simplest_rational(
            IntervalQ(Fraction(3, 7), Fraction(3, 7))
        ) == Fraction(3, 7)

    def test_denominator_tie_breaks_to_smallest_numerator(self):
        assert pick_simplest_rational(IntervalQ(Fraction(0), Fraction(1))) == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            pick_simplest_rational(IntervalQ.empty())

    def test_negative_interval(self):
        assert pick_simplest_rational(
            IntervalQ.open(Fraction(-1, 2), Fraction(1, 2))
        ) == 0
        assert pick_simplest_rational(
            IntervalQ.open(Fraction(-7, 10), Fraction(-1, 3))
        ) == Fraction(-1, 2)


class TestSynthesizePolarization:
    def test_worked_two_components(self):
        w = synthesize_polarization(C22, B11)
        assert w.weights == (Fraction(1, 2), Fraction(1, 2))

    def test_worked_kernel_numbers(self):
        curve = CombCurve((2, 2, 2))
        w = synthesize_polarization(curve, BundleData(2, (-3, -3, -3)))
        assert w.weights == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))

    def test_infeasible_returns_none(self):
        assert synthesize_polarization(C22, B51) is None

    def test_overshoot_repicks_within_slack_shares(self):
        # Both first picks are 1/2, leaving the spine 0; each tooth is then
        # re-picked in (50/101, 50/101 + 1/202), its half of the slack 1/101.
        w = synthesize_polarization(C000, B_NARROW)
        assert w.weights == (Fraction(51, 103), Fraction(51, 103), Fraction(1, 103))
        assert_strict_inequalities(C000, B_NARROW, w)

    def test_tight_family_large_n(self):
        # Genera 0, rank 1, tooth degrees near -10^6, spine degree N - 3: the
        # first picks overshoot, and each tooth interval has width 1/|chi|.
        num = 2000
        curve = CombCurve((0,) * num)
        bundle = BundleData(1, tuple(-(10**6) - j * j for j in range(num - 1)) + (num - 3,))
        assert feasible_region(curve, bundle, strict=True).feasible
        w = synthesize_polarization(curve, bundle)
        assert validate_polarization(w) == []
        assert_strict_inequalities(curve, bundle, w)

    @pytest.mark.parametrize("num", [80, 120, 2000])
    def test_tight_family_repick_matches_the_longhand(self, num):
        # Tooth degrees near -2^64: every first pick is re-picked or kept in
        # its slack share.  The longhand intersects IntervalQs and sums
        # Fractions one by one.
        rng = random.Random(num)
        degrees = tuple(-(2**64) - rng.randint(0, 999) for _ in range(num - 1)) + (num - 3,)
        curve, bundle = CombCurve((0,) * num), BundleData(1, degrees)
        region = feasible_region(curve, bundle, strict=True)
        assert region.feasible
        weights, repicked = synthesize_longhand(region)
        assert repicked
        assert weights[:-1] != tuple(pick_simplest_rational(iv) for iv in region.intervals)
        assert synthesize_polarization(curve, bundle).weights == weights

    def test_synthesis_matches_the_longhand_rule(self):
        # Seeded bundles up to N = 200 and 300-digit degrees: tight families,
        # which re-pick, and small random degrees, which mostly keep their
        # first picks.  The re-pick decision is the longhand's Fraction sum.
        rng = random.Random(20260808)
        branches = {True: 0, False: 0}
        for _ in range(2000):
            num = rng.choice((2, 3, 4, 6, 12, rng.randint(2, 60), rng.randint(2, 200)))
            if rng.random() < 0.5:
                big = rng.choice((2**64, 10 ** rng.randint(1, 299)))
                degrees = tuple(-big - rng.randint(0, 999) for _ in range(num - 1)) + (num - 3,)
                curve, bundle = CombCurve((0,) * num), BundleData(1, degrees)
            else:
                n = rng.randint(1, 4)
                curve = CombCurve(tuple(rng.randint(0, 3) for _ in range(num)))
                bundle = BundleData(n, tuple(rng.randint(-3, 3 * n) for _ in range(num)))
            region = feasible_region(curve, bundle, strict=True)
            weights, repicked = synthesize_longhand(region)
            w = synthesize_polarization(curve, bundle)
            assert (None if w is None else w.weights) == weights
            if weights is not None:
                branches[repicked] += 1
        assert min(branches.values()) > 0, branches

    @pytest.mark.parametrize(
        "picks, fallbacks",
        [
            # Total exactly 1 in non-dyadic terms: the floors fall short by
            # less than one unit per tooth, so only the exact total decides.
            ((Fraction(1, 3), Fraction(2, 3)), 1),
            # Total exactly 1 in dyadic terms: the floors are exact.
            ((Fraction(1, 2), Fraction(1, 2)), 0),
            # Just under 1.
            ((Fraction(1, 3), Fraction(1, 3)), 0),
        ],
    )
    def test_reach_one_bound_matches_the_exact_rule(self, monkeypatch, picks, fallbacks):
        # chi = 0 leaves both teeth the interval (0, 1) and the slack 1.
        region, slack = polarization._region((1, 1, 2), 0, 2, True)
        calls = []
        real = polarization._exact_sum
        monkeypatch.setattr(polarization, "_exact_sum", lambda terms: calls.append(1) or real(terms))
        reached = polarization._picks_reach_one(picks, region.intervals, slack)
        assert reached == (sum(picks, Fraction(0)) >= 1)
        assert len(calls) == fallbacks

    @pytest.mark.parametrize(
        "curve, bundle, picks",
        [
            # w_1 in (1/4, 3/4): 1/10 lies in (0, 1) but breaks the strict inequality.
            (C22, B11, [Fraction(1, 10)]),
            # chi = 0 frees every w_j from the inequalities, so only the pick
            # bound sees -1/4, whose total 1/4 would leave a valid spine weight.
            (C000, B_CHI_ZERO, [Fraction(-1, 4), Fraction(1, 2)]),
            (C000, B_CHI_ZERO, [Fraction(0), Fraction(1, 2)]),
        ],
    )
    def test_post_check_rejects_a_pick_outside_its_interval(self, monkeypatch, curve, bundle, picks):
        _force_first_picks(monkeypatch, picks)
        with pytest.raises(RuntimeError, match="violates the strict inequalities"):
            synthesize_polarization(curve, bundle)

    def test_post_check_rejects_a_pick_total_of_one(self, monkeypatch):
        # First picks 1/2 and 1/2 total 1; with the re-pick disabled the
        # spine weight would be 0, and with chi = 0 only the total shows it.
        _force_first_picks(monkeypatch, [Fraction(1, 2)] * 2)
        assert synthesize_polarization(C000, B_CHI_ZERO).weights[-1] > 0
        _force_first_picks(monkeypatch, [Fraction(1, 2)] * 2)
        monkeypatch.setattr(polarization, "_repick", lambda pick, lo, share_p, share_q: pick)
        with pytest.raises(RuntimeError, match="violates the strict inequalities"):
            synthesize_polarization(C000, B_CHI_ZERO)

    @given(curve_bundle_polarization())
    def test_output_contract(self, cbw):
        curve, bundle, _ = cbw
        strict = feasible_region(curve, bundle, strict=True)
        w = synthesize_polarization(curve, bundle)
        if not strict.feasible:
            assert w is None
            return
        assert w is not None
        assert validate_polarization(w) == []
        assert_strict_inequalities(curve, bundle, w)
        for j, iv in enumerate(strict.intervals, start=1):
            assert interval_contains(iv, w.weights[j - 1])


def _subcurve_verdict(curve: CombCurve, bundle: BundleData, w: Polarization) -> bool:
    """Whether chi(E_Z(-Z.Z^c)) <= w_Z * chi for every proper subcurve Z of the comb.

    Derived from the degrees alone: chi_j = d_j + n*(1 - g_j), and a node
    (tooth j on the spine) meets Z when j or the spine lies in Z, so
    chi(E_Z(-Z.Z^c)) = sum_{j in Z} chi_j - n*(nodes meeting Z).
    """
    n, num = bundle.rank, curve.num_components
    chis = [d + n * (1 - g) for d, g in zip(bundle.multidegree, curve.genera)]
    chi = sum(chis) - n * (num - 1)
    spine = 1 << (num - 1)
    for z in range(1, (1 << num) - 1):
        members = [j for j in range(num) if z >> j & 1]
        nodes = num - 1 if z & spine else len(members)
        sub = sum(chis[j] for j in members) - n * nodes
        w_z = sum((w.weights[j] for j in members), Fraction(0))
        if sub * w_z.denominator > w_z.numerator * chi:
            return False
    return True


def test_subcurve_inequalities_match_the_tooth_check():
    # The tooth inequalities are the subcurves {j} and its complement; every
    # other proper subcurve's inequality must follow from them.
    verdicts = set()
    for curve, bundle, drawn in oracles.instance_stream(20261020, 2000):
        synthesized = synthesize_polarization(curve, bundle)
        for w in (drawn, synthesized):
            if w is None:
                continue
            passed = necessary_check(curve, bundle, w).overall_pass
            assert _subcurve_verdict(curve, bundle, w) == passed, (curve, bundle, w)
            verdicts.add((bundle.rank, passed))
    assert verdicts == {(n, passed) for n in range(1, 5) for passed in (False, True)}
