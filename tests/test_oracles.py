import contextlib
import dataclasses
import inspect
import itertools
import math
import os
import random
import signal
import threading
import time
from fractions import Fraction

import pytest

from combstab import (
    BundleData,
    CombCurve,
    Polarization,
    kernel_data,
    validate_polarization,
)
from combstab.cli import main
from combstab.polarization import IntervalQ, necessary_check
from combstab import kernel_bundles, oracles, polarization
from combstab.oracles import (
    instance_stream,
    oracle_destabilizer_enumeration,
    oracle_filtered_destabilizers,
    oracle_necessary_equivalence,
    oracle_simplest_rational,
    pair_stream,
    run_selftest,
)
from longhand import interval_contains


class TestGenerators:
    def test_deterministic(self):
        seed = 1
        assert next(instance_stream(seed, 1)) == next(instance_stream(seed, 1))
        assert list(instance_stream(seed, 50)) == list(instance_stream(seed, 50))
        assert next(pair_stream(seed, 1)) == next(pair_stream(seed, 1))
        assert list(pair_stream(seed, 50)) == list(pair_stream(seed, 50))

    def test_streams_are_generator_functions(self):
        # perfbench's tracer times a stream per next() only for a generator function.
        assert inspect.isgeneratorfunction(instance_stream)
        assert inspect.isgeneratorfunction(pair_stream)

    def test_seed_changes_stream(self):
        a = list(instance_stream(1, 20))
        b = list(instance_stream(2, 20))
        assert a != b

    def test_instance_contract(self):
        for curve, bundle, w in instance_stream(5, 200):
            assert curve.num_components >= 2
            assert len(bundle.multidegree) == curve.num_components
            assert validate_polarization(w) == []

    def test_pairs_are_valid(self):
        from combstab import validate_pair

        for curve, pair in pair_stream(8, 200):
            assert validate_pair(curve, pair) == []
            assert all(g >= 2 for g in curve.genera)

    @pytest.mark.parametrize(
        "stream, build", [(instance_stream, "_build_instance"), (pair_stream, "_build_pair")]
    )
    def test_start_skips_the_prefix_without_building_it(self, monkeypatch, stream, build):
        # A forked range draws the records before its start but builds only its own.
        seed, count = 20260808, 2 * oracles._MIN_RANGE + 1
        real = getattr(oracles, build)
        built = []

        def counting(*raw):
            built.append(raw)
            return real(*raw)

        monkeypatch.setattr(oracles, build, counting)
        for start in (0, 1, oracles._MIN_RANGE - 1, oracles._MIN_RANGE, count):
            built.clear()
            part = list(stream(seed, count, start))
            assert len(built) == count - start
            assert part == list(itertools.islice(stream(seed, count), start, None))


class TestNecessaryEquivalence:
    def test_worked(self):
        c = CombCurve((2, 2))
        w = Polarization(("1/2", "1/2"))
        assert oracle_necessary_equivalence(c, BundleData(2, (1, 1)), w)
        assert oracle_necessary_equivalence(c, BundleData(2, (5, 1)), w)

    # On C22 at w = (1/2, 1/2): degrees (1, 1) pass at tooth 1, (5, 1) fail its upper side.
    @pytest.mark.parametrize(
        "degrees, doctor",
        [
            pytest.param((1, 1), lambda c: dataclasses.replace(c, lower_ok=False), id="flipped-lower"),
            pytest.param(
                (1, 1),
                lambda c: dataclasses.replace(c, witness=polarization._restricted(2, 2, -1, 1)),
                id="witness-on-pass",
            ),
            pytest.param(
                (5, 1),
                lambda c: dataclasses.replace(c, witness=dataclasses.replace(c.witness, label="tilde-E_1")),
                id="wrong-label",
            ),
            pytest.param(
                (5, 1),
                lambda c: dataclasses.replace(c, witness=dataclasses.replace(c.witness, off_tooth=1)),
                id="wrong-multirank",
            ),
            pytest.param(
                (5, 1),
                lambda c: dataclasses.replace(c, witness=dataclasses.replace(c.witness, euler=0)),
                id="wrong-euler",
            ),
        ],
    )
    def test_doctored_component_check_disagrees(self, monkeypatch, degrees, doctor):
        curve, bundle, w = CombCurve((2, 2)), BundleData(2, degrees), Polarization(("1/2", "1/2"))
        assert oracle_necessary_equivalence(curve, bundle, w)
        real = oracles.necessary_check

        def doctored(*args):
            verdict = real(*args)
            return dataclasses.replace(verdict, components=(doctor(verdict.components[0]),))

        monkeypatch.setattr(oracles, "necessary_check", doctored)
        assert not oracle_necessary_equivalence(curve, bundle, w)


class TestDestabilizerOracle:
    def test_worked(self):
        c = CombCurve((2, 2))
        w13 = Polarization(("1/3", "2/3"))
        assert oracle_destabilizer_enumeration(c, BundleData(2, (1, 1)), w13, 1) == [(1, 0)]
        b3 = BundleData(3, (-3, -5))
        wB = Polarization(("2/5", "3/5"))
        assert oracle_destabilizer_enumeration(c, b3, wB, 1) == [(2, -3)]
        assert oracle_filtered_destabilizers(c, b3, wB, 1) == [(2, -3)]

    def test_window_case_is_empty_after_filters(self):
        c = CombCurve((2, 2))
        b3 = BundleData(3, (-3, -5))
        w = Polarization(("1/2", "1/2"))
        assert oracle_filtered_destabilizers(c, b3, w, 1) == []


# Definition-level reference: the slope predicates written as ``Fraction``
# comparisons, one candidate at a time, as the oracles once decided them.


def reference_sides(w_j, chi_j, chi, n):
    """(lower violated, upper violated) of tooth j, slopes as quotients."""
    mu_bundle = Fraction(chi, n)
    lower = Fraction(chi - chi_j) / ((1 - w_j) * n) > mu_bundle
    upper = Fraction(chi_j - n) / (w_j * n) > mu_bundle
    return lower, upper


def reference_enumeration(w_j, chi_j, chi, n):
    """Every (k, chi_L) with chi_L/k > chi_j/n and (chi_L - k)/(k*w_j) <= chi/n."""
    mu_j, mu_bundle = Fraction(chi_j, n), Fraction(chi, n)
    found = []
    for k in range(1, n):
        # Below floor(k*chi_j/n) the first predicate fails, above the
        # weighted ceiling k*w_j*chi/n + k the second; scan one beyond each.
        weighted_rank = k * w_j
        lo = math.floor(k * mu_j) - 1
        hi = math.floor(weighted_rank * mu_bundle + k) + 1
        for chi_l in range(lo, hi + 1):
            if Fraction(chi_l, k) > mu_j and (chi_l - k) / weighted_rank <= mu_bundle:
                found.append((k, chi_l))
    return found


def reference_filters(chi_j, n, raw):
    """The divisibility filters with the pinned quotient tested as a ``Fraction``."""
    kept = []
    for k, chi_l in raw:
        if chi_j % n == 0:
            if chi_l not in {k * (chi_j // n) + a for a in range(1, k)} or chi_l % k == 0:
                continue
        elif chi_l % k == 0:
            r = chi_j % n
            if Fraction(chi_l, k) != Fraction(chi_j, n) + Fraction(n - r, n):
                continue
        kept.append((k, chi_l))
    return kept


def reference_simplest(interval, max_denominator):
    """First p/q, q ascending then p ascending, that ``interval_contains`` accepts."""
    if interval.is_empty:
        return None
    for q in range(1, max_denominator + 1):
        p = math.ceil(interval.lo * q)
        if interval.lo_open and Fraction(p, q) == interval.lo:
            p += 1
        if interval_contains(interval, Fraction(p, q)):
            return Fraction(p, q)
    return None


def small_weights(max_q=12):
    return sorted({Fraction(p, q) for q in range(2, max_q + 1) for p in range(1, q)})


def two_component_instance(n, chi_j, chi, w_j):
    """A comb of two genus-0 components with chi_1 = chi_j, total euler chi, w_1 = w_j."""
    curve = CombCurve((0, 0))
    bundle = BundleData(n, (chi_j - n, chi - chi_j))
    return curve, bundle, Polarization((w_j, 1 - w_j))


class TestIntegerOraclesAgainstReference:
    """Exhaustive over n in 2..4, chi_j and chi in [-12, 12], w_j = p/q with q <= 12."""

    def test_sweep_sides_and_filters(self):
        weights = small_weights()
        compared = kept = 0
        for n in range(2, 5):
            for chi_j in range(-12, 13):
                for chi in range(-12, 13):
                    for w_j in weights:
                        p, q = w_j.numerator, w_j.denominator
                        assert oracles._violated_sides(p, q, chi_j, chi, n) == reference_sides(
                            w_j, chi_j, chi, n
                        )
                        curve, bundle, w = two_component_instance(n, chi_j, chi, w_j)
                        expected = reference_enumeration(w_j, chi_j, chi, n)
                        raw = oracle_destabilizer_enumeration(curve, bundle, w, 1)
                        assert raw == expected, (n, chi_j, chi, w_j)
                        filtered = oracles._replay_filters(curve, bundle, 1, raw)
                        assert filtered == reference_filters(chi_j, n, expected)
                        compared += 1
                        kept += len(filtered)
        assert compared == 3 * 25 * 25 * len(weights)
        assert kept > 0

    def test_necessary_equivalence_on_every_instance(self):
        # The fast check agrees with the reference sides on every instance,
        # so the integer oracle must accept every instance.
        for n in range(2, 5):
            for chi_j in range(-12, 13, 3):
                for chi in range(-12, 13):
                    for w_j in small_weights():
                        curve, bundle, w = two_component_instance(n, chi_j, chi, w_j)
                        check = necessary_check(curve, bundle, w).components[0]
                        lower, upper = reference_sides(w_j, chi_j, chi, n)
                        assert (check.lower_ok, check.upper_ok) == (not lower, not upper)
                        assert oracle_necessary_equivalence(curve, bundle, w)

    def test_simplest_scan_on_every_endpoint_kind(self):
        ends = sorted({Fraction(p, q) for q in range(1, 7) for p in range(-q, 2 * q + 1)})
        scanned = 0
        for lo in ends:
            for hi in ends:
                if hi < lo:
                    continue
                for lo_open in (False, True):
                    for hi_open in (False, True):
                        iv = IntervalQ(lo, hi, lo_open=lo_open, hi_open=hi_open)
                        for max_den in (1, 5, 12):
                            assert oracle_simplest_rational(iv, max_den) == reference_simplest(
                                iv, max_den
                            ), (iv, max_den)
                            scanned += 1
        assert scanned > 8000

    def test_longhand_region_on_every_interval_kind(self):
        # chi of each sign and 0, chi_j from past one clip to past the other:
        # clipped, point and crossed intervals all occur.  Every w = p/q in
        # (0, 1) with q <= 40 lies in a tooth interval exactly when it
        # satisfies the inequality the interval was solved from.
        weights = sorted({Fraction(p, q) for q in range(2, 41) for p in range(1, q)})
        kinds = set()
        for n, chi, chi_j, strict in itertools.product(
            range(1, 4), range(-5, 6), range(-8, 9), (False, True)
        ):
            (iv,), _ = oracles._longhand_region([chi_j, 0], chi, n, strict)
            for w in weights:
                p, q = w.numerator, w.denominator
                low, mid, high = p * chi, chi_j * q, p * chi + n * q
                holds = low < mid < high if strict else low <= mid <= high
                assert interval_contains(iv, w) == holds, (n, chi, chi_j, strict, iv, w)
            # Every end at 0 or 1 is a clipped one, and a clipped end is open.
            assert (iv.lo != 0 or iv.lo_open) and (iv.hi != 1 or iv.hi_open)
            kinds.add(f"chi{(chi > 0) - (chi < 0):+d}")
            if chi and iv.lo == iv.hi:
                kinds.add("point")
            elif chi and iv.lo > iv.hi:
                kinds.add("crossed")
            if chi and iv.lo == 0 and not strict:
                kinds.add("lo-clip")
            if chi and iv.hi == 1 and not strict:
                kinds.add("hi-clip")
        assert kinds == {"chi-1", "chi+0", "chi+1", "point", "crossed", "lo-clip", "hi-clip"}

    def test_longhand_feasibility_against_fraction_sums(self):
        # Emptiness and the slack are decided on integers; the reference
        # compares the same ends as ``Fraction``s and sums them one by one.
        verdicts = set()
        for n, chi, strict, chi_1, chi_2 in itertools.product(
            range(1, 4), range(-5, 6), (False, True), range(-8, 9), range(-8, 9)
        ):
            intervals, feasible = oracles._longhand_region([chi_1, chi_2, 0], chi, n, strict)
            nonempty = all(
                iv.lo < iv.hi or (iv.lo == iv.hi and not (iv.lo_open or iv.hi_open))
                for iv in intervals
            )
            slack = 1 - sum((iv.lo for iv in intervals), Fraction(0))
            assert feasible == (nonempty and slack > 0), (n, chi, strict, chi_1, chi_2)
            verdicts.add((feasible, nonempty))
        assert verdicts == {(True, True), (False, True), (False, False)}


def reference_slope_matches(slope, euler, weights, multirank):
    """The reported slope against euler over the weighted multirank, summed as ``Fraction``s."""
    weighted = Fraction(0)
    for w_i, r_i in zip(weights, multirank):
        weighted += w_i * r_i
    return slope is not None and weighted > 0 and slope == Fraction(euler) / weighted


def reference_valid(weights):
    """Each weight in (0, 1) and the ``Fraction`` sum, added one by one, exactly 1."""
    total = Fraction(0)
    for w_j in weights:
        if not Fraction(0) < w_j < Fraction(1):
            return False
        total += w_j
    return total == Fraction(1)


class TestIntegerLonghandAgainstFraction:
    """The integer slope comparison and weight sum against their ``Fraction`` longhand."""

    def test_slope_on_drawn_witnesses(self):
        rng = random.Random(3)
        compared = matched = 0
        for curve, bundle, w in instance_stream(17, 300):
            num, n = curve.num_components, bundle.rank
            # Off the simplex too: a spine weight in [-1, 1], often 0 or less.
            spine = Fraction(rng.randint(-8, 8), 8)
            for weights in (w.weights, w.weights[:-1] + (spine,)):
                for j in range(1, num):
                    complement = [0 if i == j else n for i in range(1, num + 1)]
                    restricted = [n if i == j else 0 for i in range(1, num + 1)]
                    for multirank in (complement, restricted):
                        euler = rng.randint(-30, 30)
                        weighted = sum((w_i * r_i for w_i, r_i in zip(weights, multirank)), Fraction(0))
                        true = Fraction(euler) / weighted if weighted else Fraction(euler)
                        for slope in (true, true + Fraction(1, 10**30), -true, true / 2, None):
                            ok = oracles._slope_matches(slope, euler, weights, multirank)
                            assert ok == reference_slope_matches(slope, euler, weights, multirank)
                            compared += 1
                            matched += ok
        assert 0 < matched < compared

    @pytest.mark.parametrize(
        "weights, multirank, euler, slope",
        [
            (("1/2", "1/2"), [0, 2], 3, Fraction(3)),
            (("1/2", "0"), [0, 2], 3, Fraction(3)),
            (("1/2", "0"), [0, 2], 0, Fraction(0)),
            (("1/2", "-1/2"), [0, 2], 3, Fraction(-3)),
            (("1/3", "2/3"), [2, 0], 0, Fraction(0)),
            (("1/3", "2/3"), [2, 0], 5, None),
        ],
    )
    def test_slope_edge_cases(self, weights, multirank, euler, slope):
        # A spine weight of 0 or less gives a nonpositive weighted multirank,
        # and a missing slope never matches.
        weights = Polarization(weights).weights
        expected = reference_slope_matches(slope, euler, weights, multirank)
        assert oracles._slope_matches(slope, euler, weights, multirank) == expected

    def test_valid_longhand_on_drawn_weights(self):
        for _, _, w in instance_stream(19, 300):
            *teeth, spine = w.weights
            off = Fraction(1, spine.denominator)
            for weights in (w.weights, (*teeth, spine + off), (*teeth, spine - off)):
                assert oracles._valid_longhand(Polarization(weights)) == reference_valid(weights)

    @pytest.mark.parametrize(
        "weights",
        [
            ("1/2", "1/2"),
            ("1/3", "1/3", "1/3"),
            ("1/3", "1/3", "5/12"),
            ("1/3", "1/3", "1/4"),
            ("0", "1"),
            ("1", "0"),
            ("0", "1/2", "1/2"),
            ("-1/2", "3/2"),
            ("1/2", "1/2", "-1/4", "1/4"),
        ],
        ids=",".join,
    )
    def test_valid_longhand_edge_cases(self, weights):
        w = Polarization(weights)
        assert oracles._valid_longhand(w) == reference_valid(w.weights)


class TestWeightPrecondition:
    """Cross-multiplying by a weight outside (0, 1) would flip or void a comparison."""

    BAD = [Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(4, 3), Fraction(7, 2)]

    @pytest.mark.parametrize("w_1", BAD, ids=str)
    def test_necessary_equivalence(self, w_1):
        curve, bundle, w = two_component_instance(2, 3, 1, w_1)
        with pytest.raises(ValueError, match="weight 1 is .* not strictly between 0 and 1"):
            oracle_necessary_equivalence(curve, bundle, w)

    @pytest.mark.parametrize("w_1", BAD, ids=str)
    def test_destabilizer_enumeration(self, w_1):
        curve, bundle, w = two_component_instance(3, -3, -5, w_1)
        with pytest.raises(ValueError, match="weight 1 is .* not strictly between 0 and 1"):
            oracle_destabilizer_enumeration(curve, bundle, w, 1)

    @pytest.mark.parametrize("w_1", BAD, ids=str)
    def test_filtered_destabilizers(self, w_1):
        curve, bundle, w = two_component_instance(3, -3, -5, w_1)
        with pytest.raises(ValueError, match="weight 1 is .* not strictly between 0 and 1"):
            oracle_filtered_destabilizers(curve, bundle, w, 1)


class TestSimplestOracle:
    def test_worked(self):
        assert oracle_simplest_rational(
            IntervalQ.open(Fraction(5, 12), Fraction(7, 12)), 12
        ) == Fraction(1, 2)
        assert oracle_simplest_rational(
            IntervalQ.open(Fraction(1, 3), Fraction(1, 2)), 10
        ) == Fraction(2, 5)
        assert oracle_simplest_rational(IntervalQ.empty(), 10) is None

    def test_bounded_scan_can_miss(self):
        assert oracle_simplest_rational(
            IntervalQ.open(Fraction(1, 3), Fraction(1, 2)), 3
        ) is None

    def test_closed_endpoints(self):
        assert oracle_simplest_rational(
            IntervalQ(Fraction(1, 2), Fraction(3, 4)), 4
        ) == Fraction(1, 2)

    def test_scan_needs_a_denominator(self):
        with pytest.raises(ValueError) as exc:
            oracle_simplest_rational(IntervalQ.open(Fraction(0), Fraction(1)), 0)
        assert str(exc.value) == "max_denominator must be at least 1"


def selftest_text(capsys, seed: int, count: int) -> str:
    main(["selftest", "--seed", str(seed), "--count", str(count)])
    return capsys.readouterr().out


class TestSelftest:
    def test_small_run_passes(self, capsys):
        report = run_selftest(13, 100)
        assert report.passed
        assert report.total_run == report.total_agreed > 0
        lines = selftest_text(capsys, 13, 100).splitlines()
        assert lines[-1] == "result: PASS"
        assert f"oracle agreements: {report.total_agreed}/{report.total_run}" in lines

    def test_zero_count_is_vacuous(self):
        report = run_selftest(13, 0)
        assert report.passed
        assert report.total_run == 0

    def test_injected_fault_is_caught_with_replay_seed(self, capsys, monkeypatch):
        # Shift every candidate window by one: the oracle must notice.
        real = oracles.destabilizer_candidates
        monkeypatch.setattr(
            oracles,
            "destabilizer_candidates",
            lambda curve, bundle, w, j, k: [c + 1 for c in real(curve, bundle, w, j, k)],
        )
        report = run_selftest(13, 60)
        assert not report.passed
        assert report.first_failure is not None
        assert "destabilizer-range" in report.first_failure
        text = selftest_text(capsys, 13, 60)
        assert "--seed 13" in text
        assert "result: FAIL" in text

    def test_necessary_fault_is_caught_with_replay_seed(self, capsys, monkeypatch):
        # Flip the upper side of each instance's first tooth: the oracle
        # decides that side on its own and must notice.
        real = oracles.necessary_check

        def flipped(curve, bundle, w):
            verdict = real(curve, bundle, w)
            first, *rest = verdict.components
            first = dataclasses.replace(first, upper_ok=not first.upper_ok)
            return dataclasses.replace(verdict, components=(first, *rest))

        monkeypatch.setattr(oracles, "necessary_check", flipped)
        report = run_selftest(13, 60)
        assert not report.passed
        stat = report.checks["necessary-equivalence"]
        assert stat.run == 60 and stat.agreed == 0
        assert report.first_failure.startswith("necessary-equivalence: genera=")
        text = selftest_text(capsys, 13, 60)
        assert "first counterexample: necessary-equivalence: genera=" in text
        assert "--seed 13" in text
        assert "result: FAIL" in text

    def test_nudged_witness_slope_is_caught(self, monkeypatch):
        # Every reported witness slope moved by 10^-30: each instance with a
        # witness must fail, each without one still agree.
        real = oracles.necessary_check

        def nudged(curve, bundle, w):
            verdict = real(curve, bundle, w)
            components = tuple(
                c
                if c.witness_slope is None
                else dataclasses.replace(c, witness_slope=c.witness_slope + Fraction(1, 10**30))
                for c in verdict.components
            )
            return dataclasses.replace(verdict, components=components)

        seed = 13
        passing = sum(real(*instance).overall_pass for instance in instance_stream(seed, 60))
        monkeypatch.setattr(oracles, "necessary_check", nudged)
        report = run_selftest(seed, 60)
        stat = report.checks["necessary-equivalence"]
        assert stat.run == 60 and stat.agreed == passing < 60
        assert report.first_failure.startswith("necessary-equivalence: genera=")

    def test_polarization_off_the_simplex_is_caught(self, monkeypatch):
        # The synthesis checks add the weights longhand: a spine weight
        # moved by 10^-30 fails them.  Instances and kernel bundles share
        # the one synthesis.
        def nudged(w):
            if w is None:
                return None
            return Polarization(w.weights[:-1] + (w.weights[-1] + Fraction(1, 10**30),))

        synthesis = oracles.synthesize_polarization
        monkeypatch.setattr(oracles, "synthesize_polarization", lambda c, b: nudged(synthesis(c, b)))
        report = run_selftest(13, 60)
        for name in ("region-synthesis", "kernel-polarization"):
            assert report.checks[name].agreed < report.checks[name].run
        assert report.first_failure.startswith("region-synthesis: ")

    @pytest.mark.parametrize("fault", ["teeth-emptied", "lower-end-raised"])
    def test_wrong_tooth_interval_is_caught(self, monkeypatch, fault):
        # The fast tooth intervals are compared with longhand ones, and the
        # synthesis with the longhand feasibility: either fault must show.
        real = polarization._tooth_interval

        def teeth_emptied(chi_j, chi, n, strict):
            # Every tooth with 3 | chi_j, in both fast strict builds alike.
            iv = real(chi_j, chi, n, strict)
            return IntervalQ.empty() if chi_j % 3 == 0 else iv

        def lower_end_raised(chi_j, chi, n, strict):
            iv = real(chi_j, chi, n, strict)
            return iv if iv.is_empty else dataclasses.replace(iv, lo=iv.lo + (iv.hi - iv.lo) / 3)

        faulty = {"teeth-emptied": teeth_emptied, "lower-end-raised": lower_end_raised}
        monkeypatch.setattr(polarization, "_tooth_interval", faulty[fault])
        report = run_selftest(0, 100)
        assert not report.passed
        assert report.first_failure.startswith(("region-nesting: ", "region-synthesis: "))

    def test_two_region_builds_per_instance(self, monkeypatch):
        # The closed region for the interval check and the strict one inside
        # synthesis; the oracle builds no third, fast strict region.
        built = []
        real = polarization._region

        def counting(chis, chi, n, strict):
            built.append(strict)
            return real(chis, chi, n, strict)

        monkeypatch.setattr(polarization, "_region", counting)
        report = oracles.SelftestReport(seed=8, count=200)
        oracles._check_instances(report, instance_stream(8, 200))
        assert report.passed
        assert (built.count(False), built.count(True)) == (200, 200)

    def test_each_pair_is_validated_once(self, monkeypatch):
        calls = []
        real = kernel_bundles.validate_pair

        def counting(curve, pair):
            calls.append(pair)
            return real(curve, pair)

        monkeypatch.setattr(kernel_bundles, "validate_pair", counting)
        report = oracles.SelftestReport(seed=8, count=100)
        oracles._check_pairs(report, pair_stream(8, 100))
        assert report.passed
        assert report.checks["kernel-polarization"].run == 100
        assert len(calls) == 100

    def test_one_enumeration_per_checked_tooth(self, monkeypatch):
        # The range check and the filter replay share one padded-window sweep.
        seed = 21
        checked = 0
        for curve, bundle, w in instance_stream(seed, 150):
            chi = sum(bundle.multidegree) + bundle.rank * (1 - sum(curve.genera))
            if bundle.rank >= 2:
                checked += sum((w_j * chi).denominator != 1 for w_j in w.weights[:-1])
        calls = []
        real = oracles.oracle_destabilizer_enumeration

        def counting(curve, bundle, w, j):
            calls.append(j)
            return real(curve, bundle, w, j)

        monkeypatch.setattr(oracles, "oracle_destabilizer_enumeration", counting)
        report = run_selftest(seed, 150)
        assert report.passed
        assert checked > 50
        assert len(calls) == checked
        assert report.checks["destabilizer-range"].run == checked


# Two ranges: the calling process checks the first, one forked worker the second.
SPLIT_COUNT = 2 * oracles._MIN_RANGE


def force_cpus(monkeypatch, cpus: int) -> list[int]:
    """Pretend ``cpus`` usable CPUs; returns the list the forked worker pids go to."""
    monkeypatch.setattr(oracles, "_usable_cpus", lambda: cpus)
    pids = []
    real = oracles._fork_range

    def recording(*args):
        pid, read_fd = real(*args)
        pids.append(pid)
        return pid, read_fd

    monkeypatch.setattr(oracles, "_fork_range", recording)
    return pids


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail a block that runs longer than ``seconds`` instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_reaped(pids: list[int]) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestParallelSelftest:
    @pytest.mark.parametrize(
        "seed, count, ranges",
        [
            pytest.param(13, SPLIT_COUNT, 2, id="13"),
            pytest.param(20260808, SPLIT_COUNT, 2, id="20260808"),
            # Cuts 0, 250, 500, 751: two forked ranges start past the first.
            pytest.param(20260808, 3 * oracles._MIN_RANGE + 1, 3, id="20260808-three-ranges"),
        ],
    )
    def test_split_run_equals_serial_run(self, capsys, monkeypatch, seed, count, ranges):
        outputs = {}
        for cpus in (1, ranges):
            pids = force_cpus(monkeypatch, cpus)
            with deadline(120):
                report = run_selftest(seed, count)
                text = selftest_text(capsys, seed, count)
                main(["selftest", "--json", "--seed", str(seed), "--count", str(count)])
            outputs[cpus] = (report, text, capsys.readouterr().out)
            assert len(pids) == 3 * (cpus - 1)
            assert_reaped(pids)
        assert outputs[1][0].passed
        assert outputs[ranges] == outputs[1]

    def test_small_runs_stay_in_process(self, monkeypatch):
        pids = force_cpus(monkeypatch, 64)
        report = run_selftest(13, SPLIT_COUNT - 1)
        assert report.passed
        assert pids == []

    def test_live_thread_keeps_every_range_in_process(self, monkeypatch):
        # A forked child could inherit a lock the other thread holds.
        force_cpus(monkeypatch, 1)
        serial = run_selftest(0, 600)
        force_cpus(monkeypatch, 2)

        def refuse_fork():
            raise AssertionError("forked with another thread alive")

        monkeypatch.setattr(os, "fork", refuse_fork)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, daemon=True)
        waiter.start()
        try:
            with deadline(60):
                report = run_selftest(0, 600)
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert report.passed
        assert report == serial

    def test_first_failure_follows_serial_order(self, monkeypatch):
        # Range 0 fails in its pair phase, the last range in its instance
        # phase; the serial sweep meets the instance failure first.
        seed = 13
        instances = list(instance_stream(seed, SPLIT_COUNT))
        late = instances[-1]
        assert late not in instances[:-1]
        # The first pair's synthesis fails, keyed on its kernel bundle, which
        # no instance of the stream shares.
        curve, pair = next(pair_stream(seed, 1))
        first_target = (curve, kernel_data(curve, pair))
        assert first_target not in [(c, b) for c, b, _ in instances]
        real_necessary = oracles.oracle_necessary_equivalence
        real_synthesis = oracles.synthesize_polarization
        monkeypatch.setattr(
            oracles,
            "oracle_necessary_equivalence",
            lambda c, b, w: (c, b, w) != late and real_necessary(c, b, w),
        )
        monkeypatch.setattr(
            oracles,
            "synthesize_polarization",
            lambda c, b: None if (c, b) == first_target else real_synthesis(c, b),
        )
        reports = {}
        for cpus in (1, 2):
            pids = force_cpus(monkeypatch, cpus)
            with deadline(60):
                reports[cpus] = run_selftest(seed, SPLIT_COUNT)
            assert len(pids) == cpus - 1
        serial = reports[1]
        assert reports[2] == serial
        assert serial.first_failure == (
            "necessary-equivalence: " + oracles._describe_instance(*late)
        )
        assert serial.checks["kernel-polarization"].agreed < SPLIT_COUNT

    def test_worker_exception_raises_promptly_and_leaves_no_child(self, monkeypatch):
        caller = os.getpid()
        real = oracles.oracle_simplest_rational

        def faulty(interval, max_denominator):
            if os.getpid() != caller:
                raise ZeroDivisionError("injected in a worker")
            return real(interval, max_denominator)

        monkeypatch.setattr(oracles, "oracle_simplest_rational", faulty)
        pids = force_cpus(monkeypatch, 2)
        with deadline(60), pytest.raises(
            RuntimeError, match="failed: ZeroDivisionError: injected in a worker"
        ):
            run_selftest(13, SPLIT_COUNT)
        assert len(pids) == 1
        assert_reaped(pids)

    def test_worker_dying_without_result_is_reported(self, monkeypatch):
        caller = os.getpid()
        real = oracles.oracle_simplest_rational

        def dying(interval, max_denominator):
            if os.getpid() != caller:
                os._exit(3)
            return real(interval, max_denominator)

        monkeypatch.setattr(oracles, "oracle_simplest_rational", dying)
        pids = force_cpus(monkeypatch, 2)
        with deadline(60), pytest.raises(RuntimeError, match="exited without a result"):
            run_selftest(13, SPLIT_COUNT)
        assert_reaped(pids)

    def test_caller_failure_stops_running_workers(self, monkeypatch):
        # The worker would sleep far past the deadline; the caller's own
        # failure must kill and reap it rather than wait for it.
        caller = os.getpid()

        def stalling(interval, max_denominator):
            if os.getpid() != caller:
                time.sleep(600)
            raise ValueError("injected in the caller")

        monkeypatch.setattr(oracles, "oracle_simplest_rational", stalling)
        pids = force_cpus(monkeypatch, 2)
        with deadline(60), pytest.raises(ValueError, match="injected in the caller"):
            run_selftest(13, SPLIT_COUNT)
        assert len(pids) == 1
        assert_reaped(pids)
