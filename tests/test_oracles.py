import pytest
from fractions import Fraction

from combstab import (
    BundleData,
    CombCurve,
    Polarization,
    validate_polarization,
)
from combstab.cli import main
from combstab.polarization import IntervalQ
from combstab import oracles
from combstab.oracles import (
    InstanceBounds,
    instance_stream,
    oracle_destabilizer_enumeration,
    oracle_filtered_destabilizers,
    oracle_necessary_equivalence,
    oracle_simplest_rational,
    pair_stream,
    random_instance,
    random_pair,
    run_selftest,
)


class TestBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            InstanceBounds(max_components=1)
        with pytest.raises(ValueError):
            InstanceBounds(max_rank=0)
        with pytest.raises(ValueError):
            InstanceBounds(degree_range=(3, 2))
        with pytest.raises(ValueError):
            InstanceBounds(max_components=6, max_weight_denominator=4)


class TestGenerators:
    def test_deterministic(self):
        bounds = InstanceBounds(seed=1)
        assert random_instance(bounds) == random_instance(bounds)
        assert list(instance_stream(bounds, 50)) == list(instance_stream(bounds, 50))
        assert random_pair(bounds) == random_pair(bounds)
        assert list(pair_stream(bounds, 50)) == list(pair_stream(bounds, 50))

    def test_seed_changes_stream(self):
        a = list(instance_stream(InstanceBounds(seed=1), 20))
        b = list(instance_stream(InstanceBounds(seed=2), 20))
        assert a != b

    def test_instance_contract(self):
        for curve, bundle, w in instance_stream(InstanceBounds(seed=5), 200):
            assert curve.num_components >= 2
            assert len(bundle.multidegree) == curve.num_components
            assert validate_polarization(w) == []

    def test_two_component_chains(self):
        bounds = InstanceBounds(max_components=2, seed=11)
        for curve, _, _ in instance_stream(bounds, 50):
            assert curve.num_components == 2

    def test_pairs_are_valid(self):
        from combstab import validate_pair

        for curve, pair in pair_stream(InstanceBounds(seed=8), 200):
            assert validate_pair(curve, pair) == []
            assert all(g >= 2 for g in curve.genera)


class TestNecessaryEquivalence:
    def test_worked(self):
        c = CombCurve((2, 2))
        w = Polarization.from_strings(["1/2", "1/2"])
        assert oracle_necessary_equivalence(c, BundleData(2, (1, 1)), w)
        assert oracle_necessary_equivalence(c, BundleData(2, (5, 1)), w)


class TestDestabilizerOracle:
    def test_worked(self):
        c = CombCurve((2, 2))
        w13 = Polarization.from_strings(["1/3", "2/3"])
        assert oracle_destabilizer_enumeration(c, BundleData(2, (1, 1)), w13, 1) == [(1, 0)]
        b3 = BundleData(3, (-3, -5))
        wB = Polarization.from_strings(["2/5", "3/5"])
        assert oracle_destabilizer_enumeration(c, b3, wB, 1) == [(2, -3)]
        assert oracle_filtered_destabilizers(c, b3, wB, 1) == [(2, -3)]

    def test_window_case_is_empty_after_filters(self):
        c = CombCurve((2, 2))
        b3 = BundleData(3, (-3, -5))
        w = Polarization.from_strings(["1/2", "1/2"])
        assert oracle_filtered_destabilizers(c, b3, w, 1) == []


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
            IntervalQ.closed(Fraction(1, 2), Fraction(3, 4)), 4
        ) == Fraction(1, 2)


def selftest_text(capsys, seed: int, count: int) -> str:
    main(["selftest", "--seed", str(seed), "--count", str(count)])
    return capsys.readouterr().out


class TestSelftest:
    def test_small_run_passes(self, capsys):
        report = run_selftest(InstanceBounds(seed=13), 100)
        assert report.passed
        assert report.total_run == report.total_agreed > 0
        lines = selftest_text(capsys, 13, 100).splitlines()
        assert lines[-1] == "result: PASS"
        assert f"oracle agreements: {report.total_agreed}/{report.total_run}" in lines

    def test_zero_count_is_vacuous(self):
        report = run_selftest(InstanceBounds(seed=13), 0)
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
        report = run_selftest(InstanceBounds(seed=13), 60)
        assert not report.passed
        assert report.first_failure is not None
        assert "destabilizer-range" in report.first_failure
        text = selftest_text(capsys, 13, 60)
        assert "--seed 13" in text
        assert "result: FAIL" in text

    def test_one_enumeration_per_checked_tooth(self, monkeypatch):
        # The range check and the filter replay share one padded-window sweep.
        bounds = InstanceBounds(seed=21)
        checked = 0
        for curve, bundle, w in instance_stream(bounds, 150):
            chi = sum(bundle.multidegree) + bundle.rank * (1 - sum(curve.genera))
            if bundle.rank >= 2:
                checked += sum((w_j * chi).denominator != 1 for w_j in w.weights[:-1])
        calls = []
        real = oracles.oracle_destabilizer_enumeration

        def counting(curve, bundle, w, j):
            calls.append(j)
            return real(curve, bundle, w, j)

        monkeypatch.setattr(oracles, "oracle_destabilizer_enumeration", counting)
        report = run_selftest(bounds, 150)
        assert report.passed
        assert checked > 50
        assert len(calls) == checked
        assert report.checks["destabilizer-range"].run == checked
