"""Acceptance suite: every criterion is exact (zero tolerance) and prints one
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from combstab import (
    BundleData,
    CombCurve,
    GeneratedPairData,
    Polarization,
    RestrictionCase,
    classify_restriction,
    component_eulers,
    destabilizer_candidates,
    euclidean_remainder,
    filtered_destabilizer_candidates,
    kernel_data,
    kernel_polarization,
    strong_unstability,
    StrongUnstabilityKind,
    total_euler,
    validate_polarization,
)
from combstab import oracles
from combstab.cli import analyze_report
from combstab.documents import InstanceDocument, parse_document, render_document
from combstab.oracles import (
    instance_stream,
    oracle_destabilizer_enumeration,
    oracle_filtered_destabilizers,
    oracle_necessary_equivalence,
    oracle_simplest_rational,
    pair_stream,
)
from combstab.polarization import IntervalQ, pick_simplest_rational

REPO_ROOT = Path(__file__).resolve().parent.parent

ACCEPTANCE_SEED = 20260808


def report(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS - {detail}")


def test_generator_bounds_are_the_acceptance_bounds():
    bounds = (
        oracles.MAX_COMPONENTS,
        oracles.MAX_GENUS,
        oracles.MAX_RANK,
        oracles.DEGREE_RANGE,
        oracles.MAX_WEIGHT_DENOMINATOR,
    )
    assert bounds == (6, 5, 4, (-20, 20), 64)


def test_criterion_1_witness_equivalence():
    count = 10_000
    start = time.perf_counter()
    agreements = 0
    for curve, bundle, w in instance_stream(ACCEPTANCE_SEED, count):
        # The oracle checks the necessary entry of the report analyze writes.
        analyzed = analyze_report(InstanceDocument(curve, bundle=bundle, polarization=w))
        assert oracle_necessary_equivalence(curve, bundle, w, analyzed["necessary"])
        agreements += 1
    elapsed = time.perf_counter() - start
    assert agreements == count
    assert elapsed < 30, f"witness equivalence took {elapsed:.1f}s, budget 30s"
    report(1, f"{agreements}/{count} witness-equivalence agreements in {elapsed:.1f}s")


def test_criterion_2_destabilizer_enumeration():
    wanted = 5_000
    checked_instances = 0
    pair_checks = 0
    start = time.perf_counter()
    stream = instance_stream(ACCEPTANCE_SEED, 4 * wanted)
    for curve, bundle, w in stream:
        if bundle.rank < 2:
            continue
        chi = total_euler(curve, bundle)
        eligible = [
            j
            for j in range(1, curve.num_components)
            if (w.weights[j - 1] * chi).denominator != 1
        ]
        if not eligible:
            continue
        for j in eligible:
            raw_fast = [
                (k, c)
                for k in range(1, bundle.rank)
                for c in destabilizer_candidates(curve, bundle, w, j, k)
            ]
            assert raw_fast == oracle_destabilizer_enumeration(curve, bundle, w, j)
            filtered_fast = list(filtered_destabilizer_candidates(curve, bundle, w, j))
            assert filtered_fast == oracle_filtered_destabilizers(curve, bundle, w, j)
            verdict = classify_restriction(curve, bundle, w, j)
            if verdict.case.is_semistable:
                assert filtered_fast == []
            pair_checks += 1
        checked_instances += 1
        if checked_instances >= wanted:
            break
    elapsed = time.perf_counter() - start
    assert checked_instances >= wanted
    assert elapsed < 60, f"destabilizer enumeration took {elapsed:.1f}s, budget 60s"
    report(
        2,
        f"{checked_instances} instances / {pair_checks} tooth checks agree with the "
        f"brute-force oracle in {elapsed:.1f}s",
    )


def test_criterion_3_rank2_forced_destabilizer():
    curve = CombCurve((2, 2))
    bundle = BundleData(2, (1, 1))
    w = Polarization(("1/3", "2/3"))
    verdict = classify_restriction(curve, bundle, w, 1)
    assert verdict.case is RestrictionCase.POSSIBLY_UNSTABLE
    assert verdict.forced_destabilizers == ((1, 0),)
    chi_1 = component_eulers(curve, bundle)[0]
    assert chi_1 == -1
    assert Fraction(chi_1, 2) + Fraction(1, 2) == 0
    report(3, "g=(2,2) n=2 d=(1,1) w=(1/3,2/3) forces exactly {(1, 0)} at j=1")


def test_criterion_4_polarization_synthesis():
    count = 10_000
    failures = 0
    start = time.perf_counter()
    for curve, pair in pair_stream(ACCEPTANCE_SEED, count):
        m = kernel_data(curve, pair)
        chis = component_eulers(curve, m)
        assert all(chi < 0 for chi in chis)
        w = kernel_polarization(curve, pair)
        if w is None or validate_polarization(w):
            failures += 1
            continue
        chi = total_euler(curve, m)
        for j in range(1, curve.num_components):
            wchi = w.weights[j - 1] * chi
            if not (wchi < chis[j - 1] < wchi + m.rank):
                failures += 1
                break
    elapsed = time.perf_counter() - start
    assert failures == 0

    curve = CombCurve((2, 2, 2))
    pair = GeneratedPairData(1, 3, (3, 3, 3), (0, 0, 0))
    w = kernel_polarization(curve, pair)
    assert w.weights == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert Fraction(-19, 3) < -5 < Fraction(-13, 3)
    m = kernel_data(curve, pair)
    for j in (1, 2):
        wchi = w.weights[j - 1] * total_euler(curve, m)
        assert wchi == Fraction(-19, 3)
        assert wchi < -5 < wchi + 2
    report(4, f"{count} random pairs synthesized strictly-valid polarizations in {elapsed:.1f}s")


def test_criterion_5_simplest_rational_picker():
    start = time.perf_counter()
    farey = sorted({Fraction(p, q) for q in range(1, 51) for p in range(0, q + 1)})
    checked = 0
    for i, lo in enumerate(farey[:-1]):
        for hi in farey[i + 1 :]:
            interval = IntervalQ.open(lo, hi)
            fast = pick_simplest_rational(interval)
            assert oracle_simplest_rational(interval, fast.denominator) == fast
            checked += 1
    elapsed = time.perf_counter() - start
    assert pick_simplest_rational(IntervalQ.open(Fraction(5, 12), Fraction(7, 12))) == Fraction(1, 2)
    assert pick_simplest_rational(IntervalQ.open(Fraction(1, 3), Fraction(1, 2))) == Fraction(2, 5)
    assert elapsed < 60, f"simplest-rational sweep took {elapsed:.1f}s, budget 60s"
    report(
        5,
        f"exhaustive sweep over {checked} open subintervals (endpoint denominators <= 50) "
        f"matches the scanning oracle in {elapsed:.1f}s",
    )


def test_criterion_6_strong_unstability():
    curve = CombCurve((2, 3))
    unstable = GeneratedPairData(1, 4, (4, 5), (1, 0))
    verdict = strong_unstability(curve, unstable)
    assert verdict.verdict is StrongUnstabilityKind.STRONGLY_UNSTABLE
    assert verdict.triggering_j == 1
    # chi_1(M) = -4 + 3*(1-2) = -7; the euclidean remainder mod 3 must be 2.
    assert euclidean_remainder(-7, 3) == 2
    assert (-7) % 3 == 2 and (-7) // 3 == -3
    gap = GeneratedPairData(1, 4, (2, 5), (1, 0))
    assert strong_unstability(curve, gap).verdict is StrongUnstabilityKind.NOT_DETERMINED
    report(6, "d=(4,5) strongly unstable via r_1 = 2; d=(2,5) is the undetermined gap case")


def test_criterion_7_kernel_data_identity():
    count = 10_000
    start = time.perf_counter()
    for curve, pair in pair_stream(ACCEPTANCE_SEED, count):
        m = kernel_data(curve, pair)
        bundle_e = BundleData(pair.rank, pair.multidegree)
        lhs = total_euler(curve, m)
        rhs = pair.sections * (1 - curve.arithmetic_genus) - total_euler(curve, bundle_e)
        assert lhs == rhs
    elapsed = time.perf_counter() - start
    curve = CombCurve((2, 2, 2))
    pair = GeneratedPairData(1, 3, (3, 3, 3), (0, 0, 0))
    m = kernel_data(curve, pair)
    assert total_euler(curve, m) == -19
    assert pair.sections * (1 - curve.arithmetic_genus) - total_euler(
        curve, BundleData(1, (3, 3, 3))
    ) == -19
    report(7, f"chi identity held on {count} random pairs (worked instance: -19 both ways)")


def _run_cli(args: list[str], tmp_path: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "combstab.cli", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_criterion_8_cli_contract(tmp_path):
    # JSON round-trip on the worked documents plus rendered random instances.
    docs = [
        {
            "curve": {"genera": [2, 2]},
            "bundle": {"rank": 2, "multidegree": [1, 1]},
            "polarization": {"weights": ["1/3", "2/3"]},
        },
        {
            "curve": {"genera": [2, 2, 2]},
            "pair": {
                "rank": 1,
                "sections": 3,
                "multidegree": [3, 3, 3],
                "kernel_dims": [0, 0, 0],
                "assumptions": {"general_linear_series": True},
            },
        },
        {
            "curve": {"genera": [2, 3]},
            "pair": {"rank": 1, "sections": 4, "multidegree": [4, 5], "kernel_dims": [1, 0]},
        },
    ]
    for raw in docs:
        doc = parse_document(raw)
        assert parse_document(render_document(doc)) == doc
        assert render_document(parse_document(render_document(doc))) == render_document(doc)
    from combstab.documents import InstanceDocument

    for curve, bundle, w in instance_stream(ACCEPTANCE_SEED, 25):
        doc = InstanceDocument(curve=curve, bundle=bundle, polarization=w)
        assert parse_document(json.loads(json.dumps(render_document(doc)))) == doc

    # Exit codes on the three worked instances.
    paths = []
    for i, raw in enumerate(docs):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        paths.append(str(path))
    analyze = _run_cli(["analyze", paths[0]], tmp_path)
    assert analyze.returncode == 0, analyze.stderr
    assert "PossiblyUnstable" in analyze.stdout
    polarize = _run_cli(["polarize", paths[1], "--json"], tmp_path)
    assert polarize.returncode == 0, polarize.stderr
    assert json.loads(polarize.stdout)["weights"] == ["1/3", "1/3", "1/3"]
    kernel = _run_cli(["kernel", paths[2]], tmp_path)
    assert kernel.returncode == 1, kernel.stderr
    assert "StronglyUnstable" in kernel.stdout

    # Selftest is byte-reproducible for a fixed seed.
    run_a = _run_cli(["selftest", "--seed", "11", "--count", "400"], tmp_path)
    run_b = _run_cli(["selftest", "--seed", "11", "--count", "400"], tmp_path)
    assert run_a.returncode == 0, run_a.stdout + run_a.stderr
    assert run_b.returncode == 0
    assert run_a.stdout == run_b.stdout
    assert "result: PASS" in run_a.stdout
    report(
        8,
        "JSON round-trips are lossless, worked-instance exit codes are 0/0/1, and "
        "selftest output is byte-reproducible",
    )
