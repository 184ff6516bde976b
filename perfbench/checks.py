"""Longhand output checks, independent of combstab's fast path.

Every verdict the benchmark receives is re-derived here from the input
numbers with plain integers and Fractions: no combstab function is called.
The checks take the JSON payload shape the CLI prints; library results are
converted to the same shape by the workloads.  A failed check raises
:class:`CheckFailed`.
"""

from __future__ import annotations

from fractions import Fraction

SEMISTABLE_CASES = {"SemistableByWindow", "SemistableByParity", "SemistableByDivisibility"}
NEGATIVE_KERNEL_VERDICTS = {"StronglyUnstable", "DivisibilityContradiction"}


class CheckFailed(Exception):
    """An output disagrees with its longhand re-derivation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def eulers(genera, rank, degrees) -> tuple[list[int], int]:
    chis = [d + rank * (1 - g) for g, d in zip(genera, degrees)]
    return chis, sum(chis) - rank * (len(genera) - 1)


def check_bundle_payload(genera, rank, degrees, payload: dict) -> None:
    chis, chi = eulers(genera, rank, degrees)
    expect(payload["rank"] == rank, "bundle rank")
    expect(payload["multidegree"] == list(degrees), "bundle multidegree")
    expect(payload["component_eulers"] == chis, "component eulers")
    expect(payload["euler"] == chi, "total euler")


def check_necessary(genera, rank, degrees, weights, necessary: dict) -> bool:
    """Both sides of w_j*chi <= chi_j <= w_j*chi + n at every tooth, with witnesses."""
    chis, chi = eulers(genera, rank, degrees)
    num, n = len(genera), rank
    comps = necessary["components"]
    expect([c["j"] for c in comps] == list(range(1, num)), "necessary: tooth indices")
    all_ok = True
    for c in comps:
        j = c["j"]
        w_j, chi_j = weights[j - 1], chis[j - 1]
        lower_ok = w_j * chi <= chi_j
        upper_ok = chi_j <= w_j * chi + n
        expect(c["lower_ok"] == lower_ok and c["upper_ok"] == upper_ok, f"necessary: sides at j={j}")
        all_ok = all_ok and lower_ok and upper_ok
        witness = c["witness"]
        if lower_ok and upper_ok:
            expect(witness is None, f"necessary: spurious witness at j={j}")
            continue
        if not lower_ok:
            label, euler = f"tilde-E_{j}", chi - chi_j
            multirank = [0 if i == j else n for i in range(1, num + 1)]
        else:
            label, euler = f"E_{j}(-p_{j})", chi_j - n
            multirank = [n if i == j else 0 for i in range(1, num + 1)]
        expect(witness is not None, f"necessary: missing witness at j={j}")
        expect(witness["label"] == label, f"necessary: witness label at j={j}")
        expect(witness["multirank"] == multirank, f"necessary: witness multirank at j={j}")
        expect(witness["euler"] == euler, f"necessary: witness euler at j={j}")
        slope = Fraction(euler) / sum(w * r for w, r in zip(weights, multirank))
        expect(Fraction(witness["slope"]) == slope, f"necessary: witness slope at j={j}")
        expect(slope > Fraction(chi, n), f"necessary: witness does not destabilize at j={j}")
    expect(necessary["overall_pass"] == all_ok, "necessary: overall verdict")
    return all_ok


def admissible_destabilizers(chi_j: int, chi: int, n: int, w_j: Fraction) -> list[list[int]]:
    """(k, chi_L) pairs that destabilize the tooth restriction and survive the filters.

    Destabilizing: chi_L/k > chi_j/n; under the ceiling of a semistable whole
    bundle: (chi_L - k)/(k*w_j) <= chi/n.  Filters: when n | chi_j, drop
    k | chi_L and keep chi_L = k*chi_j/n + a with 0 < a < k; otherwise an
    integral slope chi_L/k must equal chi_j/n + (n - r_j)/n.
    """
    mu_j, mu = Fraction(chi_j, n), Fraction(chi, n)
    kept = []
    for k in range(1, n):
        first = (k * chi_j) // n + 1
        last = (k * w_j * chi / n + k).__floor__()
        expect(not Fraction(first - 1, k) > mu_j, "destabilizers: lower edge")
        expect(not Fraction(last + 1 - k) / (k * w_j) <= mu, "destabilizers: upper edge")
        for chi_l in range(first, last + 1):
            expect(Fraction(chi_l, k) > mu_j and Fraction(chi_l - k) / (k * w_j) <= mu, "destabilizers: window")
            if chi_j % n == 0:
                if chi_l % k == 0 or not 0 < chi_l - Fraction(k * chi_j, n) < k:
                    continue
            elif chi_l % k == 0 and Fraction(chi_l, k) != mu_j + Fraction(n - chi_j % n, n):
                continue
            kept.append([k, chi_l])
    return kept


def check_classification(genera, rank, degrees, weights, classification) -> None:
    if rank == 1:
        expect(classification is None, "classification: rank 1 must be unclassified")
        return
    chis, chi = eulers(genera, rank, degrees)
    expect([e["j"] for e in classification] == list(range(1, len(genera))), "classification: indices")
    for e in classification:
        j = e["j"]
        w_j, forced = weights[j - 1], e["forced_destabilizers"]
        if (w_j * chi).denominator == 1:
            expect(e["case"] == "InconclusiveIntegralWChi" and not forced, f"classification: integral w*chi at j={j}")
            continue
        admissible = admissible_destabilizers(chis[j - 1], chi, rank, w_j)
        if e["case"] in SEMISTABLE_CASES:
            expect(not admissible and not forced, f"classification: semistable case has destabilizers at j={j}")
        else:
            expect(e["case"] == "PossiblyUnstable", f"classification: unknown case at j={j}")
            expect(forced == admissible, f"classification: destabilizer list at j={j}")


def tooth_interval(chi_j: int, chi: int, n: int, strict: bool):
    """(lo, hi, lo_open, hi_open, empty) for one tooth, clipped to the open unit interval."""
    if chi == 0:
        ok = 0 < chi_j < n if strict else 0 <= chi_j <= n
        return Fraction(0), Fraction(1), True, True, not ok
    a, b = Fraction(chi_j, chi), Fraction(chi_j - n, chi)
    lo, hi, lo_open, hi_open = min(a, b), max(a, b), strict, strict
    if lo <= 0:
        lo, lo_open = Fraction(0), True
    if hi >= 1:
        hi, hi_open = Fraction(1), True
    return lo, hi, lo_open, hi_open, lo > hi or (lo == hi and (lo_open or hi_open))


def region_feasible(genera, rank, degrees, strict: bool) -> bool:
    """Some point of the tooth intervals leaves the spine weight inside (0, 1)."""
    chis, chi = eulers(genera, rank, degrees)
    ivs = [tooth_interval(c, chi, rank, strict) for c in chis[:-1]]
    if any(iv[4] for iv in ivs):
        return False
    lo, hi = sum(iv[0] for iv in ivs), sum(iv[1] for iv in ivs)
    lo_open, hi_open = any(iv[2] for iv in ivs), any(iv[3] for iv in ivs)
    if hi >= 1:
        hi, hi_open = Fraction(1), True
    return lo < hi or (lo == hi and not lo_open and not hi_open)


def check_region(genera, rank, degrees, strict: bool, region: dict) -> bool:
    chis, chi = eulers(genera, rank, degrees)
    expect(region["strict"] == strict, "region: strict flag")
    intervals = region["intervals"]
    expect([iv["j"] for iv in intervals] == list(range(1, len(genera))), "region: indices")
    for iv, chi_j in zip(intervals, chis):
        lo, hi, lo_open, hi_open, empty = tooth_interval(chi_j, chi, rank, strict)
        expect(iv["empty"] == empty, f"region: emptiness at j={iv['j']}")
        if not empty:
            got = (Fraction(iv["lo"]), Fraction(iv["hi"]), iv["lo_open"], iv["hi_open"])
            expect(got == (lo, hi, lo_open, hi_open), f"region: interval at j={iv['j']}")
    feasible = region_feasible(genera, rank, degrees, strict)
    expect(region["feasible"] == feasible, "region: feasibility")
    return feasible


def check_polarization(genera, rank, degrees, weights) -> None:
    """``weights`` (p/q strings) is a polarization satisfying the strict inequalities."""
    expect(weights is not None, "polarization: none returned")
    w = [Fraction(x) for x in weights]
    expect(len(w) == len(genera), "polarization: weight count")
    expect(all(0 < x < 1 for x in w), "polarization: weight outside (0, 1)")
    expect(sum(w) == 1, "polarization: weights do not sum to 1")
    chis, chi = eulers(genera, rank, degrees)
    for j, (w_j, chi_j) in enumerate(zip(w[:-1], chis), start=1):
        expect(w_j * chi < chi_j < w_j * chi + rank, f"polarization: strict inequality at j={j}")


def check_synthesis(genera, rank, degrees, weights) -> bool:
    if weights is None:
        expect(not region_feasible(genera, rank, degrees, True), "polarize: none for a feasible region")
        return False
    check_polarization(genera, rank, degrees, weights)
    return True


def check_analyze(instance, payload: dict, code: int) -> None:
    genera, rank, degrees, weights = instance
    expect(payload["command"] == "analyze", "analyze: command")
    check_bundle_payload(genera, rank, degrees, payload["bundle"])
    expect([Fraction(x) for x in payload["polarization"]["weights"]] == list(weights), "analyze: weights echo")
    passed = check_necessary(genera, rank, degrees, weights, payload["necessary"])
    check_classification(genera, rank, degrees, weights, payload["classification"])
    expect(payload["exit"] == code == (0 if passed else 1), "analyze: exit code")


def check_region_command(instance, strict: bool, payload: dict, code: int) -> None:
    genera, rank, degrees = instance[:3]
    expect(payload["command"] == "region", "region: command")
    feasible = check_region(genera, rank, degrees, strict, payload)
    expect(payload["exit"] == code == (0 if feasible else 1), "region: exit code")


def kernel_target(pair):
    genera, rank, sections, degrees = pair[:4]
    return genera, sections - rank, tuple(-d for d in degrees)


def check_polarize_command(item, is_pair: bool, payload: dict, code: int) -> None:
    target = kernel_target(item) if is_pair else item[:3]
    expect(payload["command"] == "polarize", "polarize: command")
    found = check_synthesis(*target, payload["weights"])
    expect(found or not is_pair, "polarize: kernel bundle of a valid pair always has a polarization")
    expect(payload["exit"] == code == (0 if found else 1), "polarize: exit code")


def strong_unstability(pair) -> tuple[str, int | None]:
    """Verdict and triggering tooth, from slopes and euclidean remainders.

    The trivial kernel subbundle of rank k_j (slope 0) destabilizes the
    restricted kernel bundle (slope -d_j/m) exactly when k_j > 0 and d_j > 0.
    """
    genera, rank, sections, degrees, kernel_dims = pair[:5]
    m = sections - rank
    if not any(kernel_dims):
        return "NoKernelObstruction", None
    if m == 1:
        return "NotDetermined", None
    for j in range(1, len(genera)):
        k, d = kernel_dims[j - 1], degrees[j - 1]
        if k == 0:
            continue
        destabilizes = Fraction(0) > Fraction(-d, m)
        if m == 2:
            if destabilizes:
                return "StronglyUnstable", j
            continue
        r = (m * (1 - genera[j - 1]) - d) % m
        if (r == 0 and destabilizes) or (r > 0 and d != m - r):
            return "StronglyUnstable", j
    return "NotDetermined", None


def characterization(pair) -> tuple[str, int | None, list[str]]:
    genera, rank, sections, degrees, kernel_dims, flags = pair
    m = sections - rank
    if not any(kernel_dims):
        needed = "general_linear_series" if rank == 1 else "butler_conjecture"
        if not flags[0 if rank == 1 else 1]:
            return "Conditional", None, [needed]
        return "ExistsSemistablePolarization", None, []
    if m > 2 and all(d % m == 0 for d in degrees):
        for j in range(1, len(genera)):
            if kernel_dims[j - 1] > 0 and degrees[j - 1] > 0:
                return "DivisibilityContradiction", j, []
    verdict, j = strong_unstability(pair)
    return ("StronglyUnstable", j, []) if verdict == "StronglyUnstable" else ("NotDetermined", None, [])


def check_kernel_results(pair, kernel_bundle: dict, su: dict, report: dict) -> str:
    genera, rank, sections, degrees = pair[:4]
    target = kernel_target(pair)
    check_bundle_payload(*target, kernel_bundle)
    chi_e = eulers(genera, rank, degrees)[1]
    expect(kernel_bundle["euler"] == sections * (1 - sum(genera)) - chi_e, "kernel: euler identity")
    expect((su["verdict"], su["triggering_j"]) == strong_unstability(pair), "kernel: strong unstability")
    verdict, j, missing = characterization(pair)
    expect((report["verdict"], report["triggering_j"]) == (verdict, j), "kernel: characterization")
    expect(report["missing_assumptions"] == missing, "kernel: missing assumptions")
    if verdict == "ExistsSemistablePolarization":
        check_polarization(*target, report["polarization"])
    else:
        expect(report["polarization"] is None, "kernel: unexpected polarization")
    return verdict


def check_kernel_command(pair, payload: dict, code: int) -> None:
    genera, rank, sections, degrees, kernel_dims = pair[:5]
    expect(payload["command"] == "kernel", "kernel: command")
    verdict = check_kernel_results(pair, payload["kernel_bundle"], payload["strong_unstability"], payload["characterization"])
    witnesses = payload["restriction_witnesses"]
    expect([w["j"] for w in witnesses] == list(range(1, len(genera) + 1)), "kernel: witness indices")
    for w in witnesses:
        j = w["j"]
        k, d = kernel_dims[j - 1], degrees[j - 1]
        expected = None
        if k > 0 and d > 0:
            expected = {
                "label": "trivial-kernel-part",
                "multirank": [k if i == j else 0 for i in range(1, len(genera) + 1)],
                "euler": k * (1 - genera[j - 1]),
            }
        expect(w["witness"] == expected, f"kernel: restriction witness at j={j}")
    negative = verdict in NEGATIVE_KERNEL_VERDICTS
    expect(payload["exit"] == code == (1 if negative else 0), "kernel: exit code")


def check_selftest(payload: dict, code: int, golden: dict) -> None:
    """Passed, every check agreed, and the agreement counts are the pinned ones."""
    expect(payload["command"] == "selftest", "selftest: command")
    expect(payload["passed"] is True and payload["first_failure"] is None, "selftest: failed")
    expect(all(c["run"] == c["agreed"] for c in payload["checks"].values()), "selftest: disagreement")
    expect(payload["checks"] == golden, "selftest: agreement counts changed")
    expect(payload["exit"] == code == 0, "selftest: exit code")
