"""Brute-force oracles and seeded instance generation.

Every fast routine in the package has a desk-scale counterpart here that
recomputes the same answer from definitions: each slope comparison is a
cross-multiplied integer predicate, destabilizer windows are swept integer
by integer with deliberate padding, simplest rationals are found by
scanning denominators, Euler characteristics are summed from the degrees
component by component, and each tooth's weight interval is solved from
the inequality on integer ends, its emptiness and the region's slack
decided by cross-multiplication.  Reported values are compared on
integers too: a witness slope is cross-multiplied with the weighted
multirank, summed entry by entry as an unreduced numerator and denominator,
and a polarization's weights are added one by one the same way.
``Fraction`` appears only in the generated weights, in the scanned
simplest rational and in the interval ends, built once from integers as
``IntervalQ`` values to compare with the fast ones.  The oracles stay
independent of the fast path: they test every candidate one by one where
the fast path computes closed-form floor-division ranges, and they import
none of its private helpers and nothing from ``kernels``, so a shared
mistake cannot make both sides agree.
Inequalities are cross-multiplied by a tooth weight only inside (0, 1),
where the multiplier is positive; anything else is a ValueError.
Agreement is exact or it is a failure; there are no tolerances anywhere.

The instances and pairs come from two streams that depend on a seed alone;
their bounds are the module constants ``MAX_COMPONENTS``, ``MAX_GENUS``,
``MAX_RANK``, ``DEGREE_RANGE`` and ``MAX_WEIGHT_DENOMINATOR``.  The selftest
sweeps each checked tooth's padded window once: the one raw candidate list
is compared with the fast range and then replayed through the divisibility
filters.

The selftest cuts its count into contiguous instance ranges, one per CPU the
process may use and at least ``_MIN_RANGE`` instances each.  The calling
process checks the first range; forked children check the others, each
drawing the seeded streams' raw values up to its start without building a
record from them, and send back agreement counts and first failures as
builtins.  Merging runs in range order, instance phase before pair phase,
so the report, and the CLI text and JSON rendered from it, are the same on
any number of CPUs.  Without ``os.fork``, or with other threads running,
every range runs in the calling process.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import random
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from .kernel_bundles import GeneratedPairData, kernel_data
from .model import (
    BundleData,
    CombCurve,
    Polarization,
    format_rational,
)
from .polarization import (
    IntervalQ,
    feasible_region,
    necessary_check,
    pick_simplest_rational,
    synthesize_polarization,
)
from .restrictions import classify_restriction, destabilizer_candidates


# Bounds of the seeded generators.  The common weight denominator must
# reach MAX_COMPONENTS, so that it splits into N positive parts.
MAX_COMPONENTS = 6
MAX_GENUS = 5
MAX_RANK = 4
DEGREE_RANGE = (-20, 20)
MAX_WEIGHT_DENOMINATOR = 64


def _draw_instance(rng: random.Random) -> tuple:
    """The raw draws of one instance: genera, rank, degrees, weight denominator, cuts."""
    num = rng.randint(2, MAX_COMPONENTS)
    genera = tuple(rng.randint(0, MAX_GENUS) for _ in range(num))
    rank = rng.randint(1, MAX_RANK)
    degrees = tuple(rng.randint(*DEGREE_RANGE) for _ in range(num))
    den = rng.randint(num, MAX_WEIGHT_DENOMINATOR)
    cuts = rng.sample(range(1, den), num - 1)
    return genera, rank, degrees, den, cuts


def _build_instance(
    genera: tuple[int, ...], rank: int, degrees: tuple[int, ...], den: int, cuts: list[int]
) -> tuple[CombCurve, BundleData, Polarization]:
    # N positive integer parts of a common denominator D give exact weights
    # a_j/D in (0, 1) summing to 1, with reduced denominators dividing D.
    cuts = sorted(cuts)
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    w = Polarization(tuple(Fraction(a, den) for a in parts))
    return CombCurve(genera), BundleData(rank=rank, multidegree=degrees), w


def _draw_pair(rng: random.Random) -> tuple:
    """The raw draws of one valid pair: genera, rank, sections, degrees, kernel dimensions."""
    num = rng.randint(2, MAX_COMPONENTS)
    genera = tuple(rng.randint(2, MAX_GENUS) for _ in range(num))
    n = rng.randint(1, MAX_RANK)
    l = n + rng.randint(1, MAX_RANK + 1)
    kernel_dims = [0] * num
    for j in range(num):
        if rng.randrange(3) == 0:
            kernel_dims[j] = rng.randint(1, l - n)
    if kernel_dims[-1] > 0 and all(k == 0 for k in kernel_dims[:-1]):
        kernel_dims[0] = 1
    degrees = []
    for j in range(num):
        if rng.randrange(5) == 0:
            degrees.append(0)
        else:
            floor = max(2, (l - kernel_dims[j]) - n)
            degrees.append(rng.randint(floor, floor + DEGREE_RANGE[1]))
    return genera, n, l, degrees, kernel_dims


def _build_pair(
    genera: tuple[int, ...], n: int, l: int, degrees: list[int], kernel_dims: list[int]
) -> tuple[CombCurve, GeneratedPairData]:
    pair = GeneratedPairData(
        rank=n,
        sections=l,
        multidegree=tuple(degrees),
        kernel_dims=tuple(kernel_dims),
    )
    return CombCurve(genera), pair


def _stream(draw: Callable, build: Callable, seed: int, count: int, start: int):
    """Records ``start..count-1`` of the seeded draws; those before ``start`` are drawn, not built."""
    rng = random.Random(seed)
    for i in range(count):
        raw = draw(rng)
        if i >= start:
            yield build(*raw)


def instance_stream(seed: int, count: int, start: int = 0):
    """Yield instances ``start..count-1`` of a reproducible (curve, bundle, polarization) stream."""
    yield from _stream(_draw_instance, _build_instance, seed, count, start)


def pair_stream(seed: int, count: int, start: int = 0):
    """Yield pairs ``start..count-1`` of a reproducible valid (curve, pair) stream."""
    yield from _stream(_draw_pair, _build_pair, seed, count, start)


def _eulers(curve: CombCurve, rank: int, degrees) -> tuple[list[int], int]:
    """Component eulers d_j + rank*(1 - g_j), and chi: their sum less rank at each node."""
    chis = [d + rank * (1 - g) for g, d in zip(curve.genera, degrees)]
    return chis, sum(chis) - rank * (len(chis) - 1)


def _weight_terms(w_j: Fraction, j: int) -> tuple[int, int]:
    """Numerator and denominator of a weight that the oracles may cross-multiply by.

    Multiplying an inequality through by w_j or 1 - w_j keeps its direction
    only when both are positive, so a weight outside (0, 1) is refused
    instead of silently flipping or voiding a comparison.
    """
    p, q = w_j.numerator, w_j.denominator
    if not 0 < p < q:
        raise ValueError(f"weight {j} is {format_rational(w_j)}, not strictly between 0 and 1")
    return p, q


def _violated_sides(p: int, q: int, chi_j: int, chi: int, n: int) -> tuple[bool, bool]:
    """Whether tooth j's complement and twisted restriction have slope above chi/n.

    The complement (full rank off the tooth, euler chi - chi_j) has slope
    (chi - chi_j)/(n*(1 - w_j)), the twisted restriction (supported on the
    tooth, euler chi_j - n) has (chi_j - n)/(n*w_j).  With w_j = p/q in
    (0, 1) both denominators are positive, so the comparisons read
    (chi - chi_j)*q > chi*(q - p) and (chi_j - n)*q > chi*p.
    """
    return (chi - chi_j) * q > chi * (q - p), (chi_j - n) * q > chi * p


def oracle_necessary_equivalence(curve: CombCurve, bundle: BundleData, w: Polarization) -> bool:
    """Recompute the necessary check from raw slope comparisons and compare.

    The two witness profiles are rebuilt here from scratch and each side is
    decided by the cross-multiplied integer predicates of
    :func:`_violated_sides`; the failure pattern must match the fast check
    side for side at every tooth.  The reported witness (the complement on
    a lower failure, else the twisted restriction, none on a pass) must
    match its rebuilt profile in label, multirank and euler, and its slope,
    a reported value, must equal the euler over the weighted multirank
    summed entry by entry on integers (:func:`_slope_matches`).  Raises
    ValueError on a tooth weight outside (0, 1).
    """
    n = bundle.rank
    num = curve.num_components
    chis, chi = _eulers(curve, n, bundle.multidegree)
    terms = [_weight_terms(w_j, j) for j, w_j in enumerate(w.weights[: num - 1], start=1)]
    verdict = necessary_check(curve, bundle, w)
    for check in verdict.components:
        j = check.j
        chi_j = chis[j - 1]
        lower_violated, upper_violated = _violated_sides(*terms[j - 1], chi_j, chi, n)
        if check.upper_ok != (not upper_violated):
            return False
        if check.lower_ok != (not lower_violated):
            return False
        if lower_violated:
            label = f"tilde-E_{j}"
            multirank = [0 if i == j else n for i in range(1, num + 1)]
            euler = chi - chi_j
        elif upper_violated:
            label = f"E_{j}(-p_{j})"
            multirank = [n if i == j else 0 for i in range(1, num + 1)]
            euler = chi_j - n
        else:
            if check.witness is not None or check.witness_slope is not None:
                return False
            continue
        witness = check.witness
        if witness is None or witness.label != label:
            return False
        if list(witness.multirank) != multirank or witness.euler != euler:
            return False
        if not _slope_matches(check.witness_slope, euler, w.weights, multirank):
            return False
    return True


def _slope_matches(
    slope: Fraction | None, euler: int, weights: tuple[Fraction, ...], multirank: list[int]
) -> bool:
    """Whether a reported slope equals euler over the weighted multirank.

    The weighted multirank is summed entry by entry as the unreduced integer
    fraction top/bottom, bottom > 0; slope == euler*bottom/top is then one
    cross-multiplication.  A nonpositive top or a missing slope disagrees.
    """
    top, bottom = 0, 1
    for w_i, r_i in zip(weights, multirank):
        q_i = w_i.denominator
        top, bottom = top * q_i + r_i * w_i.numerator * bottom, bottom * q_i
    if top <= 0 or slope is None:
        return False
    return slope.numerator * top == euler * bottom * slope.denominator


def oracle_destabilizer_enumeration(
    curve: CombCurve, bundle: BundleData, w: Polarization, j: int
) -> list[tuple[int, int]]:
    """Sweep a padded integer window with the raw subsheaf inequality.

    Keeps (k, chi_L) when chi_L/k > chi_j/n and the twisted subsheaf slope
    (chi_L - k)/(k*w_j) stays at most chi/n, each tested on every candidate
    as a cross-multiplied integer predicate: with w_j = p/q, chi_L*n > chi_j*k
    and (chi_L - k)*q*n <= chi*k*p.  The scan window is padded by n*k + 1
    beyond both true bounds (the slope threshold below, the weighted
    ceiling (k*p*chi + k*q*n)/(q*n) above) so an off-by-one in the fast
    range arithmetic surfaces as a disagreement instead of getting masked;
    kept candidates never touch the window edges, which is checked.
    Raises ValueError when w_j is outside (0, 1).
    """
    n = bundle.rank
    chis, chi = _eulers(curve, n, bundle.multidegree)
    chi_j = chis[j - 1]
    p, q = _weight_terms(w.weights[j - 1], j)
    qn = q * n
    found = []
    for k in range(1, n):
        top = k * (p * chi + qn)  # the weighted ceiling is top/qn
        lo = min((k * chi_j) // n, top // qn) - n * k - 1
        hi = max(-((-k * chi_j) // n), -((-top) // qn)) + n * k + 1
        slope_bar = chi_j * k
        twisted_bar = chi * k * p
        for chi_l in range(lo, hi + 1):
            if chi_l * n <= slope_bar or (chi_l - k) * qn > twisted_bar:
                continue
            if not lo < chi_l < hi:
                raise RuntimeError(f"padded window [{lo}, {hi}] clipped candidate {chi_l}")
            found.append((k, chi_l))
    return found


def oracle_filtered_destabilizers(
    curve: CombCurve, bundle: BundleData, w: Polarization, j: int
) -> list[tuple[int, int]]:
    """Replay the divisibility filters over the brute-forced candidate list.

    Written independently of the classifier: the allowed euler values are
    built as explicit sets and membership-tested.  Raises ValueError when
    w_j is outside (0, 1), as the enumeration does.
    """
    raw = oracle_destabilizer_enumeration(curve, bundle, w, j)
    return _replay_filters(curve, bundle, j, raw)


def _replay_filters(
    curve: CombCurve, bundle: BundleData, j: int, raw: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The pairs of the raw tooth-j enumeration that survive the divisibility filters."""
    n = bundle.rank
    chi_j = _eulers(curve, n, bundle.multidegree)[0][j - 1]
    kept = []
    for k, chi_l in raw:
        if chi_j % n == 0:
            # The allowed values k*chi_j/n + a, 0 < a < k, are not multiples of k.
            base = k * (chi_j // n)
            if chi_l not in {base + a for a in range(1, k)}:
                continue
        elif chi_l % k == 0:
            q, r = divmod(chi_j, n)
            # chi_L/k must be chi_j/n + (n - r)/n, cross-multiplied.
            if chi_l * n != (chi_j + n - r) * k:
                continue
            if q + 1 != chi_l // k:
                raise RuntimeError(f"pinned quotient {chi_l // k} is not chi_j // n + 1 = {q + 1}")
        kept.append((k, chi_l))
    return kept


def oracle_simplest_rational(interval: IntervalQ, max_denominator: int) -> Fraction | None:
    """Scan denominators 1..max_denominator for the first admissible fraction.

    For each denominator the smallest admissible numerator is tried, both
    endpoints compared by cross-multiplication; the first hit is
    automatically in lowest terms and matches the (denominator, numerator)
    ordering of the fast picker.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    if interval.is_empty:
        return None
    a, b = interval.lo.numerator, interval.lo.denominator
    c, d = interval.hi.numerator, interval.hi.denominator
    for q in range(1, max_denominator + 1):
        # Smallest p with p/q above (or at, when closed) the lower endpoint a/b.
        p = -((-a * q) // b)
        if interval.lo_open and p * b == a * q:
            p += 1
        above = p * b > a * q if interval.lo_open else p * b >= a * q
        below = p * d < c * q if interval.hi_open else p * d <= c * q
        if above and below:
            return Fraction(p, q)
    return None


def _longhand_region(
    chis: list[int], chi: int, n: int, strict: bool
) -> tuple[tuple[IntervalQ, ...], bool]:
    """Tooth weight intervals solved from w*chi <= chi_j <= w*chi + n, and feasibility.

    With chi > 0 the ends are (chi_j - n)/chi and chi_j/chi; with chi < 0
    they swap and read -chi_j/-chi and (n - chi_j)/-chi.  Each end is an
    integer pair a/b, b > 0.  An end at or past 0 or 1 is clipped there and
    made open; ``strict`` (the inequality with <) opens every end.  With
    chi = 0, w drops out, and the interval is (0, 1) when 0 <= chi_j <= n
    (strict: 0 < chi_j < n) and empty otherwise.  An interval is empty when
    its cross-multiplied ends cross, or meet with an open end.  The region
    is feasible when no interval is empty and the lower ends, added one by
    one as the unreduced top/bottom, leave a slack 1 - top/bottom > 0.  The
    intervals are ``IntervalQ`` values so the fast ones can be compared
    with them as they are, crossed ends included.
    """
    intervals = []
    nonempty = True
    top, bottom = 0, 1
    for chi_j in chis[:-1]:
        if chi == 0:
            holds = 0 < chi_j < n if strict else 0 <= chi_j <= n
            (a, b), (c, d) = (0, 1), (1 if holds else 0, 1)
            lo_open = hi_open = True
        else:
            if chi > 0:
                (a, b), (c, d) = (chi_j - n, chi), (chi_j, chi)
            else:
                (a, b), (c, d) = (-chi_j, -chi), (n - chi_j, -chi)
            lo_open = hi_open = strict
            if a <= 0:
                (a, b), lo_open = (0, 1), True
            if c >= d:
                (c, d), hi_open = (1, 1), True
        span = c * b - a * d
        nonempty = nonempty and (span > 0 or (span == 0 and not (lo_open or hi_open)))
        top, bottom = top * b + a * bottom, bottom * b
        intervals.append(IntervalQ(Fraction(a, b), Fraction(c, d), lo_open, hi_open))
    return tuple(intervals), nonempty and top < bottom


def _valid_longhand(w: Polarization) -> bool:
    """Each weight strictly between 0 and 1, and the weights, added one by one, sum to 1.

    With w_j = p/q in lowest terms the bounds read 0 < p < q.  The running
    sum is kept as the unreduced top/bottom, which equals 1 when top == bottom.
    """
    top, bottom = 0, 1
    for w_j in w.weights:
        p, q = w_j.numerator, w_j.denominator
        if not 0 < p < q:
            return False
        top, bottom = top * q + p * bottom, bottom * q
    return top == bottom


@dataclass
class CheckStat:
    run: int = 0
    agreed: int = 0


@dataclass
class SelftestReport:
    """Outcome of one seeded selftest sweep."""

    seed: int
    count: int
    checks: dict[str, CheckStat] = field(default_factory=dict)
    first_failure: str | None = None

    def _stat(self, name: str) -> CheckStat:
        return self.checks.setdefault(name, CheckStat())

    def record(self, name: str, ok: bool, describe: Callable[[], str]) -> None:
        """Count one check; the first disagreement is kept as ``name: describe()``.

        ``describe`` builds the counterexample text, so it runs only then.
        """
        stat = self._stat(name)
        stat.run += 1
        if ok:
            stat.agreed += 1
        elif self.first_failure is None:
            self.first_failure = f"{name}: {describe()}"

    @property
    def total_run(self) -> int:
        return sum(s.run for s in self.checks.values())

    @property
    def total_agreed(self) -> int:
        return sum(s.agreed for s in self.checks.values())

    @property
    def passed(self) -> bool:
        return self.total_agreed == self.total_run


def _describe_instance(curve: CombCurve, bundle: BundleData, w: Polarization) -> str:
    weights = ",".join(format_rational(x) for x in w.weights)
    return (
        f"genera={list(curve.genera)} rank={bundle.rank} "
        f"multidegree={list(bundle.multidegree)} weights=[{weights}]"
    )


# A range is forked off only when every range holds at least this many
# instances, so small sweeps stay in the calling process.
_MIN_RANGE = 250


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _check_instances(report: SelftestReport, instances) -> None:
    for curve, bundle, w in instances:

        def where(suffix: str = "") -> str:
            return _describe_instance(curve, bundle, w) + suffix

        report.record(
            "necessary-equivalence", oracle_necessary_equivalence(curve, bundle, w), where
        )
        n = bundle.rank
        chis, chi = _eulers(curve, n, bundle.multidegree)
        for j in range(1, curve.num_components):
            w_j = w.weights[j - 1]
            if (w_j.numerator * chi) % w_j.denominator == 0:
                continue  # w_j*chi is an integer
            if n >= 2:
                raw_fast = [
                    (k, c)
                    for k in range(1, n)
                    for c in destabilizer_candidates(curve, bundle, w, j, k)
                ]
                raw_oracle = oracle_destabilizer_enumeration(curve, bundle, w, j)

                def at_tooth() -> str:
                    return where(f" j={j}")

                report.record("destabilizer-range", raw_fast == raw_oracle, at_tooth)
                verdict = classify_restriction(curve, bundle, w, j)
                filtered = _replay_filters(curve, bundle, j, raw_oracle)
                if verdict.case.is_semistable:
                    report.record("classifier-consistency", not filtered, at_tooth)
                else:
                    report.record(
                        "destabilizer-filter",
                        list(verdict.forced_destabilizers) == filtered,
                        at_tooth,
                    )
        # "region-nesting" keeps the name in the pinned report; it checks the
        # fast closed region against the longhand one.
        closed = feasible_region(curve, bundle, strict=False)
        expected = _longhand_region(chis, chi, n, strict=False)
        report.record("region-nesting", (closed.intervals, closed.feasible) == expected, where)
        intervals, feasible = _longhand_region(chis, chi, n, strict=True)
        w_built = synthesize_polarization(curve, bundle)
        if feasible:
            ok = w_built is not None and _valid_longhand(w_built)
            report.record("region-synthesis", ok, where)
            for iv in intervals:
                fast = pick_simplest_rational(iv)
                slow = oracle_simplest_rational(iv, fast.denominator)
                report.record(
                    "simplest-rational", slow == fast, lambda: where(f" interval={iv.render()}")
                )
        else:
            report.record("region-synthesis", w_built is None, where)


def _check_pairs(report: SelftestReport, pairs) -> None:
    for curve, pair in pairs:

        def where() -> str:
            return (
                f"genera={list(curve.genera)} rank={pair.rank} sections={pair.sections} "
                f"multidegree={list(pair.multidegree)} kernel_dims={list(pair.kernel_dims)}"
            )

        m = kernel_data(curve, pair)
        _, chi_m = _eulers(curve, m.rank, m.multidegree)
        _, chi_e = _eulers(curve, pair.rank, pair.multidegree)
        _, chi_o = _eulers(curve, 1, [0] * curve.num_components)
        identity = chi_m == pair.sections * chi_o - chi_e
        report.record("kernel-identity", identity, where)
        w_pair = synthesize_polarization(curve, m)
        report.record(
            "kernel-polarization",
            w_pair is not None and _valid_longhand(w_pair),
            where,
        )


def _run_range(seed: int, start: int, stop: int) -> list:
    """Check instances and pairs ``start..stop-1`` of the seeded streams.

    Returns builtins only, one ``([(check, run, agreed), ...], first_failure)``
    entry per phase (instances, then pairs), so a forked child can marshal it.
    """
    phases = []
    for check, stream in ((_check_instances, instance_stream), (_check_pairs, pair_stream)):
        part = SelftestReport(seed=seed, count=stop - start)
        check(part, stream(seed, stop, start))
        stats = [(name, stat.run, stat.agreed) for name, stat in part.checks.items()]
        phases.append((stats, part.first_failure))
    return phases


def _fork_range(seed: int, start: int, stop: int) -> tuple[int, int]:
    """Run one range in a forked child; returns its pid and the read end of its pipe.

    The child marshals ``("ok", phases)`` or ``("error", type name, message)``
    into the pipe and leaves through ``os._exit``: it never returns into the
    caller's stack, runs its ``finally`` blocks or flushes its stdout.  A
    child interrupted before it writes leaves the pipe empty.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                message = ("ok", _run_range(seed, start, stop))
            except Exception as exc:
                message = ("error", type(exc).__name__, str(exc))
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(message))
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, read_fd


def _run_ranges(seed: int, cuts: list[int]) -> list:
    """Ranges ``cuts[i]..cuts[i+1]-1``: the first here, every other in a forked child.

    A single range forks nothing.
    """
    import signal

    children: list[tuple[int, int]] = []
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            children.append(_fork_range(seed, start, stop))
        results = [_run_range(seed, cuts[0], cuts[1])]
        for pid, read_fd in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise RuntimeError(f"selftest worker {pid} exited without a result")
            message = marshal.loads(data)
            if message[0] != "ok":
                raise RuntimeError(f"selftest worker {pid} failed: {message[1]}: {message[2]}")
            results.append(message[1])
        return results
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            # A worker still running was abandoned by a failure above.  Both
            # calls fail only if the caller had children reaped automatically.
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def run_selftest(seed: int, count: int) -> SelftestReport:
    """Cross-check every fast routine against its oracle on seeded instances.

    The instances are cut into contiguous ranges, one per usable CPU with at
    least ``_MIN_RANGE`` instances each; the calling process checks the first
    and forked children check the others.  The ranges are merged in order,
    instance phase before pair phase, so the report equals the serial one.
    """
    ranges = max(1, min(_usable_cpus(), count // _MIN_RANGE))
    if ranges > 1 and (not hasattr(os, "fork") or threading.active_count() > 1):
        ranges = 1  # no fork here, or one that other threads' locks could deadlock
    cuts = [count * i // ranges for i in range(ranges + 1)]
    results = _run_ranges(seed, cuts)
    report = SelftestReport(seed=seed, count=count)
    for phase in range(2):
        for phases in results:
            stats, failure = phases[phase]
            for name, run, agreed in stats:
                stat = report._stat(name)
                stat.run += run
                stat.agreed += agreed
            if report.first_failure is None:
                report.first_failure = failure
    return report
