"""combstab benchmark: one closed-loop client, seeded inputs, checked outputs.

Run from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload corpus --seed 20260808 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 20260808 --seconds 15

Workloads: corpus, batch, selftest, scale (see README.md here).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  The lines before it print every metric by name and unit, the
run environment, and a ``detail`` JSON line with the per-command figures.
``--workload all`` runs each workload in its own process and prints them all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from checks import CheckFailed
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
LAYER_MODULES = ("cli", "documents", "model", "polarization", "restrictions", "kernel_bundles", "kernels", "oracles")


def import_combstab() -> dict:
    """Import combstab afresh from this checkout's ``src`` and return its modules."""
    for name in [n for n in sys.modules if n == "combstab" or n.startswith("combstab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("combstab")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "combstab":
        raise ImportError(f"combstab imported from {package.__file__}, not from this checkout")
    return {name: importlib.import_module(f"combstab.{name}") for name in LAYER_MODULES}


def set_up(workload_cls, seed: int, workdir: Path, write: bool = True):
    """Fresh import, input generation and warm-up; returns the workload and its time.

    Writing the documents to disk is left out of the time: it is the
    benchmark's own I/O, and filesystem timing here swings far more than the
    program's.  Every repetition generates the same documents, so they are
    written once.
    """
    gc.collect()
    start = time.perf_counter()
    workload = workload_cls(import_combstab(), seed, workdir)
    workload.build()
    elapsed = time.perf_counter() - start
    if write:
        workload.write_documents()
    start = time.perf_counter()
    workload.warm_up()
    return workload, elapsed + time.perf_counter() - start


class Tally:
    """Attempted and failed operations, and the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, ops: int, error: str | None) -> None:
        self.attempted += ops
        if error is not None:
            self.failed += ops
            if len(self.reasons) < 5:
                self.reasons.append(error)


def timed_call(workload, op):
    start = time.perf_counter_ns()
    try:
        result = workload.call(op)
    except Exception as exc:  # any exception is a failed operation, reported by type
        return time.perf_counter_ns() - start, None, f"{op[0]}: {type(exc).__name__}: {exc}"
    return time.perf_counter_ns() - start, result, None


def verify(workload, op, result, firsts: dict, index: int) -> str | None:
    """Longhand check on the first result of an operation; equality on repeats."""
    if index in firsts:
        return None if result == firsts[index] else f"{op[0]}: output changed on repeat"
    firsts[index] = result
    try:
        workload.check(op, result)
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
        return f"{op[0]}: {type(exc).__name__}: {exc}"
    return None


def call_and_check(workload, op, index: int, firsts: dict, tally: Tally) -> int:
    """One operation, then its check outside the timed call; returns the call time in ns."""
    ns, result, error = timed_call(workload, op)
    tally.add(workload.ops_per_call(op), error or verify(workload, op, result, firsts, index))
    return ns


def measure(workload, seconds: float, tally: Tally, between=None, pauses: int = 0):
    """Closed loop over the operations until ``seconds`` of call time are spent.

    ``between`` is called ``pauses`` times, evenly spread over the call time
    and outside it.
    """
    budget = seconds * 1e9
    marks = [budget * (i + 1) / (pauses + 1) for i in range(pauses)]
    busy = 0
    samples: list[tuple[tuple, int]] = []
    firsts: dict[int, object] = {}
    while busy < budget:
        for index, op in enumerate(workload.ops):
            ns = call_and_check(workload, op, index, firsts, tally)
            busy += ns
            samples.append((op, ns))
            while marks and busy >= marks[0]:
                marks.pop(0)
                between()
            if busy >= budget and not workload.whole_rounds:
                break
    return samples, busy / 1e9, firsts


def corpus_digest(workload, firsts: dict) -> str:
    digest = hashlib.sha256()
    for index in range(len(workload.ops)):
        if index in firsts and firsts[index] is not None:
            digest.update(firsts[index][1].encode("utf-8"))
    return digest.hexdigest()[:16]


def proc_sample(workload, firsts: dict, tally: Tally) -> list[float]:
    """``python -m combstab <cmd> FILE --json`` in a fresh interpreter each call."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    index_of = {id(op): i for i, op in enumerate(workload.ops)}
    times = []
    for op in workload.proc_ops():
        argv = [sys.executable, "-m", "combstab", op[0], *op[1], "--json"]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        times.append((time.perf_counter() - start) * 1e3)
        expected = firsts.get(index_of[id(op)])
        error = None if (proc.returncode, proc.stdout) == expected else f"proc {op[0]}: differs from in-process output"
        tally.add(1, error)
    return times


def import_ms(repeats: int = 5) -> float:
    """Fresh-interpreter import of combstab.cli minus a bare interpreter start, median."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT, timeout=60)
        return time.perf_counter() - start

    bare = statistics.median(run("pass") for _ in range(repeats))
    full = statistics.median(run("import combstab.cli") for _ in range(repeats))
    return (full - bare) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment(seed: int, mods: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "python": platform.python_version(),
        "backend": mods["kernels"].BACKEND,
        "no_speedups": bool(os.environ.get("COMBSTAB_NO_SPEEDUPS")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "commit": commit,
    }


def end_to_end(workload_cls, seed: int, seconds: float, workdir: Path):
    """Measured run; set-up is repeated at even points through it, since host
    speed drifts over seconds and a single short set-up samples one moment."""
    workload, first = set_up(workload_cls, seed, workdir)
    setup_times = [first]

    def repeat_setup() -> None:
        setup_times.append(set_up(workload_cls, seed, workdir, write=False)[1])

    tally = Tally()
    samples, busy_s, firsts = measure(workload, seconds, tally, repeat_setup, SETUP_REPEATS - 1)
    setup_s = statistics.median(setup_times)
    by_kind: dict[str, list[float]] = {}
    for op, ns in samples:
        by_kind.setdefault(op[0], []).append(ns / 1e6)
    all_ms = [ns / 1e6 for _, ns in samples]
    ops_done = sum(workload.ops_per_call(op) for op, _ in samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (ops_done / busy_s, "1/s"),
        "latency_p50_ms": (statistics.median(all_ms), "ms"),
    }
    detail: dict = {"samples": {kind: len(v) for kind, v in by_kind.items()}}
    named: dict[str, tuple[float, str]] = {}
    for kind, values in sorted(by_kind.items()):
        if kind == "selftest":
            named["selftest_s"] = (statistics.median(values) / 1e3, "s")
            continue
        named[f"{kind}_p50_ms"] = (statistics.median(values), "ms")
        if len(values) >= 1000:  # at least ten samples lie beyond the p99
            named[f"{kind}_p99_ms"] = (statistics.quantiles(values, n=100)[98], "ms")
    if workload.name == "scale":
        families: dict[str, list[float]] = {}
        for op, ns in samples:
            families.setdefault(op[3], []).append(ns / 1e6)
        for family, values in sorted(families.items()):
            named[f"{family}_p50_ms"] = (statistics.median(values), "ms")
        detail["known_defect_probe"] = workload.defect_probe()
    if workload.name == "corpus":
        named["proc_p50_ms"] = (statistics.median(proc_sample(workload, firsts, tally)), "ms")
        detail["corpus_digest"] = corpus_digest(workload, firsts)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    named["error_rate"] = (tally.failed / tally.attempted, "ratio")
    return workload, tally, metrics, named, detail


def traced(workload_cls, seed: int, seconds: float, workdir: Path, out_dir: Path):
    """Alternate untraced and traced passes over the same operations.

    A first pass does the longhand checks, so both timed passes do the same
    work: the calls plus an equality check per result.
    """
    workload, _ = set_up(workload_cls, seed, workdir)
    tally = Tally()
    ops = workload.trace_pass()
    firsts: dict[int, object] = {}

    def run_pass() -> float:
        start = time.perf_counter_ns()
        for index, op in enumerate(ops):
            call_and_check(workload, op, index, firsts, tally)
        return (time.perf_counter_ns() - start) / 1e9

    run_pass()
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        plain = run_pass()
        tracer = Tracer()
        tracer.install()
        try:
            wall = run_pass()
        finally:
            tracer.uninstall()
        rounds.append(layer_metrics(workload, ops, tracer, wall, plain))
    tracer.write(out_dir / f"trace-{workload.name}.tsv")
    metrics = {name: (statistics.median(r[name][0] for r in rounds), unit) for name, (_, unit) in rounds[0].items()}
    metrics["cli.import_ms"] = (import_ms(), "ms")
    return workload, tally, metrics


def layer_metrics(workload, ops, tracer, wall_s: float, plain_s: float) -> dict:
    calls, sec = tracer.calls.get, tracer.seconds
    ops_count = sum(workload.ops_per_call(op) for op in ops)
    pairs = sum(workload.pairs_in(op) for op in ops)
    counters = tracer.counters.get
    cli_calls = calls("cli.main", 0)

    def share(num, den):
        return num / den if den else 0.0

    m = {
        "cli.parser_ms": (share(sec("cli.build_parser") + sec("cli.parse_args"), cli_calls) * 1e3, "ms"),
        "documents.load_calls": (calls("documents.load_document", 0), "count"),
        "documents.load_s": (sec("documents.load_document"), "s"),
        "model.component_eulers_calls": (calls("model.component_eulers", 0), "count"),
        "model.component_eulers_per_op": (share(calls("model.component_eulers", 0), ops_count), "count/op"),
        "model.total_euler_calls": (calls("model.total_euler", 0), "count"),
        "polarization.necessary_check_s": (sec("polarization.necessary_check"), "s"),
        "polarization.canonical_witnesses_calls": (calls("polarization.canonical_witnesses", 0), "count"),
        "polarization.feasible_region_s": (sec("polarization.feasible_region"), "s"),
        "polarization.synthesize_s": (sec("polarization.synthesize_polarization"), "s"),
        "polarization.pick_simplest_calls": (calls("polarization.pick_simplest_rational", 0), "count"),
        "polarization.picks_per_tooth": (share(counters("picks_useful", 0), counters("picks_attempted", 0)), "ratio"),
        "restrictions.classify_calls": (calls("restrictions.classify_restriction", 0), "count"),
        "restrictions.classify_s": (sec("restrictions.classify_restriction"), "s"),
        "restrictions.candidates_kept_ratio": (share(counters("candidates_kept", 0), counters("candidates_raw", 0)), "ratio"),
        "kernel_bundles.characterize_s": (sec("kernel_bundles.characterize"), "s"),
        "kernel_bundles.strong_unstability_s": (sec("kernel_bundles.strong_unstability"), "s"),
        "kernel_bundles.kernel_polarization_s": (sec("kernel_bundles.kernel_polarization"), "s"),
        "kernel_bundles.validate_pair_per_pair": (share(calls("kernel_bundles.validate_pair", 0), pairs), "count/op"),
        "kernels.simplest_between_calls": (calls("kernels.simplest_between", 0), "count"),
        "kernels.simplest_between_s": (sec("kernels.simplest_between"), "s"),
        "kernels.destabilizer_range_calls": (calls("kernels.destabilizer_range", 0), "count"),
        "kernels.destabilizer_range_s": (sec("kernels.destabilizer_range"), "s"),
        "oracles.generate_s": (sum(sec(f"oracles.{f}") for f in ("instance_stream", "pair_stream", "random_instance", "random_pair")), "s"),
        "oracles.necessary_equivalence_s": (sec("oracles.oracle_necessary_equivalence"), "s"),
        "oracles.destabilizer_enumeration_s": (sec("oracles.oracle_destabilizer_enumeration"), "s"),
        "oracles.filtered_destabilizers_s": (sec("oracles.oracle_filtered_destabilizers"), "s"),
        "oracles.simplest_rational_s": (sec("oracles.oracle_simplest_rational"), "s"),
    }
    layer_self = 0.0
    for layer, ns in tracer.self_ns.items():
        m[f"{layer}.self_s"] = (ns / 1e9, "s")
        layer_self += ns / 1e9
    m["harness.self_s"] = (wall_s - layer_self, "s")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.untraced_wall_s"] = (plain_s, "s")
    m["trace.overhead_s"] = (wall_s - plain_s, "s")
    m["trace.spans"] = (len(tracer.starts), "count")
    return m


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:16.6f} {unit}")


def run_one(args) -> int:
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    workdir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        if args.trace:
            workload, tally, metrics = traced(cls, args.seed, args.seconds, workdir, out_dir)
            named, detail = {}, {}
        else:
            workload, tally, metrics, named, detail = end_to_end(cls, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()
    env = environment(args.seed, workload.mods)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print_metrics("metrics:", {**metrics, **named})
    for reason in tally.reasons:
        print(f"failure: {reason}")
    detail.update(
        workload=args.workload,
        environment=env,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **named}.items()},
        failures=tally.reasons,
    )
    print("detail " + json.dumps(detail))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then every metric of every workload."""
    rows, correct, attempted, failed = {}, True, 0, 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail "):])
        last = json.loads(lines[-1])
        correct, attempted, failed = correct and last["correct"], attempted + last["attempted"], failed + last["failed"]
        rows[name] = detail["metrics"]
        print_metrics(f"{name} (attempted {last['attempted']}, failed {last['failed']}):", {k: (v["value"], v["unit"]) for k, v in detail["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": {f"{w}.{k}": v for w, m in rows.items() for k, v in m.items()}}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "batch", "selftest", "scale", "all"))
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_combstab()
    except ImportError as exc:
        print(f"error: cannot import combstab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
