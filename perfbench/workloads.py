"""The four workloads: what each runs, how one operation is called and checked.

A workload holds a fixed list of operations built from the seed.  The loop
in ``run.py`` times each call alone and checks its result afterwards, with
the longhand checks in ``checks.py``.  ``call`` returns a value that is
compared by equality when the same operation repeats, so only the first
result of each operation needs the longhand check.

Modules of combstab are passed in (``mods``) because set-up imports the
package afresh on each repetition; workloads look functions up on the
modules at call time, so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import checks
import inputs

SELFTEST_COUNT = 1000


def _cli(mods, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = mods["cli"].main(argv)
    return code, out.getvalue()


class Workload:
    name = ""
    whole_rounds = False  # stop only at the end of a pass over the ops
    warm_ops = 8

    def __init__(self, mods, seed: int, workdir: Path) -> None:
        self.mods = mods
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.ops: list[tuple] = []  # (kind, payload...) per operation
        self.documents: list[tuple[Path, str]] = []

    def warm_up(self) -> None:
        for op in self.ops[: self.warm_ops]:
            self.call(op)

    def ops_per_call(self, op) -> int:
        return 1

    def pairs_in(self, op) -> int:
        """Generated pairs one call handles (pair inputs are 6-tuples)."""
        return int(len(op[2]) == 6)

    def trace_pass(self) -> list[tuple]:
        """The operations of one traced pass: one full pass by default."""
        return self.ops

    def _document(self, name: str, doc: dict) -> str:
        """Serialize a document now; :meth:`write_documents` puts it on disk."""
        path = self.workdir / name
        self.documents.append((path, json.dumps(doc)))
        return str(path)

    def write_documents(self) -> None:
        for path, text in self.documents:
            path.write_text(text, encoding="utf-8")


class Corpus(Workload):
    """Small documents through analyze, region, polarize and kernel in-process."""

    name = "corpus"
    bundle_docs, pair_docs = 240, 120
    proc_samples = 16

    def build(self) -> None:
        ops = []
        for i, shape in enumerate(inputs.shapes(self.bundle_docs)):
            inst = inputs.draw_instance(self.rng, *shape)
            path = self._document(f"b{i}.json", inputs.bundle_document(*inst, with_eulers=i % 3 == 0))
            ops.append(("analyze", [path], inst))
            ops.append(("region", [path, "--strict"] if i % 2 else [path], inst))
            ops.append(("polarize", [path], inst))
        for i, shape in enumerate(inputs.shapes(self.pair_docs)):
            pair = inputs.draw_pair(self.rng, *shape)
            path = self._document(f"p{i}.json", inputs.pair_document(*pair))
            ops.append(("kernel", [path], pair))
            ops.append(("polarize", [path], pair))
        self.rng.shuffle(ops)
        self.ops = ops

    def call(self, op):
        kind, args, _ = op
        return _cli(self.mods, [kind, *args, "--json"])

    def check(self, op, result) -> None:
        kind, args, item = op
        code, out = result
        payload = json.loads(out)
        if kind == "analyze":
            checks.check_analyze(item, payload, code)
        elif kind == "region":
            checks.check_region_command(item, "--strict" in args, payload, code)
        elif kind == "polarize":
            checks.check_polarize_command(item, len(item) == 6, payload, code)
        else:
            checks.check_kernel_command(item, payload, code)

    def proc_ops(self) -> list[tuple]:
        """Subprocess sample: the first document of each command, cycled."""
        firsts = {}
        for op in self.ops:
            firsts.setdefault((op[0], len(op[1])), op)
        chosen = list(firsts.values())
        return [chosen[i % len(chosen)] for i in range(self.proc_samples)]


class Batch(Workload):
    """The library fast path on seeded instances and pairs: no documents, CLI or oracles."""

    name = "batch"
    instances, pairs = 2400, 1200

    def build(self) -> None:
        model, kb = self.mods["model"], self.mods["kernel_bundles"]
        ops = []
        for shape in inputs.shapes(self.instances):
            inst = inputs.draw_instance(self.rng, *shape)
            genera, rank, degrees, weights = inst
            objs = (model.CombCurve(genera), model.BundleData(rank, degrees), model.Polarization(weights))
            ops.append(("instance", objs, inst))
        for shape in inputs.shapes(self.pairs):
            pair = inputs.draw_pair(self.rng, *shape)
            genera, rank, sections, degrees, kernel_dims, flags = pair
            assumptions = kb.PairAssumptions(*flags)
            objs = (model.CombCurve(genera), kb.GeneratedPairData(rank, sections, degrees, kernel_dims, assumptions))
            ops.append(("pair", objs, pair))
        self.rng.shuffle(ops)
        self.ops = ops

    def call(self, op):
        kind, objs, _ = op
        if kind == "pair":
            curve, pair = objs
            kb = self.mods["kernel_bundles"]
            return (
                kb.kernel_data(curve, pair),
                kb.strong_unstability(curve, pair),
                kb.characterize(curve, pair),
                kb.kernel_polarization(curve, pair),
            )
        curve, bundle, w = objs
        pol, res = self.mods["polarization"], self.mods["restrictions"]
        verdict = pol.necessary_check(curve, bundle, w)
        classes = None
        if bundle.rank >= 2:
            classes = [res.classify_restriction(curve, bundle, w, j) for j in range(1, curve.num_components)]
        return (
            verdict,
            classes,
            pol.feasible_region(curve, bundle, strict=False),
            pol.feasible_region(curve, bundle, strict=True),
            pol.synthesize_polarization(curve, bundle),
        )

    def check(self, op, result) -> None:
        kind, _, item = op
        if kind == "pair":
            kernel, su, report, w = result
            chis, chi = checks.eulers(item[0], kernel.rank, kernel.multidegree)
            kernel_payload = {"rank": kernel.rank, "multidegree": list(kernel.multidegree), "component_eulers": chis, "euler": chi}
            checks.check_kernel_results(
                item,
                kernel_payload,
                {"verdict": su.verdict.value, "triggering_j": su.triggering_j},
                {
                    "verdict": report.verdict.value,
                    "triggering_j": report.triggering_j,
                    "missing_assumptions": list(report.missing_assumptions),
                    "polarization": _weights(report.polarization),
                },
            )
            checks.check_polarization(*checks.kernel_target(item), _weights(w))
            return
        genera, rank, degrees, weights = item
        verdict, classes, closed, strict, w = result
        necessary = {
            "overall_pass": verdict.overall_pass,
            "components": [
                {
                    "j": c.j,
                    "lower_ok": c.lower_ok,
                    "upper_ok": c.upper_ok,
                    "witness": None
                    if c.witness is None
                    else {
                        "label": c.witness.label,
                        "multirank": list(c.witness.multirank),
                        "euler": c.witness.euler,
                        "slope": str(c.witness_slope),
                    },
                }
                for c in verdict.components
            ],
        }
        checks.check_necessary(genera, rank, degrees, weights, necessary)
        classification = None
        if classes is not None:
            classification = [
                {"j": v.j, "case": v.case.value, "forced_destabilizers": [list(p) for p in v.forced_destabilizers]}
                for v in classes
            ]
        checks.check_classification(genera, rank, degrees, weights, classification)
        for region in (closed, strict):
            checks.check_region(genera, rank, degrees, region.strict, _region_payload(region))
        checks.check_synthesis(genera, rank, degrees, _weights(w))


def _weights(polarization):
    return None if polarization is None else [str(x) for x in polarization.weights]


def _region_payload(region) -> dict:
    return {
        "strict": region.strict,
        "feasible": region.feasible,
        "intervals": [
            {
                "j": j,
                "empty": iv.is_empty,
                "lo": None if iv.lo is None else str(iv.lo),
                "hi": None if iv.hi is None else str(iv.hi),
                "lo_open": iv.lo_open,
                "hi_open": iv.hi_open,
            }
            for j, iv in enumerate(region.intervals, start=1)
        ],
    }


class Selftest(Workload):
    """``combstab selftest --json`` with its default bounds, in-process.

    Selftest seeds come from a pinned pool whose per-check agreement counts
    are recorded in ``selftest_golden.json``; the benchmark seed orders them.
    """

    name = "selftest"
    golden_path = Path(__file__).with_name("selftest_golden.json")

    def build(self) -> None:
        pinned = json.loads(self.golden_path.read_text(encoding="utf-8"))
        if pinned["count"] != SELFTEST_COUNT:
            raise ValueError("selftest_golden.json was pinned for another count")
        self.golden = pinned["checks"]
        seeds = sorted(self.golden, key=int)
        self.rng.shuffle(seeds)
        self.ops = [("selftest", seed) for seed in seeds]

    def warm_up(self) -> None:
        _cli(self.mods, ["selftest", "--json", "--count", "20"])

    def call(self, op):
        return _cli(self.mods, ["selftest", "--json", "--seed", op[1], "--count", str(SELFTEST_COUNT)])

    def ops_per_call(self, op) -> int:
        return 2 * SELFTEST_COUNT  # each selftest instance comes with one generated pair

    def pairs_in(self, op) -> int:
        return SELFTEST_COUNT

    def check(self, op, result) -> None:
        code, out = result
        checks.check_selftest(json.loads(out), code, self.golden[op[1]])

    def trace_pass(self) -> list[tuple]:
        return self.ops[:1]


class Scale(Workload):
    """Large documents through the in-process CLI.

    analyze: N in the hundreds, random degrees, so most teeth fail and the
    quadratic witness and classification paths run.  polarize: the tight
    family with D beyond 64 bits and with 300 digits.  Any exception here,
    RuntimeError included, counts as a failed operation.

    Two known defects sit beyond the measured sizes.  The tight family
    raises RuntimeError at N=2000 after minutes (too slow to run here).  With
    300-digit D, synthesized weights pass Python's 4300-digit int-to-str
    limit from N=16 on, and ``polarize`` then dies with ValueError while
    rendering; :meth:`defect_probe` runs that case once per run and reports
    the outcome beside the metrics, outside the measured operations.
    """

    name = "scale"
    whole_rounds = True
    analyze_sizes = (150, 300)
    tight_sizes = ((80, 2**64), (120, 2**64), (12, 10**299))
    probe_size = (16, 10**299)

    def build(self) -> None:
        ops = []
        for num in self.analyze_sizes:
            inst = inputs.wide_instance(self.rng, num, 3)
            path = self._document(f"analyze{num}.json", inputs.bundle_document(*inst))
            ops.append(("analyze", [path], inst, f"analyze_n{num}"))
        for num, big in self.tight_sizes:
            bundle = inputs.tight_bundle(self.rng, num, big)
            path = self._document(f"tight{num}.json", inputs.bundle_document(*bundle))
            ops.append(("polarize", [path], bundle, f"polarize_n{num}_d{len(str(big))}"))
        self.ops = ops
        small = inputs.wide_instance(self.rng, 12, 3)
        tight = inputs.tight_bundle(self.rng, 10, 2**64)
        self.warm = [
            ("analyze", [self._document("warm_a.json", inputs.bundle_document(*small))], small, ""),
            ("polarize", [self._document("warm_p.json", inputs.bundle_document(*tight))], tight, ""),
        ]

    def warm_up(self) -> None:
        for op in self.warm:
            self.call(op)

    def call(self, op):
        return _cli(self.mods, [op[0], *op[1], "--json"])

    def defect_probe(self) -> str:
        num, big = self.probe_size
        bundle = inputs.tight_bundle(self.rng, num, big)
        path = self.workdir / "probe.json"
        path.write_text(json.dumps(inputs.bundle_document(*bundle)), encoding="utf-8")
        try:
            code, out = self.call(("polarize", [str(path)]))
            checks.check_polarize_command(bundle, False, json.loads(out), code)
        except Exception as exc:  # the probe reports whatever the defect raises
            return f"polarize N={num} D=10^{len(str(big)) - 1}: {type(exc).__name__}: {str(exc)[:80]}"
        return f"polarize N={num} D=10^{len(str(big)) - 1}: ok"

    def check(self, op, result) -> None:
        kind, _, item, _ = op
        code, out = result
        payload = json.loads(out)
        if kind == "analyze":
            checks.check_analyze(item, payload, code)
        else:
            checks.check_polarize_command(item, False, payload, code)


WORKLOADS = {w.name: w for w in (Corpus, Batch, Selftest, Scale)}
