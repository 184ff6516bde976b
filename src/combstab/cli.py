"""Command-line front end.

Subcommands: analyze, region, polarize, kernel, validate, selftest.  Input
is a JSON instance document.  Each command builds one payload, the object
--json prints, and renders its text report from that payload alone, so the
text states no fact the JSON lacks.  Exit codes are uniform across commands:
0 for an affirmative verdict, 1 for a negative one (failed check, infeasible
region, strongly unstable kernel, selftest disagreement), 2 for any input
error or failed write of the report.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .documents import (
    DocumentError,
    InstanceDocument,
    _render_pair,
    load_document,
    render_document,
)
from .kernel_bundles import (
    GeneratedPairData,
    StrongUnstabilityKind,
    _characterize,
    _kernel_bundle,
    _restriction_witness,
    _strong_unstability,
    validate_pair,
)
from .model import (
    BundleData,
    CombCurve,
    Polarization,
    ToothWitness,
    component_eulers,
    format_rational,
    total_euler,
    validate_polarization,
)
from .oracles import run_selftest
from .polarization import ComponentCheck, IntervalQ, _necessary, _region, _synthesize, _tooth_sides
from .restrictions import RestrictionVerdict, _classify, _listing_length

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2

# analyze and kernel refuse a report that would enumerate or list more
# entries than this: the destabilizer candidates analyze's classification
# walks (a tooth far below its lower inequality, or tens of teeth at rank
# 1000) or lists, plus under --json the N multirank entries of each listed
# witness (a failing tooth's, or a tooth's with kernel and positive degree).
_MAX_LISTING = 10**7


class CliInputError(Exception):
    """User input problem that is not a document parse error, or a failed write."""


def _refuse_long_listing(
    args: argparse.Namespace, num_components: int, witnesses: int, walked: int = 0
) -> None:
    """Raise the input error of a report over ``_MAX_LISTING`` entries, before it is built.

    ``walked`` counts the candidates a classification walks or lists; under
    --json each of the ``witnesses`` lists its N-entry multirank.
    """
    listing = walked + (num_components * witnesses if args.json else 0)
    if listing > _MAX_LISTING:
        raise CliInputError(
            f"the report would enumerate or list {listing} entries, more than {_MAX_LISTING}"
        )


def _emit(args: argparse.Namespace, payload: dict, render) -> int:
    """Print the payload as JSON or as the lines ``render(payload)`` yields.

    A failed write (a closed pipe or stdout, a full disk) is an output error,
    raised as :class:`CliInputError` for ``main`` to report.  Only the write is
    guarded, so an ``OSError`` raised while rendering keeps its own traceback.
    """
    text = _json_text(payload) if args.json else "\n".join(render(payload))
    try:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError("standard output is closed")
        print(text, flush=True)  # raise here, not at interpreter exit
    except OSError as exc:  # BrokenPipeError included
        if sys.stdout is not None:
            # The buffer keeps the unwritten bytes and the interpreter flushes
            # stdout once more on the way out: let that flush go to devnull.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise CliInputError(f"cannot write the report: {exc}") from exc
    return payload["exit"]


def _json_text(value: object) -> str:
    """The bytes of ``json.dumps(value, indent=2)``, written without its encoder.

    With ``indent`` set the standard encoder runs in pure Python, one
    generator step per item.  Here a flat list of ints or of strings is one
    C-level join, and each report record is filled into one precomputed
    template per indent level: a :class:`ToothWitness` is written as its
    multirank list by repeating one line block, so no N-entry list is built;
    a :class:`ComponentCheck` as its ``j``, sides and witness object (label,
    multirank, euler, slope, or null); a :class:`RestrictionVerdict` as its
    ``j``, case value, forced destabilizer pairs and notes.  Accepts str-keyed
    dicts, lists, str, int, bool, None and Fraction, which is written as the
    quoted :func:`format_rational` string (exact types; subclasses of str
    and int are refused).
    """
    chunks: list[str] = []
    _encode(value, "\n", chunks.append)
    return "".join(chunks)


# Writers for the scalars, by exact type; bool indexes the pair.  A rational
# needs no escaping: it is digits, '-' and '/'.
_BOOLS = ("false", "true")
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: _BOOLS.__getitem__,
    type(None): lambda _: "null",
    Fraction: lambda q: '"' + format_rational(q) + '"',
}


@functools.cache
def _object_template(newline: str, *keys: str) -> str:
    """``%s`` template of a JSON object with these keys; ``newline`` ends in its indent."""
    inner = newline + "  "
    return "{" + ",".join(f"{inner}{_quote(key)}: %s" for key in keys) + newline + "}"


def _multirank_text(witness: ToothWitness, newline: str) -> str:
    item = "," + newline + "  "
    off = item + int.__repr__(witness.off_tooth)
    on = item + int.__repr__(witness.on_tooth)
    entries = off * (witness.j - 1) + on + off * (witness.num_components - witness.j)
    return "[" + entries[1:] + newline + "]"


def _check_text(check: ComponentCheck, newline: str) -> str:
    witness = check.witness
    if witness is None:
        witness_text = "null"
    else:
        inner = newline + "  "
        witness_text = _object_template(inner, "label", "multirank", "euler", "slope") % (
            _quote(witness.label),
            _multirank_text(witness, inner + "  "),
            witness.euler,
            _SCALARS[Fraction](check.witness_slope),
        )
    return _object_template(newline, "j", "lower_ok", "upper_ok", "witness") % (
        check.j,
        _BOOLS[check.lower_ok],
        _BOOLS[check.upper_ok],
        witness_text,
    )


@functools.cache
def _pair_template(newline: str) -> str:
    """``%d`` template of a two-int JSON list; ``newline`` ends in its indent."""
    inner = newline + "  "
    return "[" + inner + "%d," + inner + "%d" + newline + "]"


def _verdict_text(verdict: RestrictionVerdict, newline: str) -> str:
    forced = "[]"
    if verdict.forced_destabilizers:
        outer = newline + "  "
        inner = outer + "  "
        pair = _pair_template(inner)
        items = ("," + inner).join(pair % p for p in verdict.forced_destabilizers)
        forced = "[" + inner + items + outer + "]"
    return _object_template(newline, "j", "case", "forced_destabilizers", "notes") % (
        verdict.j,
        _quote(verdict.case.value),
        forced,
        _quote(verdict.notes),
    )


# Writers for the report records, by exact type.
_RECORDS = {
    ToothWitness: _multirank_text,
    ComponentCheck: _check_text,
    RestrictionVerdict: _verdict_text,
}


def _encode(value: object, newline: str, put) -> None:
    """Append the indented JSON of ``value`` to ``put``; ``newline`` ends in its indent."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        put(scalar(value))
    elif (record := _RECORDS.get(type(value))) is not None:
        put(record(value, newline))
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
            put(sep + _quote(key) + ": ")
            _encode(item, inner, put)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(value, list):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        kinds = {*map(type, value)}
        if len(kinds) == 1 and (scalar := _SCALARS.get(kinds.pop())) is not None:
            put("[" + inner + ("," + inner).join(map(scalar, value)) + newline + "]")
        else:
            sep = "[" + inner
            for item in value:
                put(sep)
                _encode(item, inner, put)
                sep = "," + inner
            put(newline + "]")
    else:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _bundle_payload(curve: CombCurve, bundle: BundleData, chi: int) -> dict:
    return {
        "rank": bundle.rank,
        "multidegree": list(bundle.multidegree),
        "component_eulers": list(component_eulers(curve, bundle)),
        "euler": chi,
    }


def _witness_payload(witness: ToothWitness | None) -> dict | None:
    if witness is None:
        return None
    # The record itself stands in the payload: _json_text writes it as its multirank.
    return {"label": witness.label, "multirank": witness, "euler": witness.euler}


def _bundle_line(bundle: dict, title: str = "bundle") -> str:
    return (
        f"{title}: rank {bundle['rank']}, multidegree {tuple(bundle['multidegree'])}, "
        f"component eulers {tuple(bundle['component_eulers'])}, total euler {bundle['euler']}"
    )


def _weights_text(weights: list[Fraction]) -> str:
    return "(" + ", ".join(map(format_rational, weights)) + ")"


def _require_bundle(doc: InstanceDocument) -> BundleData:
    if doc.bundle is None:
        raise CliInputError("this command needs a bundle section in the document")
    return doc.bundle


def _require_polarization(doc: InstanceDocument) -> Polarization:
    if doc.polarization is None:
        raise CliInputError("this command needs a polarization section in the document")
    violations = validate_polarization(doc.polarization)
    if violations:
        raise CliInputError("invalid polarization: " + "; ".join(violations))
    return doc.polarization


def _require_valid_pair(doc: InstanceDocument) -> GeneratedPairData:
    if doc.pair is None:
        raise CliInputError("this command needs a pair section in the document")
    violations = validate_pair(doc.curve, doc.pair)
    if violations:
        raise CliInputError("invalid pair: " + "; ".join(violations))
    return doc.pair


def cmd_analyze(args: argparse.Namespace) -> int:
    doc = load_document(args.file)
    curve = doc.curve
    bundle = _require_bundle(doc)
    w = _require_polarization(doc)
    bundle_payload = _bundle_payload(curve, bundle, total_euler(curve, bundle))
    chis, chi, n = bundle_payload["component_eulers"], bundle_payload["euler"], bundle.rank
    teeth = list(zip(w.weights, chis[:-1]))
    sides = [_tooth_sides(w_j, chi_j, chi, n) for w_j, chi_j in teeth]
    # Every failing tooth lists a witness; count them before any is built.
    failing = sum(not (lower_ok and upper_ok) for lower_ok, upper_ok in sides)
    _refuse_long_listing(args, curve.num_components, failing, _listing_length(n, chis, chi, w))
    # _require_polarization has checked that the weights sum to exactly 1.
    verdict = _necessary(n, chis, chi, w.weights, Fraction(1), sides)

    # The records themselves stand in the payload; _json_text writes them.
    classification = None
    if n >= 2:
        classification = [
            _classify(n, chi_j, chi, w_j, j) for j, (w_j, chi_j) in enumerate(teeth, start=1)
        ]
    payload = {
        "command": "analyze",
        "curve": {"genera": list(curve.genera)},
        "bundle": bundle_payload,
        "polarization": {"weights": list(w.weights)},
        "necessary": {
            "overall_pass": verdict.overall_pass,
            "components": list(verdict.components),
        },
        "classification": classification,
        "exit": EXIT_OK if verdict.overall_pass else EXIT_NEGATIVE,
    }
    return _emit(args, payload, _analyze_text)


def _analyze_text(payload: dict):
    genera = payload["curve"]["genera"]
    bundle = payload["bundle"]
    weights = payload["polarization"]["weights"]
    chis, chi, n = bundle["component_eulers"], bundle["euler"], bundle["rank"]
    # The components of a comb meet in a tree: the arithmetic genus is the sum.
    yield (
        f"curve: {len(genera)} components, genera {tuple(genera)}, "
        f"arithmetic genus {sum(genera)}"
    )
    yield _bundle_line(bundle)
    yield f"polarization: {_weights_text(weights)}"
    yield "necessary inequalities at the teeth (w_j*chi <= chi_j <= w_j*chi + n):"
    mu = format_rational(Fraction(chi, n))
    for check in payload["necessary"]["components"]:
        j = check.j
        w_j = weights[j - 1]
        # w_j*chi = top/q in lowest terms after one gcd; top/q + n = (top + n*q)/q
        # stays in lowest terms.
        top, q = w_j.numerator * chi, w_j.denominator
        g = gcd(top, q)
        top, q = top // g, q // g
        wchi, wchi_n = (str(top), str(top + n)) if q == 1 else (f"{top}/{q}", f"{top + n * q}/{q}")
        sides = (("lower", check.lower_ok), ("upper", check.upper_ok))
        failed = [f"{side} FAILED" for side, ok in sides if not ok]
        line = f"  j={j}: {wchi} <= {chis[j - 1]} <= {wchi_n} : {', '.join(failed) or 'ok'}"
        if check.witness is not None:
            slope_text = format_rational(check.witness_slope)
            line += f"; witness {check.witness.label} with slope {slope_text} > {mu} (= chi/n)"
        yield line
    yield "overall: " + ("PASS" if payload["necessary"]["overall_pass"] else "FAIL")

    if payload["classification"] is None:
        yield (
            "restriction classification: rank 1, restrictions are line bundles and "
            "semistable outright"
        )
        return
    yield "restriction classification (conditional on semistability of the whole bundle):"
    for verdict in payload["classification"]:
        line = f"  j={verdict.j}: {verdict.case.value}"
        if verdict.forced_destabilizers:
            forced = ", ".join(f"({k}, {c})" for k, c in verdict.forced_destabilizers)
            line += f"; admissible destabilizers (rank, euler): {forced}"
        if verdict.notes:
            line += f" [{verdict.notes}]"
        yield line


def cmd_region(args: argparse.Namespace) -> int:
    doc = load_document(args.file)
    bundle = _require_bundle(doc)
    echo = _bundle_payload(doc.curve, bundle, total_euler(doc.curve, bundle))
    region, _ = _region(echo["component_eulers"], echo["euler"], bundle.rank, args.strict)
    payload = {
        "command": "region",
        "bundle": echo,
        "strict": region.strict,
        "intervals": [
            {
                "j": j,
                "empty": iv.is_empty,
                "lo": iv.lo,
                "hi": iv.hi,
                "lo_open": iv.lo_open,
                "hi_open": iv.hi_open,
            }
            for j, iv in enumerate(region.intervals, start=1)
        ],
        "feasible": region.feasible,
        "exit": EXIT_OK if region.feasible else EXIT_NEGATIVE,
    }
    return _emit(args, payload, _region_text)


def _region_text(payload: dict):
    yield _bundle_line(payload["bundle"])
    for iv in payload["intervals"]:
        if iv["empty"]:
            yield f"  w_{iv['j']}: empty"
        else:
            interval = IntervalQ(iv["lo"], iv["hi"], iv["lo_open"], iv["hi_open"])
            yield f"  w_{iv['j']} in {interval.render()}"
    yield "feasible" if payload["feasible"] else "infeasible"


def cmd_polarize(args: argparse.Namespace) -> int:
    doc = load_document(args.file)
    # The target of the pair route is the pair's kernel bundle.
    if doc.bundle is not None:
        target, chi = doc.bundle, total_euler(doc.curve, doc.bundle)
    elif doc.pair is not None:
        target, chi = _kernel_bundle(doc.curve, _require_valid_pair(doc))
    else:
        raise CliInputError("polarize needs a bundle or a pair section")
    echo = _bundle_payload(doc.curve, target, chi)
    w = _synthesize(echo["component_eulers"], chi, target.rank)
    payload = {
        "command": "polarize",
        "target": echo,
        "weights": None if w is None else list(w.weights),
        "exit": EXIT_NEGATIVE if w is None else EXIT_OK,
    }
    return _emit(args, payload, _polarize_text)


def _polarize_text(payload: dict):
    yield _bundle_line(payload["target"], title="target bundle")
    if payload["weights"] is None:
        yield "no polarization: the strict feasibility region is empty"
    else:
        yield f"polarization: {_weights_text(payload['weights'])}"


def cmd_kernel(args: argparse.Namespace) -> int:
    doc = load_document(args.file)
    curve = doc.curve
    pair = _require_valid_pair(doc)
    restricted = [_restriction_witness(curve, pair, j) for j in range(1, curve.num_components + 1)]
    _refuse_long_listing(args, curve.num_components, sum(x is not None for x in restricted))
    su = _strong_unstability(curve, pair, restricted)
    m, chi = _kernel_bundle(curve, pair)
    echo = _bundle_payload(curve, m, chi)
    report = _characterize(pair, su, lambda: (echo["component_eulers"], chi, m.rank))
    # The StronglyUnstable and DivisibilityContradiction characterizations are exactly these.
    negative = su.verdict is StrongUnstabilityKind.STRONGLY_UNSTABLE
    payload = {
        "command": "kernel",
        "pair": _render_pair(pair),
        "kernel_bundle": echo,
        "restriction_witnesses": [
            {"j": j, "witness": _witness_payload(witness)}
            for j, witness in enumerate(restricted, start=1)
        ],
        "strong_unstability": {
            "verdict": su.verdict.value,
            "triggering_j": su.triggering_j,
            "reason": su.reason,
        },
        "characterization": {
            "verdict": report.verdict.value,
            "polarization": None
            if report.polarization is None
            else list(report.polarization.weights),
            "triggering_j": report.triggering_j,
            "missing_assumptions": list(report.missing_assumptions),
            "notes": list(report.notes),
        },
        "exit": EXIT_NEGATIVE if negative else EXIT_OK,
    }
    return _emit(args, payload, _kernel_text)


def _kernel_text(payload: dict):
    pair, kernel = payload["pair"], payload["kernel_bundle"]
    yield (
        f"pair: rank {pair['rank']}, sections {pair['sections']}, multidegree "
        f"{tuple(pair['multidegree'])}, kernel dims {tuple(pair['kernel_dims'])}"
    )
    yield _bundle_line(kernel, title="kernel bundle")
    yield "restriction witnesses:"
    for entry in payload["restriction_witnesses"]:
        j = entry["j"]
        k = pair["kernel_dims"][j - 1]
        if entry["witness"] is not None:
            mu = format_rational(Fraction(kernel["multidegree"][j - 1], kernel["rank"]))
            yield (
                f"  j={j}: trivial kernel subbundle of rank {k}, slope 0 > {mu} "
                f"(restricted kernel-bundle slope); restriction unstable"
            )
        elif k > 0:
            yield (
                f"  j={j}: none; kernel dimension {k} but degree 0, the slope "
                f"comparison degenerates (both slopes 0)"
            )
        else:
            yield f"  j={j}: none (kernel dimension 0)"
    su = payload["strong_unstability"]
    at = f" at j={su['triggering_j']}" if su["triggering_j"] is not None else ""
    yield f"strong unstability: {su['verdict']}{at} [{su['reason']}]"
    report = payload["characterization"]
    line = f"characterization: {report['verdict']}"
    if report["polarization"] is not None:
        line += f" with w = {_weights_text(report['polarization'])}"
    if report["triggering_j"] is not None:
        line += f" (j={report['triggering_j']})"
    yield line
    for note in report["notes"]:
        yield f"  note: {note}"


def cmd_validate(args: argparse.Namespace) -> int:
    doc = load_document(args.file)
    problems: list[str] = []
    if doc.polarization is not None:
        problems += [f"polarization: {v}" for v in validate_polarization(doc.polarization)]
    if doc.pair is not None:
        problems += [f"pair: {v}" for v in validate_pair(doc.curve, doc.pair)]
    payload = {
        "command": "validate",
        "document": render_document(doc),
        "violations": problems,
        "exit": EXIT_NEGATIVE if problems else EXIT_OK,
    }
    return _emit(args, payload, _validate_text)


def _validate_text(payload: dict):
    problems = payload["violations"]
    return ["violations:", *(f"  {p}" for p in problems)] if problems else ["ok"]


def cmd_selftest(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise CliInputError("--count must be nonnegative")
    report = run_selftest(args.seed, args.count)
    payload = {
        "command": "selftest",
        "seed": report.seed,
        "count": report.count,
        "checks": {
            name: {"run": stat.run, "agreed": stat.agreed}
            for name, stat in sorted(report.checks.items())
        },
        "total_run": report.total_run,
        "total_agreed": report.total_agreed,
        "first_failure": report.first_failure,
        "passed": report.passed,
        "exit": EXIT_OK if report.passed else EXIT_NEGATIVE,
    }
    return _emit(args, payload, _selftest_text)


def _selftest_text(payload: dict):
    seed, count = payload["seed"], payload["count"]
    yield f"selftest: seed {seed}, {count} instances"
    for name, stat in payload["checks"].items():
        yield f"  {name}: {stat['agreed']}/{stat['run']}"
    yield f"oracle agreements: {payload['total_agreed']}/{payload['total_run']}"
    if payload["first_failure"] is not None:
        yield f"first counterexample: {payload['first_failure']}"
        yield f"replay with: combstab selftest --seed {seed} --count {count}"
    yield "result: " + ("PASS" if payload["passed"] else "FAIL")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combstab",
        description=(
            "Exact-rational semistability calculator for vector bundles on comb-like "
            "nodal curves"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_file: bool = True) -> None:
        if with_file:
            p.add_argument("file", help="JSON instance document")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("analyze", help="necessary inequalities plus restriction classification")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("region", help="per-tooth weight intervals and feasibility")
    add_common(p)
    p.add_argument("--strict", action="store_true", help="open intervals (synthesis variant)")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("polarize", help="construct a polarization when one exists")
    add_common(p)
    p.set_defaults(func=cmd_polarize)

    p = sub.add_parser("kernel", help="kernel-bundle report for a generated pair")
    add_common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("validate", help="check a document against the schema and invariants")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("selftest", help="run the oracle cross-checks on seeded instances")
    add_common(p, with_file=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10_000)
    p.set_defaults(func=cmd_selftest)

    return parser


@contextlib.contextmanager
def _any_int_length():
    """Lift the interpreter's int/str digit limit, restoring it on the way out.

    Exact results (a synthesized weight, say) can outgrow the limit on
    inputs well inside it; the document reader bounds the inputs itself.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without the limit
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _any_int_length():
            return args.func(args)
    except (DocumentError, CliInputError) as exc:
        with contextlib.suppress(OSError):  # the error line is best effort
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
