"""Stable JSON instance format shared by the CLI and the test fixtures.

A document describes a curve plus any of: a bundle, a generated pair, a
polarization.  Rationals travel as exact lowest-terms "p/q" strings;
degrees and genera are plain integers.  Unknown and repeated fields are
rejected so that typos fail loudly instead of silently validating something
else.  Degrees are the canonical bundle input; euler characteristics may be
supplied as well (or instead) and are cross-validated against the degrees.
The reader checks the document's shape (fields, arrays, lengths), the
stated Euler numbers and the bounds; each record type-checks its own
integers and enforces its own rules, and its error becomes a DocumentError.
Integers in a document file, the numerator and denominator of each weight
included, have at most 4300 decimal digits, a curve has at most 100000
components and a bundle's rank is at most 1000.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

from .kernel_bundles import GeneratedPairData, PairAssumptions
from .model import (
    BundleData,
    CombCurve,
    Polarization,
    _check_int,
    component_eulers,
    format_rational,
    parse_rational,
    total_euler,
)

# CPython's default int/str conversion limit, stated here so that it holds
# whatever limit the interpreter runs with.
_MAX_DIGITS = 4300
# analyze lists forced destabilizers, a list that grows with rank**2.
_MAX_RANK = 1000
# Every command reads and writes per-component lists, and analyze's
# witnesses grow with the component count.
_MAX_COMPONENTS = 10**5


class DocumentError(ValueError):
    """Malformed instance document (CLI exit code 2)."""


def _check_digits(text: str, where: str) -> str:
    if len(text.strip().lstrip("+-")) > _MAX_DIGITS:
        raise DocumentError(f"{where} has more than {_MAX_DIGITS} digits")
    return text


@dataclass(frozen=True, slots=True)
class InstanceDocument:
    curve: CombCurve
    bundle: BundleData | None = None
    pair: GeneratedPairData | None = None
    polarization: Polarization | None = None


def _section(
    obj: object, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> dict:
    """The section as a JSON object: every ``required`` field, none beyond ``optional``."""
    if not isinstance(obj, dict):
        raise DocumentError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj).difference(required, optional))
    if unknown:
        raise DocumentError(f"unknown field(s) in {where}: {', '.join(unknown)}")
    for name in required:
        if name not in obj:
            raise DocumentError(f"{where}.{name} is required")
    return obj


def _record(where: str, make: type, **values: object):
    """``make(**values)``; the record's own type or rule error becomes a DocumentError."""
    try:
        return make(**values)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"invalid {where}: {exc}") from exc


def _int_field(value: object, where: str, *args: object) -> int:
    try:
        return _check_int(value, where, *args)
    except TypeError as exc:
        raise DocumentError(str(exc)) from exc


def _array(value: object, where: str, length: int | None = None, of: str = "integers") -> tuple:
    """The array's entries as a tuple; the record or reader that takes them checks each one."""
    if not isinstance(value, list):
        raise DocumentError(f"{where} must be an array of {of}")
    if length is not None and len(value) != length:
        raise DocumentError(f"{where} has {len(value)} entries, expected {length}")
    return tuple(value)


def _parse_curve(obj: object) -> CombCurve:
    raw = _section(obj, "curve", ("genera",))["genera"]
    if isinstance(raw, list) and len(raw) > _MAX_COMPONENTS:
        raise DocumentError(f"curve.genera has {len(raw)} components, at most {_MAX_COMPONENTS}")
    return _record("curve", CombCurve, genera=_array(raw, "curve.genera"))


def _parse_bundle(obj: object, curve: CombCurve) -> BundleData:
    mapping = _section(obj, "bundle", ("rank",), ("multidegree", "component_eulers", "euler"))
    rank = _int_field(mapping["rank"], "bundle.rank")
    if rank > _MAX_RANK:
        raise DocumentError(f"bundle.rank is at most {_MAX_RANK}, got {rank}")
    num = curve.num_components
    degrees = eulers = None
    if "multidegree" in mapping:
        degrees = _array(mapping["multidegree"], "bundle.multidegree", num)
    if "component_eulers" in mapping:
        eulers = _array(mapping["component_eulers"], "bundle.component_eulers", num)
        # No record holds the stated Euler numbers, so the reader checks them.
        for i, chi in enumerate(eulers):
            _int_field(chi, "bundle.component_eulers[{}]", i)
    if degrees is None and eulers is None:
        raise DocumentError("bundle needs multidegree or component_eulers")
    if degrees is None:
        # chi_j = d_j + rank*(1 - g_j) inverted; euler input is equivalent to degrees.
        degrees = tuple(chi - rank * (1 - g) for chi, g in zip(eulers, curve.genera))
    bundle = _record("bundle", BundleData, rank=rank, multidegree=degrees)
    if eulers is not None:
        derived = component_eulers(curve, bundle)
        if eulers != derived:
            raise DocumentError(
                f"bundle.component_eulers {list(eulers)} disagree with the multidegree "
                f"(derived {list(derived)})"
            )
    if "euler" in mapping:
        stated, total = _int_field(mapping["euler"], "bundle.euler"), total_euler(curve, bundle)
        if stated != total:
            raise DocumentError(
                f"bundle.euler = {stated} disagrees with the derived total {total}"
            )
    return bundle


def _parse_assumptions(obj: object) -> PairAssumptions:
    flags = ("general_linear_series", "butler_conjecture", "components_general_in_moduli")
    mapping = _section(obj, "pair.assumptions", (), flags)
    for key, value in mapping.items():
        if not isinstance(value, bool):
            raise DocumentError(f"pair.assumptions.{key} must be a boolean")
    return PairAssumptions(**mapping)


def _parse_pair(obj: object, curve: CombCurve) -> GeneratedPairData:
    mapping = _section(
        obj, "pair", ("rank", "sections", "multidegree", "kernel_dims"), ("assumptions",)
    )
    num = curve.num_components
    assumptions = _parse_assumptions(mapping.get("assumptions", {}))
    return _record(
        "pair",
        GeneratedPairData,
        rank=mapping["rank"],
        sections=mapping["sections"],
        multidegree=_array(mapping["multidegree"], "pair.multidegree", num),
        kernel_dims=_array(mapping["kernel_dims"], "pair.kernel_dims", num),
        assumptions=assumptions,
    )


def _parse_polarization(obj: object, curve: CombCurve) -> Polarization:
    raw = _section(obj, "polarization", ("weights",))["weights"]
    raw = _array(raw, "polarization.weights", curve.num_components, of="'p/q' strings")
    weights = []
    for i, item in enumerate(raw):
        where = f"polarization.weights[{i}]"
        if not isinstance(item, str):
            raise DocumentError(f"{where} must be an exact 'p/q' string, got {item!r}")
        for part in item.split("/"):
            _check_digits(part, where)
        try:
            weights.append(parse_rational(item))
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
    return Polarization(tuple(weights))


def parse_document(obj: object) -> InstanceDocument:
    """Parse a decoded JSON object into an instance document (strict)."""
    mapping = _section(obj, "document", ("curve",), ("bundle", "pair", "polarization"))
    curve = _parse_curve(mapping["curve"])
    return InstanceDocument(
        curve=curve,
        bundle=_parse_bundle(mapping["bundle"], curve) if "bundle" in mapping else None,
        pair=_parse_pair(mapping["pair"], curve) if "pair" in mapping else None,
        polarization=(
            _parse_polarization(mapping["polarization"], curve)
            if "polarization" in mapping
            else None
        ),
    )


def render_document(doc: InstanceDocument) -> dict:
    """Canonical JSON form: degrees as integers, rationals as 'p/q' strings."""
    out: dict = {"curve": {"genera": list(doc.curve.genera)}}
    if doc.bundle is not None:
        out["bundle"] = {
            "rank": doc.bundle.rank,
            "multidegree": list(doc.bundle.multidegree),
        }
    if doc.pair is not None:
        out["pair"] = _render_pair(doc.pair)
    if doc.polarization is not None:
        out["polarization"] = {
            "weights": [format_rational(w) for w in doc.polarization.weights]
        }
    return out


def _render_pair(pair: GeneratedPairData) -> dict:
    return {
        "rank": pair.rank,
        "sections": pair.sections,
        "multidegree": list(pair.multidegree),
        "kernel_dims": list(pair.kernel_dims),
        "assumptions": asdict(pair.assumptions),
    }


def _parse_int(text: str) -> int:
    return int(_check_digits(text, "integer"))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object; a key stated twice is an error, not a silent overwrite."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = sorted(key for key, count in counts.items() if count > 1)
        raise DocumentError(f"repeated field(s): {', '.join(repeated)}")
    return obj


def load_document(path: str | Path) -> InstanceDocument:
    """Read and parse a UTF-8 JSON instance document from disk."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(text, parse_int=_parse_int, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"JSON in {path} is nested too deeply") from exc
    return parse_document(obj)
