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


def _require_mapping(obj: object, where: str) -> dict:
    if not isinstance(obj, dict):
        raise DocumentError(f"{where} must be a JSON object, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise DocumentError(f"unknown field(s) in {where}: {', '.join(unknown)}")


def _int_field(value: object, where: str, *args: object) -> int:
    try:
        return _check_int(value, where, *args)
    except TypeError as exc:
        raise DocumentError(str(exc)) from exc


def _int_list(value: object, where: str, expect_len: int | None = None) -> tuple:
    """The array's entries as a tuple; the record they go into type-checks each one."""
    if not isinstance(value, list):
        raise DocumentError(f"{where} must be an array of integers")
    if expect_len is not None and len(value) != expect_len:
        raise DocumentError(f"{where} has {len(value)} entries, expected {expect_len}")
    return tuple(value)


def _parse_curve(obj: object) -> CombCurve:
    mapping = _require_mapping(obj, "curve")
    _reject_unknown(mapping, {"genera"}, "curve")
    if "genera" not in mapping:
        raise DocumentError("curve.genera is required")
    raw = mapping["genera"]
    if isinstance(raw, list) and len(raw) > _MAX_COMPONENTS:
        raise DocumentError(f"curve.genera has {len(raw)} components, at most {_MAX_COMPONENTS}")
    genera = _int_list(raw, "curve.genera")
    try:
        return CombCurve(genera)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"invalid curve: {exc}") from exc


def _parse_bundle(obj: object, curve: CombCurve) -> BundleData:
    mapping = _require_mapping(obj, "bundle")
    _reject_unknown(mapping, {"rank", "multidegree", "component_eulers", "euler"}, "bundle")
    if "rank" not in mapping:
        raise DocumentError("bundle.rank is required")
    rank = _int_field(mapping["rank"], "bundle.rank")
    if rank > _MAX_RANK:
        raise DocumentError(f"bundle.rank is at most {_MAX_RANK}, got {rank}")
    num = curve.num_components
    degrees = None
    if "multidegree" in mapping:
        degrees = _int_list(mapping["multidegree"], "bundle.multidegree", num)
    eulers = None
    if "component_eulers" in mapping:
        eulers = _int_list(mapping["component_eulers"], "bundle.component_eulers", num)
        # No record holds the stated Euler numbers, so the reader checks them.
        for i, chi in enumerate(eulers):
            _int_field(chi, "bundle.component_eulers[{}]", i)
    if degrees is None and eulers is None:
        raise DocumentError("bundle needs multidegree or component_eulers")
    if degrees is None:
        # chi_j = d_j + rank*(1 - g_j) inverted; euler input is equivalent to degrees.
        degrees = tuple(chi - rank * (1 - g) for chi, g in zip(eulers, curve.genera))
    try:
        bundle = BundleData(rank=rank, multidegree=degrees)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"invalid bundle: {exc}") from exc
    if eulers is None and "euler" not in mapping:
        return bundle
    derived, total = component_eulers(curve, bundle), total_euler(curve, bundle)
    if eulers is not None and tuple(eulers) != derived:
        raise DocumentError(
            f"bundle.component_eulers {list(eulers)} disagree with the multidegree "
            f"(derived {list(derived)})"
        )
    if "euler" in mapping:
        stated = _int_field(mapping["euler"], "bundle.euler")
        if stated != total:
            raise DocumentError(
                f"bundle.euler = {stated} disagrees with the derived total {total}"
            )
    return bundle


_ASSUMPTION_KEYS = {"general_linear_series", "butler_conjecture", "components_general_in_moduli"}


def _parse_assumptions(obj: object) -> PairAssumptions:
    mapping = _require_mapping(obj, "pair.assumptions")
    _reject_unknown(mapping, _ASSUMPTION_KEYS, "pair.assumptions")
    values = {}
    for key, value in mapping.items():
        if not isinstance(value, bool):
            raise DocumentError(f"pair.assumptions.{key} must be a boolean")
        values[key] = value
    return PairAssumptions(**values)


def _parse_pair(obj: object, curve: CombCurve) -> GeneratedPairData:
    mapping = _require_mapping(obj, "pair")
    _reject_unknown(
        mapping, {"rank", "sections", "multidegree", "kernel_dims", "assumptions"}, "pair"
    )
    for required in ("rank", "sections", "multidegree", "kernel_dims"):
        if required not in mapping:
            raise DocumentError(f"pair.{required} is required")
    num = curve.num_components
    assumptions = (
        _parse_assumptions(mapping["assumptions"])
        if "assumptions" in mapping
        else PairAssumptions()
    )
    try:
        return GeneratedPairData(
            rank=mapping["rank"],
            sections=mapping["sections"],
            multidegree=_int_list(mapping["multidegree"], "pair.multidegree", num),
            kernel_dims=_int_list(mapping["kernel_dims"], "pair.kernel_dims", num),
            assumptions=assumptions,
        )
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"invalid pair: {exc}") from exc


def _parse_polarization(obj: object, curve: CombCurve) -> Polarization:
    mapping = _require_mapping(obj, "polarization")
    _reject_unknown(mapping, {"weights"}, "polarization")
    if "weights" not in mapping:
        raise DocumentError("polarization.weights is required")
    raw = mapping["weights"]
    if not isinstance(raw, list):
        raise DocumentError("polarization.weights must be an array of 'p/q' strings")
    if len(raw) != curve.num_components:
        raise DocumentError(
            f"polarization.weights has {len(raw)} entries, expected {curve.num_components}"
        )
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
    mapping = _require_mapping(obj, "document")
    _reject_unknown(mapping, {"curve", "bundle", "pair", "polarization"}, "document")
    if "curve" not in mapping:
        raise DocumentError("document.curve is required")
    curve = _parse_curve(mapping["curve"])
    bundle = _parse_bundle(mapping["bundle"], curve) if "bundle" in mapping else None
    pair = _parse_pair(mapping["pair"], curve) if "pair" in mapping else None
    polarization = (
        _parse_polarization(mapping["polarization"], curve)
        if "polarization" in mapping
        else None
    )
    return InstanceDocument(curve=curve, bundle=bundle, pair=pair, polarization=polarization)


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
