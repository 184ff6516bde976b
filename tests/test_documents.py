import json

import pytest
from fractions import Fraction

from combstab import BundleData, CombCurve, Polarization, documents, kernel_bundles, model
from combstab.cli import main
from combstab.documents import (
    DocumentError,
    InstanceDocument,
    load_document,
    parse_document,
    render_document,
)

FULL_DOC = {
    "curve": {"genera": [2, 3]},
    "bundle": {"rank": 2, "multidegree": [4, 5]},
    "pair": {
        "rank": 1,
        "sections": 4,
        "multidegree": [4, 5],
        "kernel_dims": [1, 0],
        "assumptions": {"general_linear_series": True},
    },
    "polarization": {"weights": ["1/3", "2/3"]},
}


def test_parse_full_document():
    doc = parse_document(FULL_DOC)
    assert doc.curve == CombCurve((2, 3))
    assert doc.bundle == BundleData(2, (4, 5))
    assert doc.pair.sections == 4
    assert doc.pair.assumptions.general_linear_series is True
    assert doc.pair.assumptions.butler_conjecture is False
    assert doc.polarization.weights == (Fraction(1, 3), Fraction(2, 3))


def test_round_trip_object_level():
    doc = parse_document(FULL_DOC)
    assert parse_document(render_document(doc)) == doc


def test_round_trip_dict_level():
    doc = parse_document(FULL_DOC)
    rendered = render_document(doc)
    assert render_document(parse_document(rendered)) == rendered
    # and it survives an actual JSON encode/decode
    assert parse_document(json.loads(json.dumps(rendered))) == doc


def test_round_trip_minimal():
    doc = InstanceDocument(curve=CombCurve((0, 1)))
    assert parse_document(render_document(doc)) == doc


def test_weights_render_in_lowest_terms():
    doc = InstanceDocument(
        curve=CombCurve((2, 2)),
        polarization=Polarization((Fraction(2, 4), Fraction(3, 6))),
    )
    assert render_document(doc)["polarization"]["weights"] == ["1/2", "1/2"]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra=1),
        lambda d: d["curve"].update(nodes=[1]),
        lambda d: d["bundle"].update(degree=3),
        lambda d: d["pair"].update(h0=2),
        lambda d: d["pair"]["assumptions"].update(generic=True),
        lambda d: d["polarization"].update(sum="1"),
    ],
)
def test_unknown_fields_rejected(mutate):
    doc = json.loads(json.dumps(FULL_DOC))
    mutate(doc)
    with pytest.raises(DocumentError, match="unknown field"):
        parse_document(doc)


def test_missing_curve():
    with pytest.raises(DocumentError, match="curve"):
        parse_document({"bundle": {"rank": 1, "multidegree": [1, 1]}})


@pytest.mark.parametrize(
    "section, name",
    [
        ("curve", "genera"),
        ("bundle", "rank"),
        ("pair", "rank"),
        ("pair", "sections"),
        ("pair", "multidegree"),
        ("pair", "kernel_dims"),
        ("polarization", "weights"),
    ],
)
def test_missing_required_field(section, name):
    doc = json.loads(json.dumps(FULL_DOC))
    del doc[section][name]
    with pytest.raises(DocumentError) as exc:
        parse_document(doc)
    assert str(exc.value) == f"{section}.{name} is required"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda d: d["pair"]["assumptions"].update(general_linear_series=1),
            "pair.assumptions.general_linear_series must be a boolean",
        ),
        (lambda d: d["pair"].update(rank=0), "invalid pair: rank must be positive, got 0"),
    ],
    ids=["non-boolean-assumption", "pair-rank-zero"],
)
def test_refusal_is_one_error_line(mutate, message, tmp_path, capsys):
    doc = json.loads(json.dumps(FULL_DOC))
    mutate(doc)
    with pytest.raises(DocumentError) as exc:
        parse_document(doc)
    assert str(exc.value) == message
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_weight_count_mismatch():
    doc = json.loads(json.dumps(FULL_DOC))
    doc["polarization"]["weights"] = ["1/3", "1/3", "1/3"]
    with pytest.raises(DocumentError) as exc:
        parse_document(doc)
    assert str(exc.value) == "polarization.weights has 3 entries, expected 2"


def test_length_mismatch():
    doc = json.loads(json.dumps(FULL_DOC))
    doc["bundle"]["multidegree"] = [1, 2, 3]
    with pytest.raises(DocumentError, match="entries"):
        parse_document(doc)


# FULL_DOC with the bundle's Euler numbers stated too: every integer field once.
INTEGER_DOC = json.loads(json.dumps(FULL_DOC))
INTEGER_DOC["bundle"].update(component_eulers=[2, 1], euler=1)


@pytest.mark.parametrize(
    "bad", [1.0, True, "3", None, [1]], ids=["float", "bool", "string", "null", "array"]
)
@pytest.mark.parametrize(
    "field",
    [
        "curve.genera",
        "bundle.multidegree",
        "bundle.component_eulers",
        "pair.multidegree",
        "pair.kernel_dims",
        "bundle.rank",
        "bundle.euler",
        "pair.rank",
        "pair.sections",
    ],
)
def test_non_integers_rejected(field, bad, tmp_path, capsys):
    # A list field gets the bad value as its first entry, a scalar field as its value.
    doc = json.loads(json.dumps(INTEGER_DOC))
    section, name = field.split(".")
    if isinstance(doc[section][name], list):
        doc[section][name][0] = bad
    else:
        doc[section][name] = bad
    with pytest.raises(DocumentError, match="integer"):
        parse_document(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "integer" in line


# Each shape rule of the reader with its full message: (field path, value, message).
BOUNDARY_MESSAGES = {
    "document-list": ("", [1, 2], "document must be a JSON object, got list"),
    "curve-list": ("curve", [1, 2], "curve must be a JSON object, got list"),
    "bundle-list": ("bundle", [1, 2], "bundle must be a JSON object, got list"),
    "pair-list": ("pair", [1, 2], "pair must be a JSON object, got list"),
    "assumptions-list": ("pair.assumptions", [1, 2], "pair.assumptions must be a JSON object, got list"),
    "polarization-list": ("polarization", [1, 2], "polarization must be a JSON object, got list"),
    "document-unknown": ("extra", 1, "unknown field(s) in document: extra"),
    "curve-unknown": ("curve.nodes", 1, "unknown field(s) in curve: nodes"),
    "bundle-unknown": ("bundle.degree", 1, "unknown field(s) in bundle: degree"),
    "pair-unknown": ("pair.h0", 1, "unknown field(s) in pair: h0"),
    "assumptions-unknown": ("pair.assumptions.generic", 1, "unknown field(s) in pair.assumptions: generic"),
    "polarization-unknown": ("polarization.sum", 1, "unknown field(s) in polarization: sum"),
    "genera-int": ("curve.genera", 1, "curve.genera must be an array of integers"),
    "degrees-int": ("bundle.multidegree", 1, "bundle.multidegree must be an array of integers"),
    "eulers-int": ("bundle.component_eulers", 1, "bundle.component_eulers must be an array of integers"),
    "pair-degrees-int": ("pair.multidegree", 1, "pair.multidegree must be an array of integers"),
    "kernels-int": ("pair.kernel_dims", 1, "pair.kernel_dims must be an array of integers"),
    "weights-int": ("polarization.weights", 1, "polarization.weights must be an array of 'p/q' strings"),
    "genera-length": ("curve.genera", [2] * 100001, "curve.genera has 100001 components, at most 100000"),
    "degrees-length": ("bundle.multidegree", [4, 5, 6], "bundle.multidegree has 3 entries, expected 2"),
    "eulers-length": ("bundle.component_eulers", [2, 1, 0], "bundle.component_eulers has 3 entries, expected 2"),
    "pair-degrees-length": ("pair.multidegree", [4, 5, 6], "pair.multidegree has 3 entries, expected 2"),
    "kernels-length": ("pair.kernel_dims", [1, 0, 0], "pair.kernel_dims has 3 entries, expected 2"),
    "weights-length": ("polarization.weights", ["1/3"] * 3, "polarization.weights has 3 entries, expected 2"),
}


@pytest.mark.parametrize(
    "path, value, message", list(BOUNDARY_MESSAGES.values()), ids=list(BOUNDARY_MESSAGES)
)
def test_boundary_message_is_exact(path, value, message):
    doc = json.loads(json.dumps(INTEGER_DOC))
    if path:
        *parents, name = path.split(".")
        target = doc
        for key in parents:
            target = target[key]
        target[name] = value
    else:
        doc = value
    with pytest.raises(DocumentError) as exc:
        parse_document(doc)
    assert str(exc.value) == message


def test_float_eulers_that_agree_are_rejected():
    # 1.0 == 1, so only a type check on the stated Euler numbers refuses them.
    doc = {
        "curve": {"genera": [2, 2]},
        "bundle": {"rank": 2, "multidegree": [3, 3], "component_eulers": [1.0, 1], "euler": 0},
    }
    with pytest.raises(DocumentError, match="integer"):
        parse_document(doc)
    doc["bundle"]["component_eulers"] = [1, 1]
    assert parse_document(doc).bundle == BundleData(2, (3, 3))


def test_each_integer_is_type_checked_once(monkeypatch):
    # An N-component pair document carries 3N + 2 integers: the genera, the
    # degrees, the kernel dimensions, the rank and the section count.
    num = 1000
    doc = {
        "curve": {"genera": [2] * num},
        "pair": {"rank": 1, "sections": 4, "multidegree": [5] * num, "kernel_dims": [0] * num},
    }
    checked, active = [], []

    def counting(real):
        # Counts outermost checks only, so a checker that calls another counts once.
        def check(value, *args):
            if not active:
                checked.append(value)
            active.append(value)
            try:
                return real(value, *args)
            finally:
                active.pop()

        return check

    for module in (model, kernel_bundles, documents):
        for name in ("_check_int", "_int_field"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
    parse_document(doc)
    assert len(checked) == 3 * num + 2


def test_numeric_weights_rejected():
    doc = json.loads(json.dumps(FULL_DOC))
    doc["polarization"]["weights"] = [0.5, "1/2"]
    with pytest.raises(DocumentError, match="p/q"):
        parse_document(doc)


def test_decimal_weight_strings_rejected():
    doc = json.loads(json.dumps(FULL_DOC))
    doc["polarization"]["weights"] = ["0.5", "1/2"]
    with pytest.raises(DocumentError, match="exact"):
        parse_document(doc)


def test_component_eulers_cross_validated():
    good = {
        "curve": {"genera": [2, 2]},
        "bundle": {
            "rank": 2,
            "multidegree": [1, 1],
            "component_eulers": [-1, -1],
            "euler": -4,
        },
    }
    assert parse_document(good).bundle == BundleData(2, (1, 1))
    bad = json.loads(json.dumps(good))
    bad["bundle"]["component_eulers"] = [-1, 0]
    with pytest.raises(DocumentError, match="disagree"):
        parse_document(bad)
    bad_total = json.loads(json.dumps(good))
    bad_total["bundle"]["euler"] = -3
    with pytest.raises(DocumentError, match="disagree"):
        parse_document(bad_total)


def test_euler_only_input_derives_degrees():
    doc = {
        "curve": {"genera": [2, 2]},
        "bundle": {"rank": 2, "component_eulers": [-1, -1]},
    }
    assert parse_document(doc).bundle == BundleData(2, (1, 1))


def test_bundle_needs_some_degree_data():
    with pytest.raises(DocumentError, match="multidegree or component_eulers"):
        parse_document({"curve": {"genera": [2, 2]}, "bundle": {"rank": 2}})


def test_load_document(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(FULL_DOC), encoding="utf-8")
    assert load_document(path) == parse_document(FULL_DOC)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(DocumentError, match="malformed JSON"):
        load_document(bad)
    with pytest.raises(DocumentError, match="cannot read"):
        load_document(tmp_path / "missing.json")


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"curve": {"genera": [0, 0]}, "curve": {"genera": [2, 2]}}', "curve"),
        ('{"curve": {"genera": [0, 0], "genera": [2, 2]}}', "genera"),
        (
            '{"curve": {"genera": [2, 2]}, "bundle": {"rank": 2, "rank": 1, "multidegree": [3, 5]}}',
            "rank",
        ),
        (
            '{"curve": {"genera": [2, 2]}, "pair": {"rank": 1, "sections": 4, "multidegree": [4, 5],'
            ' "kernel_dims": [1, 0], "assumptions": {"butler_conjecture": true,'
            ' "butler_conjecture": false}}}',
            "butler_conjecture",
        ),
    ],
    ids=["top-level", "curve", "bundle", "assumptions"],
)
def test_repeated_field_rejected(tmp_path, text, field):
    # The decoder keeps the last value of a repeated key; the reader refuses it.
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DocumentError) as exc:
        load_document(path)
    assert str(exc.value) == f"repeated field(s): {field}"


def test_integer_digit_bound(tmp_path):
    path = tmp_path / "doc.json"
    for digits, ok in ((4300, True), (4301, False)):
        degree = "9" * digits
        path.write_text(
            f'{{"curve": {{"genera": [0, 0]}}, "bundle": {{"rank": 1, "multidegree": [-{degree}, 0]}}}}',
            encoding="utf-8",
        )
        if ok:
            assert load_document(path).bundle.multidegree[0] == -int(degree)
        else:
            with pytest.raises(DocumentError, match="more than 4300 digits"):
                load_document(path)
    path.write_text(
        json.dumps({"curve": {"genera": [0, 0]}, "polarization": {"weights": ["1/" + "9" * 4301, "1"]}}),
        encoding="utf-8",
    )
    with pytest.raises(DocumentError, match="more than 4300 digits"):
        load_document(path)
