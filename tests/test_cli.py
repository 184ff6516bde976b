import contextlib
import copy
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from combstab import cli, documents, kernel_bundles, model, polarization, restrictions
from combstab.cli import _any_int_length, main
from combstab.documents import DocumentError, InstanceDocument, load_document, render_document
from combstab.model import ToothWitness, format_rational
from combstab.oracles import instance_stream, pair_stream
from combstab.polarization import ComponentCheck, necessary_check
from combstab.restrictions import RestrictionVerdict, classify_restriction

SRC = Path(__file__).resolve().parents[1] / "src"

I1 = {
    "curve": {"genera": [2, 2]},
    "bundle": {"rank": 2, "multidegree": [1, 1]},
    "polarization": {"weights": ["1/3", "2/3"]},
}
I1_FAIL = {
    "curve": {"genera": [2, 2]},
    "bundle": {"rank": 2, "multidegree": [5, 1]},
    "polarization": {"weights": ["1/2", "1/2"]},
}
KERNEL_SU = {
    "curve": {"genera": [2, 3]},
    "pair": {"rank": 1, "sections": 4, "multidegree": [4, 5], "kernel_dims": [1, 0]},
}
KERNEL_GAP = {
    "curve": {"genera": [2, 3]},
    "pair": {"rank": 1, "sections": 4, "multidegree": [2, 5], "kernel_dims": [1, 0]},
}
KERNEL_OK = {
    "curve": {"genera": [2, 2, 2]},
    "pair": {
        "rank": 1,
        "sections": 3,
        "multidegree": [3, 3, 3],
        "kernel_dims": [0, 0, 0],
        "assumptions": {"general_linear_series": True},
    },
}
# Tooth 1 has a nonzero kernel but degree 0: the slope comparison degenerates.
KERNEL_DEGENERATE = {
    "curve": {"genera": [2, 3]},
    "pair": {"rank": 1, "sections": 4, "multidegree": [0, 5], "kernel_dims": [1, 0]},
}
# Only the spine has a nonzero kernel, which a spine kernel cannot do alone.
KERNEL_SPINE_ONLY = {
    "curve": {"genera": [2, 2]},
    "pair": {"rank": 1, "sections": 3, "multidegree": [4, 4], "kernel_dims": [0, 1]},
}
VIOLATIONS = {"curve": {"genera": [2, 2]}, "polarization": {"weights": ["1/2", "1/3"]}}


@pytest.fixture
def write_doc(tmp_path):
    def _write(doc, name="doc.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The input each report echoes for its text header: the bundle, the target
# bundle, the pair.
_ECHOES = {"region": "bundle", "polarize": "target", "kernel": "pair"}


def _digest_without_echo(out):
    """sha256 of a --json report re-dumped without its echoed input."""
    payload = json.loads(out)
    payload.pop(_ECHOES.get(payload["command"]), None)
    return hashlib.sha256((json.dumps(payload, indent=2) + "\n").encode()).hexdigest()


# Half integers, which often leave the document valid, half other JSON values.
_MUTANTS = st.one_of(
    st.one_of(st.integers(-3, 3), st.sampled_from([10**30, -1])),
    st.one_of(
        st.just(True),
        st.just(None),
        st.sampled_from(["", "x", "1/2", "+1/2", "1/0", [], {}]),
        st.floats(),
    ),
)


def _paths(node, prefix=()):
    """(key path, value) for every node of a decoded JSON tree, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,), child
        yield from _paths(child, prefix + (key,))


@st.composite
def fuzzed_documents(draw):
    """Arbitrary bytes (1 in 4), or a valid bundle or pair document with 1-3 values replaced."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=200))
    doc = copy.deepcopy(draw(st.sampled_from([I1, I1_FAIL, KERNEL_SU, KERNEL_GAP, KERNEL_OK])))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_paths(doc))
        leaves = [path for path, value in nodes if not isinstance(value, (dict, list))]
        # Half the time a scalar, which keeps more of the documents valid. Earlier
        # replacements by [] or {} can leave no scalar at all.
        paths = st.sampled_from([path for path, _ in nodes])
        path = draw(st.sampled_from(leaves) | paths if leaves else paths)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(_MUTANTS)
    return json.dumps(doc).encode("utf-8")


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def _wide_document(num):
    """Rank 3, genera 0..3, degrees -20..20 and weights over one denominator, seeded by N."""
    rng = random.Random(num)
    doc = {
        "curve": {"genera": [rng.randint(0, 3) for _ in range(num)]},
        "bundle": {"rank": 3, "multidegree": [rng.randint(-20, 20) for _ in range(num)]},
    }
    den = rng.randint(num, 8 * num)
    cuts = sorted(rng.sample(range(1, den), num - 1))
    doc["polarization"] = {
        "weights": [str(Fraction(b - a, den)) for a, b in zip([0, *cuts], [*cuts, den])]
    }
    return doc


class _RecordingStdout(io.StringIO):
    """An in-memory stdout, with no file descriptor, that records each write's length.

    Its ``fail_at``-th write raises ``error`` instead of writing.
    """

    def __init__(self, fail_at=None, error=OSError):
        super().__init__()
        self.sizes = []
        self.fail_at, self.error = fail_at, error

    def write(self, text):
        self.sizes.append(len(text))
        if len(self.sizes) == self.fail_at:
            raise self.error("injected write failure")
        return super().write(text)


class TestAnalyze:
    def test_pass_with_forced_destabilizer(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "analyze", write_doc(I1))
        assert code == 0
        assert "overall: PASS" in out
        assert "PossiblyUnstable" in out
        assert "(1, 0)" in out

    def test_failure_names_witness(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "analyze", write_doc(I1_FAIL))
        assert code == 1
        assert "overall: FAIL" in out
        assert "E_1(-p_1)" in out

    def test_missing_polarization_is_input_error(self, capsys, write_doc):
        doc = {"curve": I1["curve"], "bundle": I1["bundle"]}
        code, _, err = run_cli(capsys, "analyze", write_doc(doc))
        assert code == 2
        assert err == "error: this command needs a polarization section in the document\n"

    def test_invalid_polarization_is_input_error(self, capsys, write_doc):
        doc = {**I1, "polarization": {"weights": ["1/2", "1/3"]}}
        code, _, err = run_cli(capsys, "analyze", write_doc(doc))
        assert code == 2
        assert "sum" in err

    def test_polarization_flag_is_refused(self, capsys, write_doc):
        # The weights come from the document alone; the flag is a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["analyze", write_doc(I1), "--polarization", "1/3,2/3"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --polarization 1/3,2/3" in captured.err

    def test_rank_one_note(self, capsys, write_doc):
        doc = {
            "curve": {"genera": [2, 2]},
            "bundle": {"rank": 1, "multidegree": [3, 3]},
            "polarization": {"weights": ["1/2", "1/2"]},
        }
        code, out, _ = run_cli(capsys, "analyze", write_doc(doc))
        assert code == 0
        assert "rank 1" in out

    def test_json_payload(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "analyze", write_doc(I1), "--json")
        payload = json.loads(out)
        assert payload["exit"] == code == 0
        assert payload["necessary"]["overall_pass"] is True
        assert payload["classification"][0]["forced_destabilizers"] == [[1, 0]]

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "malformed" in err

    @pytest.mark.parametrize(
        "as_json, digest",
        [
            (False, "35c9890aa32c0a4a9f7a5e3ba2df72e65253938295bfe48b193fb103bd69e30a"),
            (True, "744e2181c8abebd63fee976f03abb5625ff118b51bfc69c8e3b2a0e48ec1c4ac"),
        ],
    )
    def test_wide_document_output_is_pinned(self, capsys, write_doc, as_json, digest):
        # N = 60, rank 3, random degrees: 57 teeth fail and most restrictions
        # list destabilizers.  Both renderings must stay byte for byte.
        argv = ["analyze", write_doc(_wide_document(60))] + (["--json"] if as_json else [])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_large_json_output_is_pinned(self, capsys, write_doc):
        # N = 300, rank 3, random degrees: most teeth fail, and the JSON
        # carries the witness and classification records of every tooth.
        code, out, _ = run_cli(capsys, "analyze", write_doc(_wide_document(300)), "--json")
        assert code == 1
        digest = "614be3cf9eeab25d13b28dae4a97f4f323a0d0abd8b34053ea7bddcfbc301bae"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_report_is_written_as_it_is_rendered(self, write_doc):
        # N = 1000: a 14.5 MB report, of which no write holds more than 1/100.
        stdout = _RecordingStdout()
        with contextlib.redirect_stdout(stdout):
            code = main(["analyze", write_doc(_wide_document(1000)), "--json"])
        out = stdout.getvalue()
        assert code == 1
        assert max(stdout.sizes) <= len(out) // 100
        digest = "5335f1ec28423bd4ab2a156c945a2407fa368604df36389c4f1989ecd2eed73c"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRegion:
    def test_closed_and_strict(self, capsys, write_doc):
        path = write_doc(I1)
        code, out, _ = run_cli(capsys, "region", path)
        assert code == 0
        assert "w_1 in [1/4, 3/4]" in out
        assert "feasible" in out
        code, out, _ = run_cli(capsys, "region", path, "--strict")
        assert code == 0
        assert "w_1 in (1/4, 3/4)" in out

    def test_infeasible_exits_one(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "region", write_doc(I1_FAIL))
        assert code == 1
        assert "empty" in out
        assert "infeasible" in out


class TestPolarize:
    def test_bundle_route(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "polarize", write_doc(I1), "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["weights"] == ["1/2", "1/2"]

    def test_pair_route(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "polarize", write_doc(KERNEL_OK), "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["weights"] == ["1/3", "1/3", "1/3"]

    def test_spine_only_kernel_is_input_error(self, capsys, write_doc):
        code, _, err = run_cli(capsys, "polarize", write_doc(KERNEL_SPINE_ONLY))
        assert code == 2
        assert "spine" in err

    def test_infeasible(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "polarize", write_doc(I1_FAIL))
        assert code == 1
        assert "no polarization" in out

    def test_needs_bundle_or_pair(self, capsys, write_doc):
        code, _, err = run_cli(capsys, "polarize", write_doc({"curve": {"genera": [2, 2]}}))
        assert code == 2
        assert "bundle or a pair" in err

    @pytest.mark.parametrize(
        "num, big, text_digest, rest_digest, json_digest",
        [
            (120, 2**64,
             "aa2827871e02d21e9b181ac902075d3c265dc3c0992590ce092504726e0e07c5",
             "66543d3213a239d9416f5317777fc64b92f9dca6d3f3aa2ce3ed03fc1bc7b557",
             "669d32d0b98fc38a9a57e60f8359101ebd7b2ddc00f378d53a95971665a80662"),
            (12, 10**299,
             "6a4ca0a3942428b9267f37d150022c8bbcf3848350488b172ac4d0e9a1156313",
             "10519841bd4b200761c9af6ba2d501d8214b9c71990b49bcf166adabb0f1a0b3",
             "a3761cca32921c0482d698f0f219c35029900133e1ed5dbc3e28a34d0ce172c4"),
        ],
        ids=["n120-d20", "n12-d300"],
    )
    def test_repicked_output_is_pinned(
        self, capsys, write_doc, num, big, text_digest, rest_digest, json_digest
    ):
        # The first picks overshoot the simplex, so every tooth is picked
        # again in its share of the slack.
        path = write_doc(_tight_document(num, big))
        for extra, digest in (([], text_digest), (["--json"], json_digest)):
            code, out, err = run_cli(capsys, "polarize", path, *extra)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert _digest_without_echo(out) == rest_digest


class TestKernel:
    def test_strongly_unstable_exits_one(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "kernel", write_doc(KERNEL_SU))
        assert code == 1
        assert "StronglyUnstable" in out
        assert "r_1 = 2" in out

    def test_gap_case_exits_zero(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "kernel", write_doc(KERNEL_GAP))
        assert code == 0
        assert "NotDetermined" in out

    def test_constructive_polarization(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "kernel", write_doc(KERNEL_OK))
        assert code == 0
        assert "ExistsSemistablePolarization" in out
        assert "(1/3, 1/3, 1/3)" in out

    def test_json_payload(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "kernel", write_doc(KERNEL_SU), "--json")
        payload = json.loads(out)
        assert payload["exit"] == code == 1
        assert payload["strong_unstability"]["verdict"] == "StronglyUnstable"
        assert payload["strong_unstability"]["triggering_j"] == 1
        assert payload["kernel_bundle"]["component_eulers"] == [-7, -11]

    def test_invalid_pair_is_input_error(self, capsys, write_doc):
        doc = {
            "curve": {"genera": [2, 2]},
            "pair": {"rank": 1, "sections": 3, "multidegree": [1, 3], "kernel_dims": [0, 0]},
        }
        code, _, err = run_cli(capsys, "kernel", write_doc(doc))
        assert code == 2
        assert "d_1 = 1" in err

    def test_inconsistent_spine_kernel_is_input_error(self, capsys, write_doc):
        doc = {
            "curve": {"genera": [2, 2]},
            "pair": {"rank": 1, "sections": 3, "multidegree": [3, 3], "kernel_dims": [0, 1]},
        }
        code, _, err = run_cli(capsys, "kernel", write_doc(doc))
        assert code == 2
        assert "spine" in err


@pytest.mark.parametrize(
    "command, extra", [("polarize", []), ("polarize", ["--json"]), ("kernel", []), ("kernel", ["--json"])]
)
def test_pair_validations_per_command(capsys, write_doc, monkeypatch, command, extra):
    # The CLI validates the pair once and then calls only the unvalidated cores.
    calls = []
    real = kernel_bundles.validate_pair

    def counting(curve, pair):
        calls.append(pair)
        return real(curve, pair)

    monkeypatch.setattr(kernel_bundles, "validate_pair", counting)
    monkeypatch.setattr(cli, "validate_pair", counting)
    code, _, _ = run_cli(capsys, command, write_doc(KERNEL_OK), *extra)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_kernel_walks_the_teeth_once(capsys, write_doc, monkeypatch, extra):
    # The characterization reuses the strong-unstability verdict the report prints.
    calls = []
    real = kernel_bundles._strong_unstability

    def counting(curve, pair, witnesses):
        calls.append(pair)
        return real(curve, pair, witnesses)

    monkeypatch.setattr(kernel_bundles, "_strong_unstability", counting)
    monkeypatch.setattr(cli, "_strong_unstability", counting)
    code, _, _ = run_cli(capsys, "kernel", write_doc(KERNEL_SU), *extra)
    assert code == 1
    assert len(calls) == 1


def _count_calls(monkeypatch, *names):
    """Calls of each named helper, counted through every module binding that name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        for module in (cli, documents, kernel_bundles, model, polarization, restrictions):
            real = module.__dict__.get(name)
            if real is not None:

                def counting(*args, _real=real, _name=name, **kwargs):
                    counts[_name] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
    return counts


def _sparse_failures_document(num):
    """Rank 2, genus 1, chi = N + 1, tooth weights 1/(2N): tooth 1 fails below, tooth 2 above."""
    return {
        "curve": {"genera": [1] * num},
        "bundle": {"rank": 2, "multidegree": [0, 3] + [1] * (num - 3) + [2 * num - 1]},
        "polarization": {"weights": [f"1/{2 * num}"] * (num - 1) + [f"{num + 1}/{2 * num}"]},
    }


def _tight_document(num, big):
    """The tight family: genera 0, rank 1, tooth degrees near -big, spine degree N - 3."""
    rng = random.Random(num)
    degrees = [-big - rng.randint(0, 999) for _ in range(num - 1)] + [num - 3]
    return {"curve": {"genera": [0] * num}, "bundle": {"rank": 1, "multidegree": degrees}}


def _kernel_document(kernel_dims, flag):
    """Rank 1, 4 sections, genus 2: degree 5 without a kernel, d_j = m - r_j = 2 with one."""
    pair = {"rank": 1, "sections": 4, "multidegree": [5 - 3 * min(k, 1) for k in kernel_dims]}
    pair.update(kernel_dims=kernel_dims, assumptions={"general_linear_series": flag})
    return {"curve": {"genera": [2] * len(kernel_dims)}, "pair": pair}


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_analyze_derives_each_number_once(capsys, write_doc, monkeypatch, extra):
    # chi_j, chi and the weight sum once, each tooth's sides once, and as many
    # length checks whatever N is.
    names = ("component_eulers", "total_euler", "_exact_sum", "_tooth_sides", "_check_lengths")
    length_checks = []
    for num in (7, 2000):
        with monkeypatch.context() as patch:
            counts = _count_calls(patch, *names)
            code, out, _ = run_cli(capsys, "analyze", write_doc(_sparse_failures_document(num)), *extra)
        assert code == 1
        assert "lower FAILED" in out or '"lower_ok": false' in out
        length_checks.append(counts.pop("_check_lengths"))
        assert counts == {"component_eulers": 1, "total_euler": 1, "_exact_sum": 1, "_tooth_sides": num - 1}
    assert length_checks[0] == length_checks[1]


@pytest.mark.parametrize("extra", [[], ["--json"]])
@pytest.mark.parametrize("command", [["region"], ["region", "--strict"], ["polarize"]])
def test_bundle_numbers_are_derived_once(capsys, write_doc, monkeypatch, command, extra):
    counts = _count_calls(monkeypatch, "component_eulers", "total_euler")
    code, _, _ = run_cli(capsys, *command, write_doc(_sparse_failures_document(2000)), *extra)
    assert code == 1
    assert counts == {"component_eulers": 1, "total_euler": 1}


def test_tight_family_polarize_sums_twice(capsys, write_doc, monkeypatch):
    # One N-term sum for the slack and one for the reported total: the bound
    # decides the re-pick without summing the first picks.
    counts = _count_calls(monkeypatch, "_exact_sum")
    code, _, _ = run_cli(capsys, "polarize", write_doc(_tight_document(2000, 2**64)), "--json")
    assert code == 0
    assert counts == {"_exact_sum": 2}


@pytest.mark.parametrize(
    "command, doc, witnesses",
    [
        # No kernel and the rank-1 flag: characterize synthesizes on the kernel bundle.
        ("kernel", _kernel_document([0] * 2000, True), 2000),
        # Every third tooth has a kernel, each in the gap case: the walk reaches the last tooth.
        ("kernel", _kernel_document([int(j % 3 == 0) for j in range(1999)] + [0], False), 2000),
        ("polarize", _kernel_document([0] * 2000, True), 0),
    ],
    ids=["kernel-free", "kernel-gap", "polarize-pair"],
)
def test_pair_kernel_bundle_is_built_once(capsys, write_doc, monkeypatch, command, doc, witnesses):
    # The kernel bundle and its chi_j(M) and chi(M) once: the echo, the
    # defining-sequence check and the synthesis share one derivation.
    names = ("_kernel_bundle", "_restriction_witness", "component_eulers", "total_euler")
    counts = _count_calls(monkeypatch, *names)
    code, _, _ = run_cli(capsys, command, write_doc(doc))
    assert code == 0
    assert counts == {
        "_kernel_bundle": 1,
        "_restriction_witness": witnesses,
        "component_eulers": 1,
        "total_euler": 1,
    }


class TestValidate:
    def test_ok(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "validate", write_doc(I1))
        assert code == 0
        assert "ok" in out

    def test_violations_exit_one(self, capsys, write_doc):
        doc = {
            "curve": {"genera": [2, 2]},
            "polarization": {"weights": ["1/2", "1/3"]},
        }
        code, out, _ = run_cli(capsys, "validate", write_doc(doc))
        assert code == 1
        assert "sum" in out

    def test_spine_only_kernel_is_a_violation(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "validate", write_doc(KERNEL_SPINE_ONLY))
        assert code == 1
        assert "nonzero kernel on the spine" in out

    def test_schema_error_exits_two(self, capsys, write_doc):
        code, _, err = run_cli(capsys, "validate", write_doc({"curve": {"genera": [2, 2]}, "x": 1}))
        assert code == 2
        assert "unknown" in err


_PINNED = [
    ("region", I1, 0,
     "2bb2e005ea51cb7e3d0741f1374411351b67e3c472ffd1a9eb04569bee4b5cc2",
     "a84046ba96128f8ad94caab31077db4467440a2d519748c1be7747be76258d3a",
     "9e03ad23662a5802a87e5391b62f0ddd2ed77b63950ef5979c1ccc25aa2b1b3e"),
    ("region --strict", I1, 0,
     "4e64402e65bce4bbe8600bb41c685342a1532a9298c461640701168a9388b9aa",
     "8f5dc53181d7605ba4c8211f95c56b70d38a25ac2c4d448743a1c875a0d24734",
     "e27f33103cc66ddae611e335856e15f22d1af79a6841a35f2c450c13b14fad81"),
    ("region", I1_FAIL, 1,
     "5e54a2a71e61afc06f6fa46ed3a6f1da55215adb522f3afc2dc021bf9d9f142a",
     "3b88d96adb6e1cf245e805d31ed26ab8bab148628bd12026de2455acfd531159",
     "225de06d5657a996ac5fe763e1a77c9811952dba6e15b884ba69f12133675510"),
    ("polarize", I1, 0,
     "3fa625ebbdec237bc681d08b3737a85a14ae59decb9c4139d80c9c3b1dd38cb2",
     "d0a566cdaacfe7247000395c2ddf787167ceda97a8a0b834f75afaddf88c169c",
     "cc254fd3472507275295b0c4df0a86fb61e30c4c96d42f9ae7592f3255296bef"),
    ("polarize", KERNEL_OK, 0,
     "8eed564d1161087478d84bc4dabeea226c46b1ccc0e8b76f1e4c46bd23b57947",
     "0676daa75da06e9b4d7a93d7cc4b7d100083aff3ec0a99f5b7142bee11feda26",
     "8b106d5c21455a6d8911731cf0311ed5e87eaf3b2ab6161c6a38c2c77e3729a6"),
    ("polarize", I1_FAIL, 1,
     "8e20b1c5e68627c12f684d482eb5673ca80cba929bf1787833152549f0d27d2e",
     "d841240290d826111e6e41cd3b14531f5825834e1356c37c3661a9cec92effb7",
     "08a40726783c3cd982aca24af01048fbc10d17fe3a795daac848f428e1c70b34"),
    ("kernel", KERNEL_SU, 1,
     "7fd1d1688c1bed26d7d33f4dc093614cf4a91a384b15f4b5fb8c17655e575df1",
     "e411c157ee060d8c6da3bfe0f9a32bac620284102dbaf6e410acc7ba5e42c6d1",
     "a28cca7e98689e8c389ce1f4a36a1822199f7c1b0b445effa9f12a81584b489a"),
    ("kernel", KERNEL_GAP, 0,
     "80ee4c31421a63391a083dbc489d6c87a8f1dec128fac37d10606e8e308d1b27",
     "510edc9b06ca1216cfc60ad2bfd0b0f19b747a6878243ed1188e3c358ef68cc9",
     "fc07812061d2651012ea97c293494b24e6206919552c8d5855cbb8360d9a7a23"),
    ("kernel", KERNEL_OK, 0,
     "1ba8dc8d1bedea7816ebfb4da87db251b912ebb9bb1e65361d215c0ce5fb0170",
     "ebc625230876629f8013ec93652ffcb45884df087fa70b86498285556db69cd6",
     "492dd8dbc20e740751d742e69e3bcf6a8165ec20a3fcb3b71fd031238192e73a"),
    ("kernel", KERNEL_DEGENERATE, 0,
     "80e75c70f849ae89baf776700ded06ffdae698604d1948ffdcc38efe4a75e7c2",
     "697257f263950943e245e21db2771073025cc285a211f756f8f290ba2b3ae2cb",
     "1f14b42f4777277c70300d2db2ef2ea4329ecb11107cdee8d618b94f883e2761"),
    ("validate", I1, 0,
     "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
     "d052059d2408ccbc7de62a8d8e7ebc1cb95586fa8a666b98aaa6427f5d50dd04",
     "d052059d2408ccbc7de62a8d8e7ebc1cb95586fa8a666b98aaa6427f5d50dd04"),
    ("validate", VIOLATIONS, 1,
     "3dfbc881b6aa772a00859dd0c3f397ce73ccf2cd9541680782f0c8e02ee613ef",
     "bfeda56e8c314a21aa0e229d3b57faf8cf8754f7cdcedf6c27e932d46d025b66",
     "bfeda56e8c314a21aa0e229d3b57faf8cf8754f7cdcedf6c27e932d46d025b66"),
]


@pytest.mark.parametrize(
    "command, doc, code, text_digest, rest_digest, json_digest",
    _PINNED,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(_PINNED)],
)
def test_small_document_output_is_pinned(
    capsys, write_doc, command, doc, code, text_digest, rest_digest, json_digest
):
    # Text and --json stdout of every command besides analyze, byte for byte,
    # and the JSON once more with its echoed input removed.
    name, *flags = command.split()
    path = write_doc(doc)
    for extra, digest in (([], text_digest), (["--json"], json_digest)):
        got, out, err = run_cli(capsys, name, path, *flags, *extra)
        assert (got, err) == (code, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert _digest_without_echo(out) == rest_digest


def _bundle_header(bundle, title):
    return (
        f"{title}: rank {bundle['rank']}, multidegree {tuple(bundle['multidegree'])}, "
        f"component eulers {tuple(bundle['component_eulers'])}, total euler {bundle['euler']}"
    )


_ECHOING = [(i, case) for i, case in enumerate(_PINNED) if case[0].split()[0] in _ECHOES]


@pytest.mark.parametrize(
    "command, doc", [case[:2] for _, case in _ECHOING], ids=[f"{c[0]}-{i}" for i, c in _ECHOING]
)
def test_text_header_is_the_json_echo(capsys, write_doc, command, doc):
    # The header lines of the text are built from the report's own echo, and
    # the echo holds what analyze, kernel and validate report for the document.
    name, *flags = command.split()
    path = write_doc(doc)
    _, text, _ = run_cli(capsys, name, path, *flags)
    _, out, _ = run_cli(capsys, name, path, *flags, "--json")
    payload = json.loads(out)
    if name == "kernel":
        pair = payload["pair"]
        header = [
            f"pair: rank {pair['rank']}, sections {pair['sections']}, multidegree "
            f"{tuple(pair['multidegree'])}, kernel dims {tuple(pair['kernel_dims'])}",
            _bundle_header(payload["kernel_bundle"], "kernel bundle"),
        ]
        _, validated, _ = run_cli(capsys, "validate", path, "--json")
        assert pair == json.loads(validated)["document"]["pair"]
    else:
        echo = payload[_ECHOES[name]]
        header = [_bundle_header(echo, "bundle" if name == "region" else "target bundle")]
        source, field = ("analyze", "bundle") if "bundle" in doc else ("kernel", "kernel_bundle")
        _, reported, _ = run_cli(capsys, source, path, "--json")
        assert echo == json.loads(reported)[field]
    assert text.splitlines()[: len(header)] == header


def test_emit_passes_the_payload_alone():
    # No var-positional inputs beside the payload.
    assert list(inspect.signature(cli._emit).parameters) == ["args", "payload", "render"]


@pytest.mark.parametrize("command", ["analyze", "region", "polarize", "kernel", "validate", "selftest"])
def test_renderer_reads_the_payload_alone(command):
    # One parameter, the payload, and no Euler number derived a second time.
    render = getattr(cli, f"_{command}_text")
    assert list(inspect.signature(render).parameters) == ["payload"]
    derived = {"_bundle_payload", "component_eulers", "total_euler"}
    assert not derived & set(render.__code__.co_names)


def _stream_documents():
    bundles = instance_stream(5, 50)
    pairs = pair_stream(6, 50)
    yield from (InstanceDocument(curve, bundle=b, polarization=w) for curve, b, w in bundles)
    yield from (InstanceDocument(curve, pair=pair) for curve, pair in pairs)


@pytest.mark.parametrize(
    "command", ["analyze", "region", "region --strict", "polarize", "kernel", "validate"]
)
def test_text_and_json_runs_agree_on_the_exit_code(capsys, tmp_path, command):
    # The exit code is the payload's, whichever rendering is printed; an input
    # error (a bundle document given to kernel, say) prints no payload at all.
    name, *flags = command.split()
    path = tmp_path / "doc.json"
    for doc in _stream_documents():
        path.write_text(json.dumps(render_document(doc)), encoding="utf-8")
        text_code, text_out, _ = run_cli(capsys, name, str(path), *flags)
        json_code, json_out, _ = run_cli(capsys, name, str(path), *flags, "--json")
        assert text_code == json_code
        if json_code == 2:
            assert text_out == json_out == ""
        else:
            assert json.loads(json_out)["exit"] == json_code


class TestInputBoundary:
    @pytest.mark.parametrize(
        "raw",
        [
            b'{"curve": {"genera": [0, 0]}, "bundle": {"rank": 1, "multidegree": [1'
            + b"0" * 5000
            + b', 0]}}',
            b'{"curve": {"genera": [\xff\xfe]}}',
            b"[" * 100_000 + b"]" * 100_000,
        ],
        ids=["5000-digit-integer", "not-utf8", "nested-100k"],
    )
    def test_unreadable_document_exits_two(self, capsys, tmp_path, raw):
        path = tmp_path / "doc.json"
        path.write_bytes(raw)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_repeated_field_is_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(
            '{"curve": {"genera": [0, 0]}, "curve": {"genera": [2, 2]},'
            ' "bundle": {"rank": 2, "rank": 1, "multidegree": [3, 5]}}',
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "validate", str(path), "--json")
        assert (code, out) == (2, "")
        assert err == "error: repeated field(s): rank\n"

    def test_polarize_renders_weights_past_the_digit_limit(self, capsys, write_doc):
        # Tight family: genera 0, rank 1, tooth degrees near -D, spine degree N-3.
        num, big = 16, 10**299
        degrees = [-big - j * j for j in range(num - 1)] + [num - 3]
        doc = {"curve": {"genera": [0] * num}, "bundle": {"rank": 1, "multidegree": degrees}}
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "polarize", write_doc(doc), "--json")
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        payload = json.loads(out)
        assert max(len(part) for x in payload["weights"] for part in x.split("/")) > 4300
        sys.set_int_max_str_digits(0)
        try:
            weights = [Fraction(x) for x in payload["weights"]]
        finally:
            sys.set_int_max_str_digits(limit)
        assert sum(weights) == 1
        assert all(0 < x < 1 for x in weights)

    def test_bundle_rank_is_bounded(self, capsys, write_doc):
        doc = {"curve": {"genera": [0, 0, 0]}, "bundle": {"rank": 1000, "multidegree": [0, 0, 0]}}
        assert run_cli(capsys, "validate", write_doc(doc))[0] == 0
        doc["bundle"]["rank"] = 1001
        doc["polarization"] = {"weights": ["1/3", "1/3", "1/3"]}
        code, out, err = run_cli(capsys, "analyze", write_doc(doc))
        assert code == 2
        assert out == ""
        assert "bundle.rank" in err

    def test_classification_walk_is_bounded(self, capsys, write_doc):
        # chi_1 = 8 is not a multiple of 3 and lies about 3*10^29 below the
        # non-integral w_1*chi: every other rank-2 candidate would be listed.
        doc = {
            "curve": {"genera": [0, 0]},
            "bundle": {"rank": 3, "multidegree": [5, 10**30]},
            "polarization": {"weights": ["2/7", "5/7"]},
        }
        code, out, err = run_cli(capsys, "analyze", write_doc(doc))
        assert code == 2
        assert out == ""
        assert "more than 10000000" in err

    def test_component_count_is_bounded(self, capsys, write_doc):
        doc = {"curve": {"genera": [0] * 100_000}}
        assert run_cli(capsys, "validate", write_doc(doc))[0] == 0
        doc["curve"]["genera"].append(0)
        code, out, err = run_cli(capsys, "validate", write_doc(doc))
        assert code == 2
        assert out == ""
        assert "curve.genera has 100001 components, at most 100000" in err

    def test_analyze_listing_is_bounded(self, capsys, write_doc):
        # Rank 1, equal weights, every tooth fails its upper side: under
        # --json each of the 3162 witnesses lists 3163 multirank entries,
        # 10001406 in all, just above the bound of 10^7.
        num = 3163
        doc = {
            "curve": {"genera": [0] * num},
            "bundle": {"rank": 1, "multidegree": [10] * (num - 1) + [0]},
            "polarization": {"weights": [f"1/{num}"] * num},
        }
        path = write_doc(doc)
        code, out, err = run_cli(capsys, "analyze", path, "--json")
        assert code == 2
        assert out == ""
        assert "would enumerate or list 10001406 entries, more than 10000000" in err
        # The text report lists no multirank, so it stays under the bound.
        code, out, _ = run_cli(capsys, "analyze", path)
        assert code == 1
        assert out.count("upper FAILED") == num - 1

    # Rank 1, sections 2: every tooth but the spine has a one-dimensional
    # kernel and degree 2, so under --json each of the 3162 trivial kernel
    # parts lists 3163 multirank entries, 10001406 in all.
    LISTING_TEETH = 3163
    LISTING_PAIR = {
        "curve": {"genera": [2] * LISTING_TEETH},
        "pair": {
            "rank": 1,
            "sections": 2,
            "multidegree": [2] * (LISTING_TEETH - 1) + [0],
            "kernel_dims": [1] * (LISTING_TEETH - 1) + [0],
        },
    }

    def test_kernel_listing_is_bounded(self, capsys, write_doc):
        num = self.LISTING_TEETH
        path = write_doc(self.LISTING_PAIR)
        code, out, err = run_cli(capsys, "kernel", path, "--json")
        assert code == 2
        assert out == ""
        assert "would enumerate or list 10001406 entries, more than 10000000" in err
        # The text report lists no multirank, so it stays under the bound.
        code, out, _ = run_cli(capsys, "kernel", path)
        assert code in (0, 1)
        assert out.count("trivial kernel subbundle of rank 1") == num - 1

    @pytest.mark.parametrize("command", ["analyze", "kernel"])
    def test_maximum_document_json_is_refused_before_output(self, capsys, write_doc, command):
        # 100000 components, the document limit; about one second each.
        # analyze: rank 1, equal weights, every tooth fails its upper side.
        # kernel: every third component has a kernel and positive degree.
        num = 100_000
        doc = {"curve": {"genera": [2] * num}}
        if command == "analyze":
            doc["bundle"] = {"rank": 1, "multidegree": [10] * (num - 1) + [0]}
            doc["polarization"] = {"weights": [f"1/{num}"] * num}
        else:
            doc["pair"] = {
                "rank": 2,
                "sections": 5,
                "multidegree": [5 + j % 7 for j in range(num)],
                "kernel_dims": [int(j % 3 == 0) for j in range(num)],
            }
        code, out, err = run_cli(capsys, command, write_doc(doc), "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: the report would enumerate or list ")
        assert err.rstrip().endswith("entries, more than 10000000")

    def test_maximum_analyze_json_is_refused_before_the_check(self, capsys, write_doc, monkeypatch):
        # The failing teeth are counted before the check's core builds a witness.
        def not_reached(*args):
            raise AssertionError("the necessary check ran before the listing bound")

        monkeypatch.setattr(cli, "_necessary", not_reached)
        num = 100_000
        doc = {
            "curve": {"genera": [2] * num},
            "bundle": {"rank": 1, "multidegree": [10] * (num - 1) + [0]},
            "polarization": {"weights": [f"1/{num}"] * num},
        }
        code, out, err = run_cli(capsys, "analyze", write_doc(doc), "--json")
        assert code == 2
        assert out == ""
        assert "would enumerate or list 9999900000 entries, more than 10000000" in err

    def test_kernel_json_is_refused_before_the_kernel_bundle(self, capsys, write_doc, monkeypatch):
        # The witnesses are counted before any kernel-bundle derivation runs.
        def not_reached(*args):
            raise AssertionError("a kernel-bundle derivation ran before the listing bound")

        for name in ("_kernel_bundle", "_strong_unstability", "_characterize"):
            monkeypatch.setattr(cli, name, not_reached)
        code, out, err = run_cli(capsys, "kernel", write_doc(self.LISTING_PAIR), "--json")
        assert code == 2
        assert out == ""
        assert "would enumerate or list 10001406 entries, more than 10000000" in err

    @settings(max_examples=200, deadline=None)
    @given(raw=fuzzed_documents(), as_json=st.booleans())
    def test_exit_code_contract_on_arbitrary_input(self, fuzz_path, raw, as_json):
        fuzz_path.write_bytes(raw)
        try:
            load_document(fuzz_path)
            rejected = False
        except DocumentError:
            rejected = True
        for command in ("analyze", "region", "polarize", "kernel", "validate"):
            argv = [command, str(fuzz_path)] + (["--json"] if as_json else [])
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2)
            if rejected:
                assert code == 2

    def test_digit_limit_restored_on_every_exit(self, capsys, write_doc, tmp_path):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            bad = tmp_path / "bad.json"
            bad.write_text("{", encoding="utf-8")
            assert run_cli(capsys, "validate", str(bad))[0] == 2
            assert sys.get_int_max_str_digits() == 5000
            assert run_cli(capsys, "polarize", write_doc(I1))[0] == 0
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(saved)


def _combstab_process(*argv: str, stdout, stderr=subprocess.PIPE) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "combstab", *argv],
        stdout=stdout,
        stderr=stderr,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


class TestOutputErrors:
    # A failed write is an output error: exit 2 and one stderr line, never
    # exit 1 (a negative verdict) with a traceback.

    def test_reader_closing_early_exits_two(self, write_doc):
        # About 2 MB of text: far more than a pipe holds, so the writer is
        # still writing when the reader goes away.
        num = 30_000
        doc = {
            "curve": {"genera": [2] * num},
            "pair": {
                "rank": 1,
                "sections": 4,
                "multidegree": [5] * num,
                "kernel_dims": [int(j % 3 == 0 and j < num - 1) for j in range(num)],
            },
        }
        proc = _combstab_process("kernel", write_doc(doc), stdout=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"pair: rank 1, sections 4")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_device_exits_two(self, write_doc):
        with open("/dev/full", "wb") as full:
            proc = _combstab_process("region", write_doc(I1), stdout=full)
            err = proc.stderr.read().decode()
            assert proc.wait() == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["validate", "DOC"], ["selftest", "--count", "5"]])
    def test_closed_stdout_exits_two(self, write_doc, argv):
        # fd 1 closed before the interpreter starts: sys.stdout is None.
        argv = [write_doc(I1) if arg == "DOC" else arg for arg in argv]
        proc = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "combstab", *argv],
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2
        assert proc.stderr == b"error: cannot write the report: standard output is closed\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_unwritable_stderr_still_exits_two(self, tmp_path, write_doc):
        # The error line is best effort: a stderr that cannot take it keeps exit 2.
        with open("/dev/full", "wb") as full:
            missing = _combstab_process(
                "analyze", str(tmp_path / "missing.json"), stdout=subprocess.PIPE, stderr=full
            )
            assert missing.stdout.read() == b""
            assert missing.wait() == 2
            both = _combstab_process("validate", write_doc(I1), stdout=full, stderr=full)
            assert both.wait() == 2

    def test_render_errors_are_not_relabelled(self, capsys, write_doc, monkeypatch):
        def broken(payload):
            raise OSError("raised while rendering")

        monkeypatch.setattr(cli, "_region_text", broken)
        with pytest.raises(OSError, match="raised while rendering"):
            main(["region", write_doc(I1)])

    def test_render_errors_after_a_line_are_not_relabelled(self, capsys, write_doc, monkeypatch):
        # The first line is written before the renderer fails.
        first = "first line"

        def broken(payload):
            yield first
            raise OSError("raised while rendering")

        monkeypatch.setattr(cli, "_region_text", broken)
        with pytest.raises(OSError, match="raised while rendering"):
            main(["region", write_doc(I1)])
        assert capsys.readouterr().out == first + "\n"

    @pytest.mark.parametrize("error", [BrokenPipeError, OSError])
    def test_stdout_without_a_descriptor_exits_two(self, capsys, write_doc, error):
        # No descriptor to point at devnull: the output error is reported all the same.
        with contextlib.redirect_stdout(_RecordingStdout(fail_at=1, error=error)):
            code = main(["region", write_doc(I1)])
        assert code == 2
        assert capsys.readouterr().err == "error: cannot write the report: injected write failure\n"

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_write_failing_mid_report_exits_two(self, capsys, write_doc, extra):
        # N = 1000: the report takes more than three writes, and the third fails.
        stdout = _RecordingStdout(fail_at=3)
        with contextlib.redirect_stdout(stdout):
            code = main(["analyze", write_doc(_wide_document(1000)), *extra])
        assert code == 2
        assert len(stdout.sizes) == 3 and stdout.getvalue()
        assert capsys.readouterr().err == "error: cannot write the report: injected write failure\n"


class TestSelftest:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--count", "40", "--seed", "3")
        assert code == 0
        assert "result: PASS" in out

    def test_zero_count_vacuous(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--count", "0")
        assert code == 0
        assert "oracle agreements: 0/0" in out

    def test_negative_count_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--count", "-1")
        assert (code, out) == (2, "")
        assert "--count must be nonnegative" in err

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--count", "25", "--seed", "3", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["passed"] is True
        assert payload["total_run"] == payload["total_agreed"] > 0

    def test_builder_is_the_json_payload(self, capsys):
        # selftest is a pure builder behind the one runner, like the document commands.
        _, out, _ = run_cli(capsys, "selftest", "--json", "--seed", "3", "--count", "25")
        assert cli.selftest_report(3, 25) == json.loads(out)

    def test_builder_refuses_a_negative_count(self):
        with pytest.raises(cli.CliInputError, match="^--count must be nonnegative$"):
            cli.selftest_report(count=-1)

    @pytest.mark.parametrize(
        "extra, digest",
        [
            ([], "e3a606e346b3da5861cf7d9d1de27d8dde4086f40f4ea5a44e94d8a55f506e37"),
            (["--json"], "ef227d242e3e0b1e2e1e12fc2e11b99f068ca43dac404a07256049e77427d55b"),
        ],
    )
    def test_output_is_pinned(self, capsys, extra, digest):
        # 400 instances reach every check; both renderings stay byte for byte.
        code, out, err = run_cli(capsys, "selftest", "--count", "400", "--seed", "7", *extra)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


_STRINGS = st.text(st.characters(exclude_categories=[])) | st.sampled_from(
    ["", "\x00\x1f\"\\/", "\u00e9\u20ac\U0001f600", "\ud800", "\x7f\n\t"]
)
# Some past 4300 digits: the renderer runs under the CLI's lifted limit.
_INTS = st.integers() | st.builds(
    lambda k, sign: sign * (10**k + 7), st.integers(4300, 5000), st.sampled_from([1, -1])
)
_JSON = st.recursive(
    st.none() | st.booleans() | _INTS | _STRINGS | st.fractions(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=30,
)


def _dense(value):
    """The value with every record written out longhand and every Fraction as "p/q"."""
    if type(value) is Fraction:
        return format_rational(value)
    if isinstance(value, ToothWitness):
        num, j = value.num_components, value.j
        return [value.on_tooth if i == j else value.off_tooth for i in range(1, num + 1)]
    if isinstance(value, ComponentCheck):
        witness = value.witness
        if witness is not None:
            witness = {
                "label": witness.label,
                "multirank": _dense(witness),
                "euler": witness.euler,
                "slope": format_rational(value.witness_slope),
            }
        return {"j": value.j, "lower_ok": value.lower_ok, "upper_ok": value.upper_ok, "witness": witness}
    if isinstance(value, RestrictionVerdict):
        return {
            "j": value.j,
            "case": value.case.value,
            "forced_destabilizers": [list(pair) for pair in value.forced_destabilizers],
            "notes": value.notes,
        }
    if isinstance(value, dict):
        return {key: _dense(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_dense(item) for item in value]
    return value


def _json_text(value):
    """The text ``cli._encode`` writes for ``value``, as one string."""
    chunks = []
    cli._encode(value, "\n", chunks.append)
    return "".join(chunks)


class TestJsonRenderer:
    @settings(max_examples=300, deadline=None)
    @given(value=_JSON)
    def test_equals_the_standard_encoder(self, value):
        with _any_int_length():
            assert _json_text(value) == json.dumps(_dense(value), indent=2)

    @pytest.mark.parametrize("num", [2, 3, 7])
    @pytest.mark.parametrize("on, off", [(3, 0), (0, 3), (5, 0)])
    def test_tooth_supported_multiranks(self, num, on, off):
        # j = 1 and j = N - 1 are the first and last tooth, j = N the spine
        # (a kernel witness); at N = 2 the first tooth is also the last.
        for j in sorted({1, num - 1, num}):
            witness = ToothWitness("w", j, num, on, off, -1)
            for value in (witness, {"a": [{"multirank": witness}, 1]}, [[witness], witness]):
                assert _json_text(value) == json.dumps(_dense(value), indent=2)

    @settings(max_examples=100, deadline=None)
    @given(value=_JSON, num=st.integers(2, 40), data=st.data())
    def test_witnesses_inside_arbitrary_values(self, value, num, data):
        j = data.draw(st.integers(1, num))
        on, off = data.draw(st.sampled_from([(2, 0), (0, 2), (1, 0)]))
        wrapped = {"x": value, "witness": {"multirank": ToothWitness("w", j, num, on, off, 0)}}
        with _any_int_length():
            assert _json_text(wrapped) == json.dumps(_dense(wrapped), indent=2)

    def test_report_records_at_any_depth(self):
        # Checks with and without witnesses, verdicts with and without
        # forced destabilizers, each alone, in a list and deep in a dict.
        records = []
        for curve, bundle, w in instance_stream(11, 60):
            records += necessary_check(curve, bundle, w).components
            if bundle.rank >= 2:
                records += [
                    classify_restriction(curve, bundle, w, j) for j in range(1, curve.num_components)
                ]
        shapes = {
            (type(r), bool(r.witness if type(r) is ComponentCheck else r.forced_destabilizers))
            for r in records
        }
        assert len(shapes) == 4
        for record in records:
            for value in (record, [record, 1], {"a": [{"b": record}], "c": [record]}):
                assert _json_text(value) == json.dumps(_dense(value), indent=2)

    def test_refuses_what_json_cannot_hold(self):
        for value in (1.5, {1: 2}, (1, 2), object()):
            with pytest.raises(TypeError):
                _json_text(value)
