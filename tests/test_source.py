"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

import combstab

PACKAGE = Path(combstab.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "BundleData",
    "CharacterizationKind",
    "CharacterizationReport",
    "CombCurve",
    "FeasibleRegion",
    "GeneratedPairData",
    "IntervalQ",
    "NecessaryVerdict",
    "PairAssumptions",
    "Polarization",
    "RestrictionCase",
    "RestrictionVerdict",
    "StrongUnstabilityKind",
    "StrongUnstabilityVerdict",
    "ToothWitness",
    "canonical_witnesses",
    "characterize",
    "classify_restriction",
    "component_eulers",
    "destabilizer_candidates",
    "euclidean_remainder",
    "feasible_region",
    "filtered_destabilizer_candidates",
    "format_rational",
    "kernel_data",
    "kernel_polarization",
    "necessary_check",
    "parse_rational",
    "pick_simplest_rational",
    "slope",
    "strong_unstability",
    "synthesize_polarization",
    "total_euler",
    "validate_pair",
    "validate_polarization",
]


def test_no_assert_statements():
    # ``python -O`` strips asserts, so no correctness check may live in one.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


# The fast path's closed forms and cores, which no oracle may call.
FAST_PATH = {
    "_candidate_range",
    "_classify",
    "_exact_sum",
    "_filtered",
    "_listing_length",
    "_necessary",
    "_picks_reach_one",
    "_region",
    "_repick",
    "_synthesize",
    "_tooth_eulers",
    "_tooth_interval",
    "_tooth_sides",
    "component_eulers",
    "simplest_between",
    "total_euler",
}


def test_fast_path_names_exist():
    # A guard that names a deleted helper guards nothing.
    defined = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert FAST_PATH - defined == set()


def test_oracles_stay_independent_of_the_fast_path():
    # The oracles import no private helper of another combstab module and
    # nothing from combstab.kernels, and name none of the fast path's closed
    # forms (tooth intervals, ranges, predicates, Euler numbers, exact sums)
    # or cores, so a mistake there cannot agree with itself.
    path = PACKAGE / "oracles.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "combstab":
                continue
            names = [a.name for a in node.names]
            if "kernels" in parts or "kernels" in names:
                found.append(f"line {node.lineno}: imports from combstab.kernels")
            found += [f"line {node.lineno}: imports {name}" for name in names if name.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}: imports {a.name}"
                for a in node.names
                if a.name.split(".")[0] == "combstab" and "kernels" in a.name.split(".")
            ]
        elif isinstance(node, ast.Name) and node.id in FAST_PATH:
            found.append(f"line {node.lineno}: uses {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in FAST_PATH:
            found.append(f"line {node.lineno}: uses {node.attr}")
    assert found == []


def test_public_surface_is_pinned():
    # Adding or dropping a public name is an API change: update this list with it.
    assert sorted(combstab.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(combstab, name)] == []


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    exec(compile(block.group(1), "README.md", "exec"), {})
