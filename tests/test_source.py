"""Checks on the package source itself."""

import ast
from pathlib import Path

import combstab

PACKAGE = Path(combstab.__file__).parent


def test_no_assert_statements():
    # ``python -O`` strips asserts, so no correctness check may live in one.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_oracles_stay_independent_of_the_fast_path():
    # The oracles import no private helper of another combstab module and
    # nothing from combstab.kernels, and name none of the closed-form range
    # and predicate helpers, so a mistake there cannot agree with itself.
    path = PACKAGE / "oracles.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reused = {"destabilizer_range", "_candidate_range", "_tooth_sides", "simplest_between"}
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
        elif isinstance(node, ast.Name) and node.id in reused:
            found.append(f"line {node.lineno}: uses {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in reused:
            found.append(f"line {node.lineno}: uses {node.attr}")
    assert found == []
