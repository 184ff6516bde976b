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
