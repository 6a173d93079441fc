"""Guarantees must raise named exceptions: ``python -O`` strips ``assert``."""

import ast
from pathlib import Path

import deamort

SRC = Path(deamort.__file__).resolve().parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in deamort: {found}"
