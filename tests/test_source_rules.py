"""Rules on the package source itself."""

import ast
from pathlib import Path

import qlg2

SRC = Path(qlg2.__file__).resolve().parent


def test_no_assert_as_runtime_guard():
    # `python -O` strips assert statements, so invariants raise typed errors
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/qlg2: {found}"
