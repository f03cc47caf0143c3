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


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) \
                and isinstance(node.target, ast.Name):
            yield node.target.id


def test_each_top_level_name_has_one_home():
    # a helper or constant is defined in one module and imported elsewhere;
    # `from .scalar import q_power as _qp` is an import, not a definition
    homes = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in set(_top_level_names(tree)):
            homes.setdefault(name, []).append(path.name)
    shared = {name: files for name, files in homes.items() if len(files) > 1}
    assert not shared, f"names defined in more than one module: {shared}"
