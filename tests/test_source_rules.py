"""Rules on the package source itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import qlg2

import memos

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


def _is_empty_dict(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict"
            and not node.args and not node.keywords)


# module-level dicts that start empty but are no memo: the check registry,
# which @check fills at import
REGISTRIES = {"qlg2.checks.CHECKS"}


def test_every_module_level_empty_dict_is_a_cache():
    # memos.tables() holds every dict named *_CACHE, and the cold-table tests
    # empty those; a memo under any other name would stay warm in them
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if _is_empty_dict(node.value):
                found |= {f"qlg2.{path.stem}.{n.id}" for target in targets
                          for n in ast.walk(target) if isinstance(n, ast.Name)}
    misnamed = sorted(name for name in found - REGISTRIES
                      if not name.endswith("_CACHE"))
    assert not misnamed, f"module-level empty dicts not named *_CACHE: {misnamed}"
    for name in found:
        importlib.import_module(name.rsplit(".", 1)[0])
    assert set(memos.tables()) == found - REGISTRIES


# the list-of-lists kernels that linalg.Matrix replaced; the tests keep
# private copies as oracles
DENSE_KERNELS = {"mzeros", "meye", "madd", "msub", "mscale", "mT", "meq", "miszero"}


def test_no_dense_matrix_kernel_in_the_package():
    # Matrix is the one matrix form: a second, dense one must not creep back
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [n for a in node.names for n in (a.name, a.asname)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in DENSE_KERNELS]
    assert not found, f"dense matrix kernels defined or imported in src/qlg2: {found}"


def _load_tracer():
    # loaded by path: perfbench is not a package on the test path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_live_in_their_owners_namespace():
    # the tracer patches `vars(owner)` only: a traced method inherited from a
    # base class would silently read zero calls
    tracer = _load_tracer()
    targets = [(module, path) for module, path, _name in tracer.SPAN_TARGETS]
    targets += [("qlg2.scalar", path) for path, _metric in tracer.SCALAR_TARGETS]
    missing = []
    for module, path in targets:
        owner = importlib.import_module(module)
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        if attr not in vars(owner):
            missing.append(f"{module}.{path}")
    assert not missing, f"traced names not defined in their owner: {missing}"
    caches = [f"{module}.{attr}" for module, attr, _metric in tracer.CACHES
              if not isinstance(vars(importlib.import_module(module)).get(attr), dict)]
    assert not caches, f"traced caches that are not module-level dicts: {caches}"


def _is_check_decorator(node):
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check"


def test_every_check_function_is_registered():
    # an undecorated check_* function would silently never run
    tree = ast.parse((SRC / "checks.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name.startswith("check_")]
    undecorated = [fn.name for fn in functions
                   if not any(map(_is_check_decorator, fn.decorator_list))]
    assert not undecorated, f"check functions without @check: {undecorated}"
    checks = importlib.import_module("qlg2.checks")
    registered = sorted(fn.__name__ for _statement, fn in checks.CHECKS.values())
    assert registered == sorted(fn.name for fn in functions)


def test_only_run_check_builds_a_verdict():
    # a check returns (lhs, rhs, rows) and run_check alone turns the rows
    # into the residual and the details, so a check cannot state a residual
    # that its rows do not
    tree = ast.parse((SRC / "checks.py").read_text(encoding="utf-8"))
    callers = [top.name for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "_verdict"]
    assert callers == ["run_check"]
    checks = importlib.import_module("qlg2.checks")
    registered = {fn.__name__ for _statement, fn in checks.CHECKS.values()}
    bound = [f"{top.name}: {node.id}" for top in tree.body
             if isinstance(top, ast.FunctionDef) and top.name in registered
             for node in ast.walk(top)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
             and node.id in ("residual", "details")]
    assert not bound, f"checks that bind a residual or details: {bound}"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        bound.update((name, node.lineno) for name in names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(bound.items())
            if name not in read and name not in exported]


def test_no_unused_imports():
    # an import nobody reads hides what a file really depends on
    tests = Path(__file__).resolve().parent
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted(tests.glob("*.py")):
        found += _unused_imports(path)
    assert not found, f"imported names never read: {found}"
