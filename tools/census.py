"""Reach-and-traffic census of the qlg2 package on the import path.

Runs each entry of `outputs.RUNS`, the frozen output set (verify at both
seeds and at `--degree-cap 1`, the markdown report and five spectrum
tables), with its path appended in a temporary directory, in one process
under `sys.setprofile`, with qlg2 imported under the profiler, so code that
runs at import counts as reached.  It then prints

- every function or method defined in the package (each `def`, nested ones
  included) that none of these runs entered,
- for each run and each module-level `*_CACHE` memo: its entries after the
  run, and the lookups and hits of that run, and
- for each memo: the distinct keys it held over all the runs, which is its
  size at the end of one warm process that makes the runs in turn.

Memo traffic is counted from outside: after the import, each memo table of
`tools/memos.py` is swapped for a dict subclass that counts the calls of
`get`, the one way the package reads its memos.  The package itself carries
no counter.  Before each run every memo is put back to its contents right
after the import, so each run's counts are those of a cold process.

The PBW pair tables of ROW_TABLES hold rows, one dict {inner key: entry}
per outer key.  Their entries are the pairs stored in the rows, and their
distinct keys the distinct (outer, inner) pairs; their lookups and hits are
those of the rows, and a lookup inside a row stays uncounted.

Exit status 1 when a run exits non-zero, when a definition is unreached
and not in EXCEPTIONS, when an entry of EXCEPTIONS is reached or no longer
defined, or when a memo has no hit over all the runs; 0 otherwise.

    PYTHONPATH=src python tools/census.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import sys
import tempfile
import time
from pathlib import Path

import memos
import outputs

# definitions that no run above reaches, kept on purpose, each with its reason
EXCEPTIONS = {
    "linalg.py:Combination.__rsub__":
        "number protocol beside __sub__; test_combination_laws asserts (1 - x) + x == 1",
    "linalg.py:Matrix.__repr__": "debugging printer",
    "pbw.py:AlgebraElement.__repr__": "debugging printer",
    "scalar.py:Scalar.__rsub__": "number protocol beside __sub__, as Combination.__rsub__",
    "scalar.py:Scalar.__rtruediv__":
        "number protocol; traced by perfbench/tracer.py as scalar.Scalar.div",
    "scalar.py:Scalar.__repr__": "debugging printer",
    "scalar.py:KScalar.canon_str": "failure-path printer of a KScalar residual",
    "scalar.py:KScalar.__repr__": "debugging printer",
}


def definitions():
    """{"file:Qual.name": (file, first line)} for every def in the directory
    of the imported qlg2; the first line is that of the first decorator, as
    in co_firstlineno."""
    import qlg2

    found = {}
    for path in sorted(Path(qlg2.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    name = prefix + child.name
                    found[f"{path.name}:{name}"] = (str(path), first)
                    walk(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return found


# the memos whose entries are rows: _F_PAIR_CACHE[A1][A3], _E_PAIR_CACHE[B2][B3]
ROW_TABLES = ("qlg2.pbw._F_PAIR_CACHE", "qlg2.pbw._E_PAIR_CACHE")


def stored(name, table):
    """The keys of a memo's entries: (outer, inner) pairs for a row table."""
    if name in ROW_TABLES:
        return {(k, j) for k, row in table.items() for j in row}
    return set(table)


_MISS = object()


class CountedDict(dict):
    """A memo table that counts its `get` lookups and their hits."""

    lookups = 0
    hits = 0

    def get(self, key, default=None):
        self.lookups += 1
        got = dict.get(self, key, _MISS)
        if got is _MISS:
            return default
        self.hits += 1
        return got


def run_all(tmp, tables, at_import):
    """Run each entry of outputs.RUNS from `at_import`, the memo contents
    right after the import; returns [(file name, {memo: (entries, lookups,
    hits)})] and {memo: distinct keys}."""
    from qlg2 import cli

    keys = {name: stored(name, entries) for name, entries in at_import.items()}
    traffic = []
    for file, args in outputs.RUNS:
        memos.restore(at_import)
        for table in tables.values():
            table.lookups = table.hits = 0
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*args, os.path.join(tmp, file)])
        if code != 0:
            raise SystemExit(f"census: the run writing {file} exited {code}")
        held = {name: stored(name, table) for name, table in tables.items()}
        traffic.append((file, {
            name: (len(held[name]), table.lookups, table.hits)
            for name, table in tables.items()}))
        for name, k in held.items():
            keys[name].update(k)
    return traffic, {name: len(k) for name, k in keys.items()}


def main():
    start = time.perf_counter()
    seen = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        importlib.import_module("qlg2.cli")
        at_import = memos.snapshot()
        with memos.swapped(memos.tables(), CountedDict) as tables, \
                tempfile.TemporaryDirectory() as tmp:
            traffic, distinct = run_all(tmp, tables, at_import)
    finally:
        sys.setprofile(None)

    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in seen}
    defs = definitions()
    unreached = sorted(k for k, (path, line) in defs.items()
                       if (os.path.realpath(path), line) not in reached)

    print(f"definitions in qlg2: {len(defs)}; unreached: {len(unreached)}")
    for key in unreached:
        print(f"  {key:<40} {EXCEPTIONS.get(key, 'NOT AN EXCEPTION')}")
    print()
    for file, counts in traffic:
        print(f"the run writing {file}, from the memos at import:")
        print(f"  {'memo':<38} {'entries':>8} {'lookups':>9} {'hits':>9}")
        for name, (entries, lookups, hits) in counts.items():
            print(f"  {name:<38} {entries:>8} {lookups:>9} {hits:>9}")
        print()
    print(f"distinct keys over the {len(traffic)} runs (one warm process):")
    for name, n in distinct.items():
        print(f"  {name:<38} {n:>8}")
    print()

    bad = [k for k in unreached if k not in EXCEPTIONS]
    stale = [k for k in EXCEPTIONS if k not in unreached]
    idle = [name for name in tables
            if not any(counts[name][2] for _file, counts in traffic)]
    for key in bad:
        print(f"census: unreached and not an exception: {key}")
    for key in stale:
        state = "reached" if key in defs else "no longer defined"
        print(f"census: exception {state}: {key}")
    for name in idle:
        print(f"census: memo with no hit over the {len(traffic)} runs: {name}")
    print(f"census: {len(defs)} definitions, {len(unreached)} unreached, "
          f"{len(tables)} memo tables, {time.perf_counter() - start:.1f} s")
    return 1 if bad or stale or idle else 0


if __name__ == "__main__":
    sys.exit(main())
