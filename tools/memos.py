"""The memo tables of qlg2: what one is, how to empty them, put them back or
take one out of play, and a check that each is a pure cache of verify.

A memo table is a module-level dict named `*_CACHE` in a loaded `qlg2.*`
module.  `tables()` lists them, `snapshot()` and `restore()` save and put
back their contents (`restore({})` empties them), `cold()` empties them for a
block, and `swapped()` replaces some of them, as module attributes, by empty
instances of a dict subclass for a block: `NeverStored` here, the census's
counting dict there.  The package reads its memos with `get` only.

Run as a script, it starts every job from the table contents right after
the import, as a cold process does.  It runs
`qlg2 verify --check all --report json` at seeds 20240801 and 97 once plain,
then once per table with only that table never storing, and compares each
report's bytes with the plain report's, whatever the exit status of verify.
The lookups of the never-storing table and the time of its run over that of
the plain run are printed as information, not as a gate: each is one run,
and on a shared host the times drift.

Exit status 1, naming each table, when a report with that table never
storing differs from the plain one; 0 otherwise.

    python tools/memos.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import time
from pathlib import Path

SEEDS = (20240801, 97)


def tables():
    """{qualified name: table} of every module-level dict named *_CACHE in a
    loaded qlg2.* module, sorted by qualified name."""
    return {f"{name}.{attr}": table for name, module in sorted(sys.modules.items())
            if name.startswith("qlg2.")
            for attr, table in sorted(vars(module).items())
            if attr.endswith("_CACHE") and isinstance(table, dict)}


def snapshot():
    """The contents of every table, for restore()."""
    return {name: dict(table) for name, table in tables().items()}


def restore(saved):
    """Put every table back to its contents in `saved`; a table that `saved`
    lacks is emptied."""
    for name, table in tables().items():
        table.clear()
        table.update(saved.get(name, {}))


@contextlib.contextmanager
def cold():
    """Every table empty inside the block, and put back after it."""
    saved = snapshot()
    restore({})
    try:
        yield
    finally:
        restore(saved)


@contextlib.contextmanager
def swapped(names, kind):
    """Each table of `names` replaced, as its module attribute, by an empty
    kind(), a dict subclass, inside the block; yields {name: that table}.
    restore() fills a swapped table too, so call it before the swap."""
    current = tables()
    originals = {name: current[name] for name in names}

    def put(new):
        for name, table in new.items():
            module, attr = name.rsplit(".", 1)
            setattr(sys.modules[module], attr, table)

    fresh = {name: kind() for name in originals}
    put(fresh)
    try:
        yield fresh
    finally:
        put(originals)


class NeverStored(dict):
    """A memo table that keeps no entry and counts its lookups, which all
    miss."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return default

    def __setitem__(self, key, value):
        pass


def main():
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from qlg2 import cli

    at_import = snapshot()

    def report(tmp, seed, off=()):
        """(bytes or None, lookups, seconds) of a verify report from the
        tables at import, with the tables `off` never storing."""
        out = os.path.join(tmp, f"{seed}-{'-'.join(off)}.json")
        restore(at_import)
        with swapped(off, NeverStored) as never:
            t0 = time.perf_counter()
            # a raising check prints its traceback; its report entry says so
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(["verify", "--check", "all", "--report", "json",
                          "--seed", str(seed), "--out", out])
            secs = time.perf_counter() - t0
        got = Path(out).read_bytes() if os.path.exists(out) else None
        return got, sum(t.lookups for t in never.values()), secs

    names = list(tables())
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        plain = {seed: report(tmp, seed) for seed in SEEDS}
        print(f"  {'memo never storing':<38} {'lookups at each seed':>20}"
              f" {'time / plain':>13}")
        for name in names:
            runs = {seed: report(tmp, seed, (name,)) for seed in SEEDS}
            differ += [(name, seed) for seed, run in runs.items()
                       if run[0] is None or run[0] != plain[seed][0]]
            print(f"  {name:<38} {runs[SEEDS[0]][1]:>10} {runs[SEEDS[1]][1]:>9}"
                  + "".join(f" {runs[s][2] / plain[s][2]:>6.2f}" for s in SEEDS))
    print()
    for name, seed in differ:
        print(f"memos: report differs with {name} never storing, seed {seed}")
    print(f"memos: {len(names)} memo tables, {len(names) * len(SEEDS)} reports "
          f"with one never storing, {len(differ)} differ from the plain ones, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
