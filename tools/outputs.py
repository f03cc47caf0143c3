"""The frozen output set of qlg2, whose bytes and exit codes a change must
leave as its parent wrote them, and its writer.

Each entry of RUNS is (file name, argv of `qlg2.cli` ending in the flag that
names its output file).  The script runs each entry in a fresh
`python -m qlg2.cli` process with the file's path in DIR appended, and
writes to DIR the file, the run's stdout as `<stem>.out` and one
`exit-codes.txt`.  The children inherit the environment: `PYTHONPATH` picks
the tree, and `PYTHONHASHSEED`, `PYTHONDEVMODE` and `PYTHONWARNINGS` how it
runs (`PYTHONDEVMODE=1 PYTHONWARNINGS=error` is `-X dev -W error`).  Two
sets agree when `diff -r` finds their directories equal.

Exit status 1, after the whole set is written, when a run exited non-zero;
2 when DIR is not given or not empty; 0 otherwise.

    PYTHONPATH=src python tools/outputs.py DIR
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

from memos import SEEDS

VERIFY = ("verify", "--check", "all")


def _spectrum(num, den, shell):
    return (f"spectrum-{num}-{den}-{shell}.csv",
            ("spectrum", "--v-num", str(num), "--v-den", str(den),
             "--shell-max", str(shell), "--csv"))


RUNS = (
    # the JSON report at each seed of tools/memos.py, the first verify's default
    *((f"report-{seed}.json", (*VERIFY, "--report", "json", "--seed", str(seed),
                               "--out")) for seed in SEEDS),
    # the default seed at the smallest degree cap: the cap never binds, so
    # the results equal those at the default cap
    ("report-cap-1.json", (*VERIFY, "--report", "json", "--degree-cap", "1", "--out")),
    ("report.md", (*VERIFY, "--report", "md", "--out")),
    # v = 1/2; the Fraction oracle of perfbench/workloads.py checks shell 60
    _spectrum(1, 2, 20),
    _spectrum(1, 2, 60),
    # a point where the numerator of q0 = v^2 is above 1
    _spectrum(2, 3, 40),
    # points where every row is reduced by a gcd g > 1; the parent's rows
    # are the oracle for them
    _spectrum(1, 3, 60),
    _spectrum(5, 7, 60),
)


def main(argv):
    out = Path(argv[0]) if len(argv) == 1 else None
    if out is None or out.is_dir() and any(out.iterdir()):
        print("usage: python tools/outputs.py DIR, a new or empty directory",
              file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    codes = []
    for name, args in RUNS:
        with open(out / f"{Path(name).stem}.out", "wb") as stdout:
            run = subprocess.run([sys.executable, "-m", "qlg2.cli", *args, str(out / name)],
                                 stdout=stdout, check=False)
        codes.append((name, run.returncode))
    (out / "exit-codes.txt").write_text("".join(f"{name} {code}\n" for name, code in codes),
                                        encoding="utf-8")
    failed = [name for name, code in codes if code]
    print(f"outputs: {len(RUNS)} runs written to {out}, {time.perf_counter() - start:.1f} s; "
          f"exited non-zero: {', '.join(failed) or 'none'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
