"""Record perfbench/golden.json from the qlg2 in ./src.

Run from the repository root:  python3 perfbench/record_golden.py

Runs every check of the check workloads, in cold processes, at the default
and the held-out seed.  A check whose entry differs between the two seeds is
stored per seed.  Refuses to record a check that does not pass.
"""

import json
import sys
import time
from pathlib import Path

import workloads as wl
from run import spawn


def main():
    root = Path.cwd()
    src = root / "src"
    checks = sorted({c for w in wl.WORKLOADS.values()
                     for c in w.get("checks", ())})
    entries = {}
    for seed in (wl.DEFAULT_SEED, wl.HELD_OUT_SEED):
        spec = {"kind": "checks", "seed": seed, "checks": checks}
        out_dir = root / ".perfbench" / "golden" / str(seed)
        spawn(spec, out_dir, src, time.monotonic() + 600)
        report = json.loads((out_dir / "report.json").read_text("utf-8"))
        entries[seed] = {r["check_id"]: r for r in report["results"]}
    golden = {"checks": {}, "seeded": {}}
    for c in checks:
        a, b = entries[wl.DEFAULT_SEED][c], entries[wl.HELD_OUT_SEED][c]
        if a["status"] != "pass" or b["status"] != "pass":
            sys.exit(f"{c} does not pass; not recording it")
        if a == b:
            golden["checks"][c] = a
        else:
            golden["seeded"][c] = {str(wl.DEFAULT_SEED): a,
                                   str(wl.HELD_OUT_SEED): b}
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    print(f"wrote {wl.GOLDEN_PATH} ({len(checks)} checks)")


if __name__ == "__main__":
    main()
