"""Workload definitions and output references for the qlg2 benchmark.

Each workload is one cold process that imports qlg2 from the checkout's
`src/` and runs one fixed job:

- casimir-in-m: the check `prop-casimir-clifford`.  It builds the truncated
  R-matrix and the Casimir (PBW rewriting) and reduces the Casimir into the
  quotient module M, which goes through `levi_right_split` (the mod-Levi
  split) and `reduce_to_M`.  It has no random input.
- pbw-rewrite: the 28 checks that never reach `levi_right_split` or
  `reduce_to_M`.  `eq-comm-rel-uqg` draws its 1000 associativity triples from
  the probe seed, which is pinned at qlg2's default (see PROBE_SEED).
- spectrum-60: `qlg2 spectrum --v-num 1 --v-den 2 --shell-max 60`, 1891 table
  rows of Scalar arithmetic.  It has no random input.

The full `qlg2 verify --check all` (about 75 s per cold run on a 2-core
machine, and seed-dependent by tens of seconds) does not fit one benchmark
run, so it is not a workload; `casimir-in-m` is its L1-L3 core.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

DEFAULT_SEED = 20240801
HELD_OUT_SEED = 97

# The probe seed changes the cost of eq-comm-rel-uqg by about a third (7-8.5 s
# at seed 4 against 10-11.5 s at seed 2 on a 2-core machine), and the
# benchmark's seeds are pooled into one median.  So every run probes at the
# default seed and the benchmark seed is only recorded; the golden table also
# holds the held-out seed, which the benchmark's tests run.
PROBE_SEED = DEFAULT_SEED

PBW_REWRITE_CHECKS = (
    "cor-iso-exterior", "cor-value-casimir", "def-dolb-dirac",
    "eq-comm-rel-uqg", "eq-condition-i", "lem-action-gamma",
    "lem-canonical-square", "lem-equiv-maps", "lem-f-vanish",
    "lem-fundamental-c2", "lem-gamma-star", "lem-inner-prod",
    "lem-kappa-constraints", "lem-levi-lq", "lem-levi-um", "lem-levi-up",
    "lem-quantum-casimir", "lem-rel-e-es", "lem-rel-rewrite-cas",
    "lem-root-e", "prop-cas-general", "prop-cas-to-the-right",
    "prop-casimir-rmatrix", "prop-dolbeault-invariant", "prop-lq-relations",
    "prop-sq-relations", "thm-spectral-triple", "uqg-relations",
)

SPECTRUM_V = (1, 2)
SPECTRUM_SHELL_MAX = 60

# Traced-run invariants: these layer counters must read 0 on the workload.
_NO_SPLIT = ("pbw.levi_right_split.calls", "parthasarathy.reduce_to_M.calls")

WORKLOADS = {
    "casimir-in-m": {"kind": "checks", "checks": ("prop-casimir-clifford",),
                     "zero_counters": ()},
    "pbw-rewrite": {"kind": "checks", "checks": PBW_REWRITE_CHECKS,
                    "zero_counters": _NO_SPLIT},
    "spectrum-60": {"kind": "spectrum", "v": SPECTRUM_V,
                    "shell_max": SPECTRUM_SHELL_MAX,
                    "zero_counters": _NO_SPLIT},
}


def child_spec(workload):
    """The job description a cold child process runs for `workload`."""
    w = WORKLOADS[workload]
    spec = {"kind": w["kind"], "seed": PROBE_SEED}
    if w["kind"] == "checks":
        spec["checks"] = list(w["checks"])
    else:
        spec["v"] = list(w["v"])
        spec["shell_max"] = w["shell_max"]
    return spec


def ops_per_rep(spec):
    if spec["kind"] == "checks":
        return len(spec["checks"])
    n = spec["shell_max"]
    return (n + 1) * (n + 2) // 2


# ---------------------------------------------------------------------------
# check reports against the golden table
# ---------------------------------------------------------------------------

def load_golden(path=GOLDEN_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expected_entry(golden, check_id, seed):
    """Golden report entry of `check_id` at a recorded `seed`."""
    if check_id in golden["checks"]:
        return golden["checks"][check_id]
    return golden["seeded"][check_id][str(seed)]


def expected_report(golden, check_ids, seed, degree_cap=3):
    """The byte-exact JSON report `qlg2 verify --report json` must write."""
    payload = {
        "schema": "qlg2-check-report/1",
        "seed": seed,
        "degree_cap": degree_cap,
        "results": [expected_entry(golden, c, seed) for c in sorted(check_ids)],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def failed_checks(report_text, golden, check_ids, seed):
    """Number of checks whose report entry differs from the golden table.

    A report that differs from the golden rendering while every entry
    matches (a format change) fails every check.
    """
    n = len(check_ids)
    try:
        got = {r["check_id"]: r for r in json.loads(report_text)["results"]}
    except (ValueError, KeyError, TypeError):
        return n
    bad = sum(1 for c in check_ids
              if got.get(c) != expected_entry(golden, c, seed))
    if bad == 0 and report_text != expected_report(golden, check_ids, seed):
        return n
    return bad


# ---------------------------------------------------------------------------
# spectrum rows against an independent Fraction oracle
# ---------------------------------------------------------------------------

def casimir_value_oracle(n1, n2, v0):
    """c_L = sum_j v0^(-4 (lambda_j, L + rho)) / (v0^2 - v0^-2)^2.

    The fundamental-module weights of sp4 are +-e1, +-e2 and
    L + rho = (n1 + n2 + 2) e1 + (n2 + 1) e2 in the orthonormal basis, so
    the pairings are +-(n1 + n2 + 2) and +-(n2 + 1).  Plain Fractions only.
    """
    a, b = n1 + n2 + 2, n2 + 1
    num = sum(v0 ** (-4 * p) for p in (a, -a, b, -b))
    return num / (v0 ** 2 - v0 ** -2) ** 2


def failed_rows(csv_text, v, shell_max):
    """Number of expected spectrum rows that are missing or wrong."""
    v0 = Fraction(*v)
    want = {(n1, n2) for n1 in range(shell_max + 1)
            for n2 in range(shell_max + 1 - n1)}
    good = 0
    seen = set()
    for row in csv.DictReader(csv_text.splitlines()):
        try:
            key = (int(row["n1"]), int(row["n2"]))
            got = Fraction(int(row["c_lambda_exact_num"]),
                           int(row["c_lambda_exact_den"]))
            shown = row["c_lambda_float"]
        except (KeyError, TypeError, ValueError):
            continue
        if key not in want or key in seen:
            continue
        seen.add(key)
        exact = casimir_value_oracle(*key, v0)
        if got == exact and shown == repr(float(exact)):
            good += 1
    return len(want) - good
