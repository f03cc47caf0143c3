"""Tests of the benchmark's own output checks and tracing invariants.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads as wl
from child import SpeedProbe
from run import spawn

ROOT = Path(__file__).resolve().parents[2]
CHEAP_CHECKS = ["lem-root-e", "prop-cas-general", "uqg-relations"]


def _child(tmp_path, label, spec):
    out_dir = tmp_path / label
    _rec, res = spawn(spec, out_dir, ROOT / "src", time.monotonic() + 120)
    return res, out_dir


def _checks_spec(trace=False):
    return {"kind": "checks", "seed": wl.DEFAULT_SEED,
            "checks": CHEAP_CHECKS, "trace": trace}


def _spectrum_spec(trace=False):
    return {"kind": "spectrum", "seed": 0, "v": [1, 2], "shell_max": 6,
            "trace": trace}


def test_corrupted_golden_entry_counts_as_failed(tmp_path):
    _res, out = _child(tmp_path, "plain", _checks_spec())
    report = (out / "report.json").read_text(encoding="utf-8")
    golden = wl.load_golden()
    seed = wl.DEFAULT_SEED
    assert wl.failed_checks(report, golden, CHEAP_CHECKS, seed) == 0

    bad = json.loads(json.dumps(golden))
    bad["checks"]["lem-root-e"]["rhs_digest"] = "0" * 16
    assert wl.failed_checks(report, bad, CHEAP_CHECKS, seed) == 1
    bad = json.loads(json.dumps(golden))
    bad["checks"]["uqg-relations"]["status"] = "fail"
    assert wl.failed_checks(report, bad, CHEAP_CHECKS, seed) == 1
    # a report that is not byte-identical fails every check
    reformatted = json.dumps(json.loads(report), indent=1, sort_keys=True)
    assert wl.failed_checks(reformatted, golden, CHEAP_CHECKS, seed) == 3


def test_seeded_check_matches_golden_at_held_out_seed(tmp_path):
    checks = ["eq-comm-rel-uqg"]
    spec = {"kind": "checks", "seed": wl.HELD_OUT_SEED, "checks": checks}
    _res, out = _child(tmp_path, "held-out", spec)
    report = (out / "report.json").read_text(encoding="utf-8")
    golden = wl.load_golden()
    assert wl.failed_checks(report, golden, checks, wl.HELD_OUT_SEED) == 0
    assert wl.failed_checks(report, golden, checks, wl.DEFAULT_SEED) == 1


def test_spectrum_oracle_catches_wrong_and_missing_rows(tmp_path):
    res, out = _child(tmp_path, "spectrum", _spectrum_spec())
    assert res["exit_code"] == 0
    table = (out / "table.csv").read_text(encoding="utf-8").splitlines()
    assert wl.failed_rows("\n".join(table), (1, 2), 6) == 0
    n1, n2, num, den, shown = table[5].split(",")
    wrong = table[:5] + [",".join((n1, n2, str(int(num) + 1), den, shown))]
    assert wl.failed_rows("\n".join(wrong + table[6:]), (1, 2), 6) == 1
    assert wl.failed_rows("\n".join(table[:-1]), (1, 2), 6) == 1


def test_tracing_changes_no_output(tmp_path):
    plain, plain_dir = _child(tmp_path, "plain", _checks_spec())
    traced, traced_dir = _child(tmp_path, "traced", _checks_spec(trace=True))
    assert "layers" in traced and "layers" not in plain
    assert (plain_dir / "report.json").read_bytes() == \
        (traced_dir / "report.json").read_bytes()
    _p, p_dir = _child(tmp_path, "sp-plain", _spectrum_spec())
    _t, t_dir = _child(tmp_path, "sp-traced", _spectrum_spec(trace=True))
    assert (p_dir / "table.csv").read_bytes() == \
        (t_dir / "table.csv").read_bytes()


def test_speed_probe_samples_while_running_and_disarms():
    probe = SpeedProbe()
    probe.start()
    end = time.monotonic() + 0.7
    while time.monotonic() < end:
        pass
    probe.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    # one sample at start, one at stop, and the timer's in between
    report = probe.report()
    assert report["samples"] == len(probe.samples) >= 4
    assert 0 < report["probe_s"] < 0.7
    assert report["speed_factor"] > 0


def test_times_are_normalised_by_the_probe(tmp_path):
    out_dir = tmp_path / "plain"
    rec, res = spawn(_checks_spec(), out_dir, ROOT / "src",
                     time.monotonic() + 120)
    job = res["job_probe"]
    assert job["samples"] >= 2
    assert rec["wall_s"] == res["t_done"] - res["t_ready"] - job["probe_s"]
    assert rec["wall_ref_s"] == rec["wall_s"] / job["speed_factor"]
    setup = res["setup_probe"]
    assert setup["samples"] >= 2
    assert rec["setup_s"] == ((rec["setup_raw_s"] - setup["probe_s"])
                              / setup["speed_factor"])


def _bindings():
    """Every name bound in a qlg2 module, class dict or the check registry."""
    import qlg2.cli  # noqa: F401  (loads every layer)

    out = {}
    for mod in tracer._qlg2_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(mod.__name__, attr, cattr)] = cvalue
    for check_id, entry in sys.modules["qlg2.checks"].CHECKS.items():
        out[("CHECKS", check_id)] = entry
    return out


def test_uninstall_restores_every_binding():
    before = _bindings()
    t = tracer.Tracer().install()
    try:
        assert tracer.leftover_wrappers()
        pbw = sys.modules["qlg2.pbw"]
        checks = sys.modules["qlg2.checks"]
        parthasarathy = sys.modules["qlg2.parthasarathy"]
        # the split is patched in every module that imported it
        for mod in (pbw, checks, parthasarathy):
            mod.levi_right_split(pbw.unit(), 1)
    finally:
        t.uninstall()
    assert t.summary()["pbw.levi_right_split"]["calls"] == 3
    assert tracer.leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_counts_repeat_and_split_is_never_reached(tmp_path):
    for spec in (_checks_spec(trace=True), _spectrum_spec(trace=True)):
        first, _ = _child(tmp_path, "first", spec)
        second, _ = _child(tmp_path, "second", spec)
        counts = {k: v for k, v in first["layers"].items()
                  if not (k.endswith("_s") or k.endswith(".s"))}
        assert counts == {k: second["layers"][k] for k in counts}
        assert first["leftover_wrappers"] == []
        for name in ("pbw.levi_right_split.calls",
                     "parthasarathy.reduce_to_M.calls"):
            assert first["layers"][name] == 0


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum-60",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
