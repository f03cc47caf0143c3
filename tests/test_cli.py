"""CLI behavior: exit codes, deterministic reports, CSV format, and the
registry covering every named statement."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from qlg2 import cli
from qlg2.checks import CHECKS, DEGREE_CAP, Context, run_check, run_suite
from qlg2.rmatrix import casimir_eigenvalue

import memos
import outputs

# every named statement in scope must have a check id
REQUIRED_CHECK_IDS = {
    "uqg-relations", "eq-comm-rel-uqg",
    "eq-condition-i", "lem-equiv-maps", "lem-canonical-square",
    "def-dolb-dirac", "prop-dolbeault-invariant",
    "lem-fundamental-c2", "lem-root-e",
    "prop-sq-relations", "lem-levi-up", "lem-levi-um", "prop-lq-relations",
    "lem-rel-xi-xis", "prop-d-squared",
    "prop-cas-general", "prop-casimir-rmatrix", "cor-value-casimir",
    "lem-f-vanish",
    "lem-rel-e-es", "lem-rel-rewrite-cas", "lem-quantum-casimir",
    "prop-cas-to-the-right", "prop-casimir-clifford", "eq-relation-cliff",
    "lem-levi-lq", "lem-inner-prod", "lem-action-gamma", "lem-gamma-star",
    "cor-iso-exterior",
    "lem-kappa-constraints", "lem-clifford-off", "lem-clifford-diag",
    "thm-parthasarathy", "thm-spectral-triple",
}


def test_registry_covers_every_statement():
    missing = REQUIRED_CHECK_IDS - set(CHECKS)
    assert not missing, f"registry misses {sorted(missing)}"
    assert set(CHECKS) == REQUIRED_CHECK_IDS


def test_unknown_check_is_usage_error(capsys):
    rc = cli.main(["verify", "--check", "no-such-check"])
    assert rc == cli.EXIT_USAGE
    assert "unknown check id" in capsys.readouterr().err


def test_single_check_passes(tmp_path):
    out = tmp_path / "r.md"
    rc = cli.main(["verify", "--check", "lem-f-vanish", "--out", str(out)])
    assert rc == cli.EXIT_PASS
    assert "lem-f-vanish | pass" in out.read_text()


def test_json_report_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        rc = cli.main(["verify", "--check", "lem-inner-prod",
                       "--report", "json", "--seed", "7", "--out", str(path)])
        assert rc == cli.EXIT_PASS
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["schema"] == "qlg2-check-report/1"
    assert payload["seed"] == 7
    (res,) = payload["results"]
    assert res["status"] == "pass"
    assert res["residual"] == ""
    assert "elapsed_ms" not in res


def test_digests_canonical():
    ctx = Context()
    r1 = run_check("prop-casimir-rmatrix", ctx)
    # on a passing equality check both serializations digest identically
    assert r1.status == "pass"
    assert r1.lhs_digest == r1.rhs_digest


def test_failing_check_exit_code(tmp_path):
    def broken(ctx):
        return "lhs", "rhs", "forced residual", ("detail",)

    CHECKS["tmp-broken"] = ("always fails", broken)
    try:
        rc = cli.main(["verify", "--check", "tmp-broken",
                       "--out", str(tmp_path / "x.md")])
        assert rc == cli.EXIT_FAIL
    finally:
        del CHECKS["tmp-broken"]


def test_internal_error_exit_code(tmp_path, capsys):
    def exploding(ctx):
        raise RuntimeError("engine defect")

    CHECKS["tmp-explode"] = ("always raises", exploding)
    try:
        rc = cli.main(["verify", "--check", "tmp-explode"])
        assert rc == cli.EXIT_INTERNAL
    finally:
        del CHECKS["tmp-explode"]
    assert "engine defect" in capsys.readouterr().err


def test_check_result_status_matches_residual():
    ctx = Context()
    r = run_check("lem-gamma-star", ctx)
    assert (r.status == "pass") == (r.residual == "")


def test_spectrum_csv(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    rc = cli.main(["spectrum", "--v-num", "1", "--v-den", "2",
                   "--shell-max", "5", "--csv", str(out)])
    assert rc == cli.EXIT_PASS
    data = out.read_bytes().decode()
    lines = data.split("\n")
    assert lines[0] == "n1,n2,c_lambda_exact_num,c_lambda_exact_den,c_lambda_float"
    assert len([l for l in lines if l]) == 1 + 21
    assert "\r" not in data
    # first data row agrees with the eigenvalue formula
    n1, n2, num, den, flt = lines[1].split(",")
    val = casimir_eigenvalue((0, 0)).evaluate(Fraction(1, 2))
    assert (int(num), int(den)) == (val.numerator, val.denominator)
    err = capsys.readouterr()
    assert "strictly increasing: True" in err.out


def test_spectrum_rejects_bad_v(capsys):
    assert cli.main(["spectrum", "--v-num", "1", "--v-den", "1",
                     "--shell-max", "5"]) == cli.EXIT_USAGE
    assert cli.main(["spectrum", "--v-num", "3", "--v-den", "2",
                     "--shell-max", "5"]) == cli.EXIT_USAGE
    assert cli.main(["spectrum", "--v-num", "1", "--v-den", "2",
                     "--shell-max", "0"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("check", ["prop-casimir-clifford", "lem-f-vanish"])
def test_degree_cap_below_one_is_usage_error(cap, check, capsys):
    rc = cli.main(["verify", "--check", check, "--degree-cap", cap])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr()
    assert "degree_cap" in err.err
    assert "Traceback" not in err.err
    assert err.out == ""


def test_degree_cap_one_is_accepted(tmp_path):
    out = tmp_path / "r.md"
    rc = cli.main(["verify", "--check", "lem-f-vanish", "--degree-cap", "1",
                   "--out", str(out)])
    assert rc == cli.EXIT_PASS


@pytest.fixture
def suite_with_raising_check(monkeypatch):
    """Three checks: one that raises, sorted first, and two real passing ones."""
    def exploding(ctx):
        raise RuntimeError("engine defect")

    small = {cid: CHECKS[cid] for cid in ("lem-f-vanish", "lem-inner-prod")}
    small["early-raise"] = ("always raises", exploding)
    monkeypatch.setattr(cli, "CHECKS", small)
    monkeypatch.setattr("qlg2.checks.CHECKS", small)
    return small


def test_raising_check_is_reported_as_error(tmp_path, capsys,
                                            suite_with_raising_check):
    out = tmp_path / "r.json"
    rc = cli.main(["verify", "--report", "json", "--out", str(out)])
    assert rc == cli.EXIT_INTERNAL
    results = {r["check_id"]: r for r in json.loads(out.read_text())["results"]}
    assert set(results) == set(suite_with_raising_check)
    assert results["early-raise"]["status"] == "error"
    assert results["early-raise"]["residual"] == "RuntimeError: engine defect"
    assert results["early-raise"]["lhs_digest"] == ""
    assert results["lem-f-vanish"]["status"] == "pass"
    assert results["lem-inner-prod"]["status"] == "pass"
    err = capsys.readouterr().err
    assert "check early-raise raised" in err
    assert "Traceback (most recent call last)" in err
    assert "RuntimeError: engine defect" in err


def test_engine_error_outside_a_check_prints_traceback(tmp_path, capsys,
                                                       monkeypatch):
    def broken(*args):
        raise RuntimeError("spectrum engine defect")

    monkeypatch.setattr(cli, "spectrum_growth", broken)
    rc = cli.main(["spectrum", "--v-num", "1", "--v-den", "2",
                   "--shell-max", "5", "--csv", str(tmp_path / "t.csv")])
    assert rc == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert err.rstrip().endswith("RuntimeError: spectrum engine defect")


def test_markdown_report_lists_errors(tmp_path, suite_with_raising_check):
    out = tmp_path / "r.md"
    rc = cli.main(["verify", "--out", str(out)])
    assert rc == cli.EXIT_INTERNAL
    text = out.read_text()
    assert "| early-raise | error | always raises |" in text
    assert "ERROR early-raise: RuntimeError: engine defect" in text
    assert "| lem-f-vanish | pass |" in text
    assert "2/3 checks pass" in text


def test_error_outranks_failure(tmp_path, suite_with_raising_check):
    def broken(ctx):
        return "lhs", "rhs", "forced residual", ()

    suite_with_raising_check["tmp-broken"] = ("always fails", broken)
    out = tmp_path / "r.md"
    assert cli.main(["verify", "--out", str(out)]) == cli.EXIT_INTERNAL
    assert "FAIL tmp-broken: forced residual" in out.read_text()
    del suite_with_raising_check["early-raise"]
    assert cli.main(["verify", "--out", str(out)]) == cli.EXIT_FAIL


def test_run_suite_continues_after_an_error(suite_with_raising_check):
    results = run_suite(sorted(suite_with_raising_check), Context())
    assert [r.status for r in results] == ["error", "pass", "pass"]


@pytest.mark.parametrize("argv", [
    ["verify", "--check", "lem-f-vanish", "--report", "json", "--out"],
    ["spectrum", "--v-num", "1", "--v-den", "2", "--shell-max", "5", "--csv"],
], ids=["verify", "spectrum"])
def test_unwritable_output_is_usage_error_before_any_work(argv, tmp_path, capsys,
                                                          monkeypatch):
    def no_work(*args):
        raise RuntimeError("work ran before the output path was checked")

    monkeypatch.setattr(cli, "run_suite", no_work)
    monkeypatch.setattr(cli, "spectrum_growth", no_work)
    path = tmp_path / "no-such-dir" / "out.txt"
    rc = cli.main(argv + [str(path)])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr()
    # one line naming the path and the reason, no traceback
    assert err.err.startswith(f"cannot write {path}: ")
    assert err.err.count("\n") == 1
    assert err.out == ""
    assert not path.parent.exists()


def test_frozen_output_set_parses_and_covers_the_seeds_and_the_cap():
    # tools/outputs.py appends each file's path to its argv; the tool itself
    # is not run here
    parser = cli.build_parser()
    names = [name for name, _argv in outputs.RUNS]
    parsed = [parser.parse_args([*argv, name]) for name, argv in outputs.RUNS]
    # each argv ends in the flag that names its output file
    assert [a.out if a.command == "verify" else a.csv for a in parsed] == names
    stems = [Path(name).stem for name in names]
    assert len(set(names)) == len(set(stems)) == len(names)
    assert "exit-codes" not in stems
    verify = [a for a in parsed if a.command == "verify"]
    assert all(a.check == "all" for a in verify)
    assert {a.seed for a in verify if a.report == "json"
            and a.degree_cap == DEGREE_CAP} >= set(memos.SEEDS)
    assert any(a.report == "json" and a.degree_cap == 1 for a in verify)
