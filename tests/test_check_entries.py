"""Whole report entries that the golden table in perfbench/ does not pin.

The six D^2 and quotient checks have no golden entry, so the report-level
gates only require them to pass; their full entries are pinned here at both
golden seeds.  The failure-path tests perturb one name the check reads
from `qlg2.checks` and pin the entry of the failing check, so the detail
and residual texts of a failure are fixed as well as those of a pass."""

import pytest

import qlg2.checks as checks
from qlg2.checks import Context, run_check
from qlg2.pbw import K
from qlg2.scalar import q_power

PINNED = {
    "eq-relation-cliff": {
        "details": ["8 randomized probes"],
        "lhs_digest": "c38e92b20922aad8",
        "rhs_digest": "e4e2db94d8b9eeb7",
        "statement": "the quotient-module reduction is well defined "
                     "(randomized probe)",
    },
    "lem-clifford-diag": {
        "details": ["Gamma11: ok", "Gamma22: ok", "Gamma33: ok"],
        "lhs_digest": "770aa76a3b6551e8",
        "rhs_digest": "91c797b2f4311d05",
        "statement": "diagonal Dirac-square components take their closed "
                     "forms after substitution",
    },
    "lem-clifford-off": {
        "details": ["Gamma12: ok", "Gamma13: ok", "Gamma23: ok",
                    "Gamma21: ok", "Gamma31: ok", "Gamma32: ok"],
        "lhs_digest": "1030226f337b35ec",
        "rhs_digest": "91c797b2f4311d05",
        "statement": "off-diagonal Dirac-square components take their "
                     "closed forms after substitution",
    },
    "lem-rel-xi-xis": {
        "details": ["xi1 xi1*: ok", "xi1 xi2*: ok", "xi1 xi3*: ok",
                    "xi2 xi2*: ok", "xi2 xi3*: ok", "xi3 xi3*: ok"],
        "lhs_digest": "5048100ea99058b1",
        "rhs_digest": "aa2d62cdb4a4661e",
        "statement": "all six mod-Levi commutation relations are recovered "
                     "by the decomposition with the stated coefficients",
    },
    "prop-d-squared": {
        "details": [f"component ({i},{j}): ok"
                    for i in (1, 2, 3) for j in (1, 2, 3)],
        "lhs_digest": "4fa41b374c6e589f",
        "rhs_digest": "5331ff16722b5b03",
        "statement": "the reduced Dirac square carries the stated operator "
                     "on each radical monomial",
    },
    "thm-parthasarathy": {
        "details": [
            "constant kappa_1 * (v^12) / (1 + 2*v^4 + v^8)",
            "all nine radical components vanish",
            "pure Levi remainder retained (reported, nonzero: True)",
            "negative control: perturbed kappa_3 breaks the identity",
        ] + [f"negative control: dropped quantum term {k} breaks it"
             for k in range(6)],
        "lhs_digest": "ffe64f5f73afa8df",
        "rhs_digest": "b5a8ab1051cb320b",
        "statement": "the Dirac square equals the scaled Casimir up to a "
                     "pure Levi remainder; negative controls fail",
    },
}


@pytest.fixture(scope="module")
def stages():
    # one stage cache for every context here: the stage objects depend on
    # the degree cap only, never on the seed
    return {}


@pytest.mark.parametrize("seed", [20240801, 97])
@pytest.mark.parametrize("check_id", sorted(PINNED))
def test_entry_without_golden_is_pinned(check_id, seed, stages):
    ctx = Context(seed=seed)
    ctx._cache = stages
    want = dict(PINNED[check_id], check_id=check_id, residual="", status="pass")
    assert run_check(check_id, ctx).as_dict() == want


def _levi_lq_with_k1_as_k2(orig=checks.golden_levi_Lq):
    g = dict(orig())
    g["K1"] = g["K2"]
    return g


def _gamma_with_y2_as_y3(orig=checks.golden_action_gamma):
    g = dict(orig())
    g[2] = g[3]
    return g


def _gamma_star_with_y2_as_y3(orig=checks.golden_gamma_star):
    g = dict(orig())
    g[2] = g[3]
    return g


def _right_form_plus_k(orig=checks.casimir_right_form):
    return orig() + K(2, 0)


FAILURES = {
    # NONZERO on a matrix
    "lem-levi-lq": ("golden_levi_Lq", _levi_lq_with_k1_as_k2, {
        "details": ["E1: ok", "F1: ok", "K1: NONZERO", "K2: ok"],
        "lhs_digest": "0e96810b4e53e01d",
        "residual": "K1: [1,1] v^-4 - 1; [2,2] -v^-4 + 1; [3,3] -v^-8 + v^4; "
                    "[5,5] -v^-8 + 1; [6,6] -v^-12 + v^4; [7,7] -v^-12 + 1",
        "rhs_digest": "0d4fc4a78d3706ed",
        "statement": "the Levi action on the full exterior module matches "
                     "the table",
    }),
    # a NO row of a tally
    "lem-kappa-constraints": ("KAPPA3_RATIO", q_power(-2), {
        "details": ["kappa_2/kappa_1 = (v^-2) / (1 + v^4): ok",
                    "kappa_3/kappa_1 = v^-8: NO",
                    "degrees 0 and 3 unconstrained: ok",
                    "mixed component vanishes on all eight vectors"],
        "lhs_digest": "9bf66f7091a81196",
        "residual": "kappa3 ratio",
        "rhs_digest": "76ba8a893bb6c3ec",
        "statement": "the mixed component vanishes exactly for the stated "
                     "inner-product ratios, uniquely",
    }),
    # NONZERO on a ModuleOperator
    "lem-action-gamma": ("golden_action_gamma", _gamma_with_y2_as_y3, {
        "details": ["gamma(y1): ok", "gamma(y2): NONZERO", "gamma(y3): ok"],
        "lhs_digest": "72e008432e923d4f",
        "residual": "gamma(y2): [y2,1] (1); [y3,1] (-1); [y21,y1] (-v^4); "
                    "[y31,y1] (1); [y31,y2] ((v^2 - v^6) / (1 + v^4)); "
                    "[y32,y2] (v^4); [y32,y3] (1); [y321,y21] (-v^4); "
                    "[y321,y31] (-v^4)",
        "rhs_digest": "0d4fc4a78d3706ed",
        "statement": "right wedge multiplication matches the table",
    }),
    "lem-gamma-star": ("golden_gamma_star", _gamma_star_with_y2_as_y3, {
        "details": ["gamma(y1)*: ok", "gamma(y2)*: NONZERO", "gamma(y3)*: ok"],
        "lhs_digest": "c27397913971c230",
        "residual": "gamma(y2)*: [1,y2] ((v^2) / (1 + v^4))*k1; "
                    "[1,y3] (-v^-4)*k1; [y1,y21] (-v^4)*k2; "
                    "[y1,y31] (v^-2 + v^2)*k2; [y2,y31] (v^-2 - v^6)*k2; "
                    "[y2,y32] (v^-2 + v^2)*k2; [y3,y32] (1)*k2; "
                    "[y21,y321] (-v^4)*k3; [y31,y321] ((-v^6) / (1 + v^4))*k3",
        "rhs_digest": "0d4fc4a78d3706ed",
        "statement": "the Gram adjoints of the wedge operators match the "
                     "table",
    }),
    # MISMATCH of two PBW elements
    "prop-cas-to-the-right": ("casimir_right_form", _right_form_plus_k, {
        "details": ["MISMATCH"],
        "lhs_digest": "1073191b1dad4157",
        "residual": "(-1) K(2,0)",
        "rhs_digest": "97a961c244088be3",
        "statement": "the Casimir equals the form with all Levi letters "
                     "moved right",
    }),
}


@pytest.mark.parametrize("check_id", sorted(FAILURES))
def test_failing_entry_is_pinned(check_id, monkeypatch, stages):
    name, value, want = FAILURES[check_id]
    monkeypatch.setattr(checks, name, value)
    ctx = Context()
    ctx._cache = stages
    want = dict(want, check_id=check_id, status="fail")
    assert run_check(check_id, ctx).as_dict() == want
