"""Whole report entries that the golden table in perfbench/ does not pin.

The six D^2 and quotient checks have no golden entry, so the report-level
gates only require them to pass; their full entries are pinned here at both
golden seeds.  The failure-path tests perturb one or two names the check
reads from `qlg2.checks` and pin the entry of the failing check, so the
detail and residual texts of a failure are fixed as well as those of a
pass.  Between them they reach every failing row of the checks that build
their own rows for `checks._verdict`; a case id is the check id, or the
check id and the perturbation when a check has more than one case.  A
wrong R-matrix is built in `qlg2.rmatrix`, so its pin perturbs a name there
and keeps a stage cache of its own."""

import hashlib
from fractions import Fraction
from types import SimpleNamespace

import pytest

import qlg2.checks as checks
import qlg2.rmatrix as rmatrix
from qlg2.checks import Context, run_check
from qlg2.linalg import Matrix
from qlg2.parthasarathy import SpectrumResult
from qlg2.pbw import AE_ZERO, K, AlgebraElement, unit
from qlg2.scalar import ONE, q_power, scalar

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


def _plus_k(orig):
    return lambda: orig() + K(2, 0)


class _SkewedProduct(AlgebraElement):
    """A PBW element whose product from the left adds 1: (ab)c = abc + c
    but a(bc) = abc + a + 1, and a.0.b = b."""

    __slots__ = ()

    def __mul__(self, other):
        return AlgebraElement.__mul__(self, other) + unit()


def _skewed_normal_form(word, orig=checks.normal_form):
    return _SkewedProduct(orig(word).terms)


# the fundamental module with each generator word multiplied out reversed
_FUND_REVERSED = SimpleNamespace(
    rep=checks.FUND.rep, rep_word=lambda w, fund=checks.FUND: fund.rep_word(w[::-1]))


def _blocks_with_off_diagonal(orig=checks.EXT):
    # an off-diagonal entry in degree 1, and degree 2 halved
    b1, b2 = orig.solve_invariant_inner_products()[1:3]
    return [None, Matrix({**b1.terms, (0, 1): ONE}, b1.shape),
            b2.scale(scalar(Fraction(1, 2)))]


_EXT_OFF_DIAGONAL = SimpleNamespace(
    solve_invariant_inner_products=_blocks_with_off_diagonal,
    _gram_hat=checks.EXT._gram_hat)


def _residual_of_scaled_casimir(cm, d2m, kappa3_ratio=None,
                                orig=checks.parthasarathy_residual):
    return orig(cm.scale(q_power(1)), d2m, kappa3_ratio)


def _residual_at_canonical_kappa3(cm, d2m, kappa3_ratio=None,
                                  orig=checks.parthasarathy_residual):
    return orig(cm, d2m)


def _spectrum_neither_positive_nor_monotone(v0, shell_max,
                                            orig=checks.spectrum_growth):
    sp = orig(v0, shell_max)
    return SpectrumResult(sp.rows, sp.shell_minima, False, False)


def _minus_one(*_args):
    return -ONE


def _kappa2_half(orig=checks.solve_kappa_constraints):
    return scalar(Fraction(1, 2)), orig()[1]


def _sq_relations_but_one(orig=checks.sq_relation_vectors):
    # one relation fewer: the orthogonal complement is 7-dimensional
    return orig()[:-1]



# each case: the names perturbed in qlg2.checks, and the failing entry; a
# long residual is pinned by the first 16 hex digits of its sha256
FAILURES = {
    # NONZERO on a matrix
    "lem-levi-lq": ({"golden_levi_Lq": _levi_lq_with_k1_as_k2}, {
        "check_id": "lem-levi-lq",
        "details": ["E1: ok", "F1: ok", "K1: NONZERO", "K2: ok"],
        "lhs_digest": "0e96810b4e53e01d",
        "residual": "K1: [1,1] v^-4 - 1; [2,2] -v^-4 + 1; [3,3] -v^-8 + v^4; "
                    "[5,5] -v^-8 + 1; [6,6] -v^-12 + v^4; [7,7] -v^-12 + 1",
        "rhs_digest": "0d4fc4a78d3706ed",
        "statement": "the Levi action on the full exterior module matches "
                     "the table",
    }),
    # a NO row of a tally
    "lem-kappa-constraints": ({"KAPPA3_RATIO": q_power(-2)}, {
        "check_id": "lem-kappa-constraints",
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
    "lem-action-gamma": ({"golden_action_gamma": _gamma_with_y2_as_y3}, {
        "check_id": "lem-action-gamma",
        "details": ["gamma(y1): ok", "gamma(y2): NONZERO", "gamma(y3): ok"],
        "lhs_digest": "72e008432e923d4f",
        "residual": "gamma(y2): [y2,1] (1); [y3,1] (-1); [y21,y1] (-v^4); "
                    "[y31,y1] (1); [y31,y2] ((v^2 - v^6) / (1 + v^4)); "
                    "[y32,y2] (v^4); [y32,y3] (1); [y321,y21] (-v^4); "
                    "[y321,y31] (-v^4)",
        "rhs_digest": "0d4fc4a78d3706ed",
        "statement": "right wedge multiplication matches the table",
    }),
    "lem-gamma-star": ({"golden_gamma_star": _gamma_star_with_y2_as_y3}, {
        "check_id": "lem-gamma-star",
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
    "prop-cas-to-the-right": (
        {"casimir_right_form": _plus_k(checks.casimir_right_form)}, {
            "check_id": "prop-cas-to-the-right",
            "details": ["MISMATCH"],
            "lhs_digest": "1073191b1dad4157",
            "residual": "(-1) K(2,0)",
            "rhs_digest": "97a961c244088be3",
            "statement": "the Casimir equals the form with all Levi "
                         "letters moved right",
        }),
    # a probe that finds failures: every triple and insertion under a
    # product that adds 1, and the words whose reversal acts differently
    "eq-comm-rel-uqg/skewed-product": ({"normal_form": _skewed_normal_form}, {
        "check_id": "eq-comm-rel-uqg",
        "details": ["1000 associativity triples", "50 relator insertions",
                    "100 representation words"],
        "lhs_digest": "e05ab169960dbb69",
        "residual": "; ".join([f"assoc-{k}" for k in range(1000)]
                              + [f"relator-insertion-{k}" for k in range(50)]),
        "rhs_digest": "3ccc603484888fbc",
        "statement": "randomized associativity, relator-insertion and "
                     "representation probes for the straightening rules",
    }),
    "eq-comm-rel-uqg/reversed-rep-word": ({"FUND": _FUND_REVERSED}, {
        "check_id": "eq-comm-rel-uqg",
        "details": ["1000 associativity triples", "50 relator insertions",
                    "100 representation words"],
        "lhs_digest": "e05ab169960dbb69",
        "residual": "; ".join(f"rep-{k}" for k in (
            2, 5, 7, 10, 11, 13, 14, 15, 17, 19, 20, 21, 22, 28, 36, 40, 42,
            43, 44, 47, 48, 51, 52, 64, 67, 73, 75, 77, 86, 91, 96)),
        "rhs_digest": "3ccc603484888fbc",
        "statement": "randomized associativity, relator-insertion and "
                     "representation probes for the straightening rules",
    }),
    "prop-lq-relations/span-and-degrees": (
        {"span_equal": lambda _vs, _ws: False, "DEGREES": (0, 1, 1, 2)}, {
            "check_id": "prop-lq-relations",
            "details": ["orthogonal complement dimension 6",
                        "graded dimensions (1, 2, 1, 0)",
                        "y1y1 ok", "y3y3 ok", "y2y2 ok"],
            "lhs_digest": "3dee37f82776419e",
            "residual": "complement span differs from wedge relations; "
                        "graded dimensions [1, 2, 1, 0]",
            "rhs_digest": "65106790db4938d4",
            "statement": "the quadratic dual is 6-dimensional and spans the "
                         "wedge relations; graded dimensions (1,3,3,1)",
        }),
    "prop-lq-relations/complement-rank": (
        {"sq_relation_vectors": _sq_relations_but_one}, {
            "check_id": "prop-lq-relations",
            "details": ["orthogonal complement dimension 7",
                        "graded dimensions (1, 3, 3, 1)",
                        "y1y1 ok", "y3y3 ok", "y2y2 ok"],
            "lhs_digest": "3dee37f82776419e",
            "residual": "orthogonal complement dimension 7; "
                        "complement span differs from wedge relations",
            "rhs_digest": "65106790db4938d4",
            "statement": "the quadratic dual is 6-dimensional and spans the "
                         "wedge relations; graded dimensions (1,3,3,1)",
        }),
    "prop-lq-relations/br2-one": ({"BR2": ONE}, {
        "check_id": "prop-lq-relations",
        "details": ["orthogonal complement dimension 6",
                    "complement spans the six wedge relations",
                    "graded dimensions (1, 3, 3, 1)", "y1y1 ok", "y3y3 ok"],
        "lhs_digest": "3dee37f82776419e",
        "residual": "y2y2",
        "rhs_digest": "65106790db4938d4",
        "statement": "the quadratic dual is 6-dimensional and spans the "
                     "wedge relations; graded dimensions (1,3,3,1)",
    }),
    # constant denominators in the detail texts
    "lem-inner-prod/off-diagonal": ({"EXT": _EXT_OFF_DIAGONAL}, {
        "check_id": "lem-inner-prod",
        "details": ["deg1 entry 0: ok", "deg1 entry 1: ok", "deg1 entry 2: ok",
                    "deg2 entry 0: 1/2", "deg2 entry 1: 1/2*v^-2 + 1/2*v^2",
                    "deg2 entry 2: 1/2*v^-4", "one free constant per degree"],
        "lhs_digest": "fb3e5a9207d81dc3",
        "residual": "deg2[0]; deg2[1]; deg2[2]; deg1 off-diagonal [(0, 1)]",
        "rhs_digest": "ef74a3ee64b670a9",
        "statement": "the invariant inner products are diagonal with the "
                     "stated entries, one free constant per degree",
    }),
    "lem-kappa-constraints/kappa2-half": (
        {"solve_kappa_constraints": _kappa2_half}, {
            "check_id": "lem-kappa-constraints",
            "details": ["kappa_2/kappa_1 = 1/2: NO",
                        "kappa_3/kappa_1 = v^-8: ok",
                        "degrees 0 and 3 unconstrained: ok"],
            "lhs_digest": "9bf66f7091a81196",
            "residual": "kappa2 ratio; mixed component after substitution",
            "rhs_digest": "76ba8a893bb6c3ec",
            "statement": "the mixed component vanishes exactly for the "
                         "stated inner-product ratios, uniquely",
        }),
    "prop-casimir-rmatrix/eigenvalue": ({"casimir_eigenvalue": _minus_one}, {
        "check_id": "prop-casimir-rmatrix",
        "details": ["constructed equals explicit form",
                    "acts as c_omega1 on the fundamental module: NO"],
        "lhs_digest": "1073191b1dad4157",
        "residual": "fundamental eigenvalue",
        "rhs_digest": "1073191b1dad4157",
        "statement": "the constructed Casimir equals its explicit PBW form "
                     "and acts by its eigenvalue on the fundamental module",
    }),
    "prop-casimir-rmatrix/explicit-plus-k": (
        {"casimir_explicit": _plus_k(checks.casimir_explicit)}, {
            "check_id": "prop-casimir-rmatrix",
            "details": ["MISMATCH",
                        "acts as c_omega1 on the fundamental module: ok"],
            "lhs_digest": "1073191b1dad4157",
            "residual": "(-1) K(2,0)",
            "rhs_digest": "97a961c244088be3",
            "statement": "the constructed Casimir equals its explicit PBW "
                         "form and acts by its eigenvalue on the fundamental "
                         "module",
        }),
    "cor-value-casimir/eigenvalue": ({"casimir_eigenvalue": _minus_one}, {
        "check_id": "cor-value-casimir",
        "details": ["weight 0 MISMATCH", "omega1 MISMATCH",
                    "positivity at v=1/3 on 5 samples: NO"],
        "lhs_digest": "a9939b292685cfce",
        "residual": "c at weight 0; c at omega1; positivity",
        "rhs_digest": "ef7681d5706ce815",
        "statement": "the eigenvalue formula matches the pairing oracles and "
                     "is positive",
    }),
    # the radical residual, and both negative controls failing to fail
    "thm-parthasarathy/scaled-casimir": (
        {"parthasarathy_residual": _residual_of_scaled_casimir}, {
            "check_id": "thm-parthasarathy",
            "details": [
                "constant kappa_1 * (v^12) / (1 + 2*v^4 + v^8)",
                "pure Levi remainder retained (reported, nonzero: True)",
                "negative control: perturbed kappa_3 breaks the identity",
            ] + [f"negative control: dropped quantum term {k} breaks it"
                 for k in range(6)],
            "lhs_digest": "ffe64f5f73afa8df",
            "residual": "sha256:11bc8ae5e18881b4",
            "rhs_digest": "b5a8ab1051cb320b",
            "statement": "the Dirac square equals the scaled Casimir up to a "
                         "pure Levi remainder; negative controls fail",
        }),
    "thm-parthasarathy/controls-unbroken": (
        {"parthasarathy_residual": _residual_at_canonical_kappa3,
         "casimir_quantum_terms": lambda: [AE_ZERO]}, {
            "check_id": "thm-parthasarathy",
            "details": [
                "constant kappa_1 * (v^12) / (1 + 2*v^4 + v^8)",
                "all nine radical components vanish",
                "pure Levi remainder retained (reported, nonzero: True)",
            ],
            "lhs_digest": "ffe64f5f73afa8df",
            "residual": "perturbed kappa_3 fails to break the identity; "
                        "dropping quantum term 0 fails to break the identity",
            "rhs_digest": "b5a8ab1051cb320b",
            "statement": "the Dirac square equals the scaled Casimir up to a "
                         "pure Levi remainder; negative controls fail",
        }),
    "thm-spectral-triple/flags": (
        {"spectrum_growth": _spectrum_neither_positive_nor_monotone}, {
            "check_id": "thm-spectral-triple",
            "details": ["231 dominant weights, shells 0..20"],
            "lhs_digest": "dce5ba758cad4841",
            "residual": "nonpositive eigenvalue; shell minima not strictly "
                        "increasing",
            "rhs_digest": "21d6954628731cc3",
            "statement": "Casimir eigenvalues grow without bound: positive "
                         "values and strictly increasing shell minima",
        }),
    "def-dolb-dirac": ({"dirac_self_adjoint": lambda: False}, {
        "check_id": "def-dolb-dirac",
        "details": ["formal self-adjointness"],
        "lhs_digest": "04645d922551839d",
        "residual": "D* - D nonzero",
        "rhs_digest": "3f39d5c348e5b79d",
        "statement": "the Dirac element is formally self-adjoint",
    }),
    "eq-relation-cliff": ({"m_well_definedness_probe": lambda *_args: 3}, {
        "check_id": "eq-relation-cliff",
        "details": ["8 randomized probes"],
        "lhs_digest": "c38e92b20922aad8",
        "residual": "3 probe failures",
        "rhs_digest": "e4e2db94d8b9eeb7",
        "statement": "the quotient-module reduction is well defined "
                     "(randomized probe)",
    }),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failing_entry_is_pinned(case, monkeypatch, stages):
    patches, want = FAILURES[case]
    for name, value in patches.items():
        monkeypatch.setattr(checks, name, value)
    ctx = Context()
    ctx._cache = stages
    got = run_check(want["check_id"], ctx).as_dict()
    want = dict(want, status="fail")
    if want["residual"].startswith("sha256:"):
        got["residual"] = "sha256:" + hashlib.sha256(
            got["residual"].encode()).hexdigest()[:16]
    assert got == want


def _beta4_factor_doubled(j, r, orig=rmatrix.factor_coefficient):
    c = orig(j, r)
    return c * 2 if (j, r) == (4, 1) else c


def test_failing_rmatrix_entry_is_pinned(monkeypatch):
    # a wrong R-matrix fails prop-cas-general on its intertwiner and
    # centrality rows instead of raising in the build, and the checks that
    # read R fail too; a stage cache of its own keeps this R-matrix out of
    # the shared `stages`, where it would be skipped or carried into the
    # other pins
    monkeypatch.setattr(rmatrix, "factor_coefficient", _beta4_factor_doubled)
    ctx = Context()
    got = run_check("prop-cas-general", ctx).as_dict()
    got["residual"] = "sha256:" + hashlib.sha256(
        got["residual"].encode()).hexdigest()[:16]
    assert got == {
        "check_id": "prop-cas-general",
        "details": [f"beta{j}-order-2-vanishes: ok" for j in (4, 3, 2, 1)]
        + [f"intertwiner {g}: NO" for g in ("E1", "E2", "F1", "F2")]
        + ["intertwiner K1: ok", "intertwiner K2: ok"]
        + [f"central against {g}: NO" for g in ("E1", "E2", "F1", "F2")]
        + ["central against K(2, -1): ok", "central against K(-2, 2): ok"],
        "lhs_digest": "60d918ddafea10d9",
        "residual": "sha256:a74883367c602544",
        "rhs_digest": "984bc100c13c335a",
        "statement": "the truncated R-matrix is an exact intertwiner and the "
                     "quantum trace pairing is central",
        "status": "fail",
    }
    for check_id in ("prop-casimir-rmatrix", "prop-cas-to-the-right",
                     "prop-casimir-clifford", "thm-parthasarathy"):
        assert run_check(check_id, ctx).status == "fail", check_id
