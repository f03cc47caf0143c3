"""Acceptance suite: the ten exit criteria, one test per criterion.

Every criterion is an exact identity (no tolerances) except the numeric
growth check, which uses exact rational comparisons at v = 1/2.  Each test
prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see them.
"""

from fractions import Fraction

import pytest

from qlg2.linalg import Matrix
from qlg2.scalar import BR2, ONE, Q_SC as Q, q_power as _qp
from qlg2 import pbw
from qlg2.pbw import levi_right_split, unit, xi_E, xi_E_star
from qlg2.modules import (
    DEGREES, EXT, FUND, quadratic_dual, span_equal, sq_relation_vectors,
    wedge_relation_vectors,
)
from qlg2.rmatrix import (
    TruncatedRMatrix, casimir_eigenvalue, casimir_explicit, casimir_quantum_terms,
    casimir_right_form, centrality_residuals, quantum_trace_pairing,
)
from qlg2.parthasarathy import (
    KAPPA2_RATIO, KAPPA3_RATIO, casimir_in_M, dirac_squared, dolbeault_squares,
    gamma_identities_after_kappa, gamma_pair_formula, parthasarathy_residual,
    solve_kappa_constraints, spectrum_growth,
)


def _report(n, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {label}")
    assert ok, f"criterion {n}: {label}"


@pytest.fixture(scope="module")
def casimir():
    return quantum_trace_pairing(TruncatedRMatrix.build())


@pytest.fixture(scope="module")
def d2m():
    return dirac_squared()


def test_criterion_1_fundamental_relations():
    residuals = FUND.relation_residuals()
    ok = all(m.is_zero for m in residuals.values())
    serre = [k for k in residuals if k.startswith("serre")]
    _report(1, f"all {len(residuals)} defining relations (incl. {len(serre)} "
               "Serre) hold exactly in the fundamental module", ok)


def test_criterion_2_symmetric_algebra_relations():
    r1 = xi_E(1) * xi_E(2) - _qp(2) * (xi_E(2) * xi_E(1))
    r2 = xi_E(2) * xi_E(3) - _qp(2) * (xi_E(3) * xi_E(2))
    r3 = xi_E(1) * xi_E(3) - xi_E(3) * xi_E(1) - (Q * _qp(1) / BR2) * (xi_E(2) * xi_E(2))
    ok = r1.is_zero and r2.is_zero and r3.is_zero
    _report(2, "the three quadratic relations of the radical subalgebra "
               "reduce to zero", ok)


def test_criterion_3_adjoint_action_tables():
    up = {
        (("K", 2, -1), 1): _qp(2) * xi_E(1), (("K", 2, -1), 2): xi_E(2),
        (("K", 2, -1), 3): _qp(-2) * xi_E(3),
        (("K", -2, 2), 1): xi_E(1), (("K", -2, 2), 2): _qp(2) * xi_E(2),
        (("K", -2, 2), 3): _qp(4) * xi_E(3),
        ("E1", 1): pbw.AE_ZERO, ("E1", 2): BR2 * xi_E(1), ("E1", 3): xi_E(2),
        ("F1", 1): xi_E(2), ("F1", 2): BR2 * xi_E(3), ("F1", 3): pbw.AE_ZERO,
    }
    ok = all(pbw.adjoint_action(tok, xi_E(i)) == want
             for (tok, i), want in up.items())
    # dual side, all 12 entries of the degree-one exterior action
    from qlg2.scalar import ZERO
    um = {
        ("K1", 1): {1: _qp(-2)}, ("K1", 2): {2: ONE}, ("K1", 3): {3: _qp(2)},
        ("K2", 1): {1: ONE}, ("K2", 2): {2: _qp(-2)}, ("K2", 3): {3: _qp(-4)},
        ("E1", 1): {2: -BR2}, ("E1", 2): {3: -_qp(2)}, ("E1", 3): {},
        ("F1", 1): {}, ("F1", 2): {1: -ONE}, ("F1", 3): {2: -(BR2 * _qp(-2))},
    }
    mats = {"K1": EXT.K((2, -1)), "K2": EXT.K((-2, 2)),
            "E1": EXT.E1, "F1": EXT.F1}
    for (tok, j), want in um.items():
        for i in (1, 2, 3):
            ok = ok and mats[tok].terms.get((i, j), ZERO) == want.get(i, ZERO)
    _report(3, "all 12 + 12 adjoint-action table entries reproduce exactly", ok)


def test_criterion_4_quadratic_dual():
    basis = quadratic_dual(sq_relation_vectors())
    ok = len(basis) == 6 and span_equal(basis, wedge_relation_vectors())
    dims = [DEGREES.count(d) for d in range(4)]
    ok = ok and dims == [1, 3, 3, 1]
    _report(4, "quadratic dual is 6-dimensional, spans the wedge relations, "
               "graded dimensions (1,3,3,1)", ok)


def test_criterion_5_mod_levi_commutation():
    golden = {
        (1, 1): {(1, 0, 0, 1, 0, 0): _qp(-4),
                 (0, 1, 0, 0, 1, 0): -(Q * _qp(-2)),
                 (0, 0, 1, 0, 0, 1): Q * Q * BR2 * _qp(-3)},
        (2, 2): {(0, 1, 0, 0, 1, 0): _qp(-2),
                 (0, 0, 1, 0, 0, 1): -(Q * BR2 * BR2 * _qp(-4))},
        (3, 3): {(0, 0, 1, 0, 0, 1): _qp(-4)},
        (1, 2): {(0, 1, 0, 1, 0, 0): _qp(-2),
                 (0, 0, 1, 0, 1, 0): -(Q * BR2 * _qp(-2))},
        (1, 3): {(0, 0, 1, 1, 0, 0): ONE},
        (2, 3): {(0, 0, 1, 0, 1, 0): _qp(-2)},
    }
    ok = True
    for (i, j), want in golden.items():
        parts = dict(levi_right_split(xi_E(i) * xi_E_star(j)))
        radical = {u: l for u, l in parts.items() if u != (0, 0, 0, 0, 0, 0)}
        ok = ok and set(radical) == set(want)
        ok = ok and all(radical[u] == c * unit() for u, c in want.items())
        ok = ok and all(l.is_levi() for u, l in parts.items()
                        if u == (0, 0, 0, 0, 0, 0))
    _report(5, "all six mod-Levi commutation relations recovered with exact "
               "coefficients", ok)


def test_criterion_6_casimir(casimir):
    ok = casimir == casimir_explicit()
    ok = ok and casimir == casimir_right_form()
    ok = ok and all(r.is_zero for r in centrality_residuals(casimir).values())
    c = casimir_eigenvalue((1, 0))
    ok = ok and FUND.rep(casimir) == Matrix.identity(4, c)
    _report(6, "R-matrix Casimir equals both closed forms, is central, and "
               "acts by its eigenvalue on the fundamental module", ok)


def test_criterion_7_square_zero():
    d_sq, ds_sq = dolbeault_squares()
    ok = d_sq.is_zero and ds_sq.is_zero
    _report(7, "the Dolbeault element and its adjoint square to zero as "
               "matrix-valued identities", ok)


def test_criterion_8_kappa_constraints(d2m):
    s2, s3 = solve_kappa_constraints()
    ok = s2 == KAPPA2_RATIO == _qp(-2) / BR2
    ok = ok and s3 == KAPPA3_RATIO == _qp(-4)
    ok = ok and gamma_pair_formula(1, 3).substitute_ratios(s2, s3).is_zero
    res = gamma_identities_after_kappa(d2m)
    ok = ok and len(res) == 9 and all(m.is_zero for m in res.values())
    _report(8, "unique inner-product ratios and all nine component identities "
               "after substitution", ok)


def test_criterion_9_parthasarathy(casimir, d2m):
    cm = casimir_in_M(casimir)
    diff, _ = parthasarathy_residual(cm, d2m)
    ok = diff.radical_is_zero
    # negative controls must fail
    bad, _ = parthasarathy_residual(cm, d2m, kappa3_ratio=KAPPA3_RATIO * (1 + Q))
    ok = ok and not bad.radical_is_zero
    for term in casimir_quantum_terms():
        bad, _ = parthasarathy_residual(cm - casimir_in_M(term), d2m)
        ok = ok and not bad.radical_is_zero
    _report(9, "Dirac square equals the scaled Casimir up to a pure Levi "
               "remainder; perturbed and mutilated inputs fail", ok)


def test_criterion_10_spectrum():
    sp = spectrum_growth(Fraction(1, 2), 20)
    ok = sp.positive and sp.monotone and len(sp.rows) == 231
    ok = ok and all(num > 0 and den > 0 for _, _, num, den in sp.rows)
    _report(10, "all 231 eigenvalues at v = 1/2 positive with strictly "
                "increasing shell minima up to shell 20", ok)
