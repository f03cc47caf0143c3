"""Dirac-square tests: the Dolbeault element, the quotient module M, the
kappa constraints and the Casimir comparison."""

from fractions import Fraction

import pytest

from qlg2.scalar import BR2, ONE, Q_SC, kappa, q_power
from qlg2.checks import Context, check_parthasarathy
from qlg2.modules import EXT
from qlg2.pbw import K, antipode, normal_form, star
from qlg2.rmatrix import (
    casimir_eigenvalue, casimir_quantum_terms, quantum_trace_pairing,
)
from qlg2.parthasarathy import (
    KAPPA2_RATIO, KAPPA3_RATIO, PARTHASARATHY_CONSTANT, casimir_in_M,
    dirac_self_adjoint, dirac_squared,
    dolbeault, dolbeault_invariance_residuals, gamma_identities_after_kappa,
    gamma_pair_formula, m_well_definedness_probe, parthasarathy_residual,
    solve_kappa_constraints, spectrum_growth, _u_key,
)

Q = Q_SC


def _qp(n):
    return q_power(n)


@pytest.fixture(scope="module")
def d2m():
    return dirac_squared()


@pytest.fixture(scope="module")
def casimir():
    return quantum_trace_pairing()


def test_dolbeault_squares_to_zero():
    d = dolbeault()
    assert len(d.terms) == 3
    assert (d * d).is_zero
    ds = d.star()
    assert (ds * ds).is_zero


def test_dirac_formally_self_adjoint():
    assert dirac_self_adjoint()


def test_dolbeault_invariance():
    for name, t in dolbeault_invariance_residuals().items():
        assert t.is_zero, name


def test_dirac_square_components_match_formulas(d2m):
    keys = set(d2m.terms)
    expected = {_u_key(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}
    expected.add((0, 0, 0, 0, 0, 0))
    assert keys <= expected
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert d2m.component(_u_key(i, j)) == gamma_pair_formula(i, j), (i, j)


def test_gamma_pair_adjoint_symmetry():
    for i, j in ((1, 2), (1, 3), (2, 3)):
        assert gamma_pair_formula(j, i) == EXT.adjoint_wrt_gram(gamma_pair_formula(i, j))


def test_kappa_constraints():
    s2, s3 = solve_kappa_constraints()
    assert s2 == KAPPA2_RATIO
    assert s3 == KAPPA3_RATIO
    assert KAPPA2_RATIO == _qp(-2) / BR2
    assert KAPPA3_RATIO == _qp(-4)
    # after substitution the mixed component vanishes on all eight vectors
    g13 = gamma_pair_formula(1, 3).substitute_ratios(s2, s3)
    assert g13.is_zero


def test_kappa_constraints_trivial_in_degrees_0_and_3():
    g13 = gamma_pair_formula(1, 3)
    # columns of the empty word and the top word carry no constraint
    assert g13.terms
    assert all(c not in (0, 7) for _r, c in g13.terms)


def test_gamma_identities_after_kappa(d2m):
    res = gamma_identities_after_kappa(d2m)
    assert len(res) == 9
    for key, op in res.items():
        assert op.is_zero, key


def test_gamma_22_closed_form(d2m):
    # spot check of one diagonal identity against an independently built
    # right-hand side
    s2, s3 = KAPPA2_RATIO, KAPPA3_RATIO
    got = d2m.component(_u_key(2, 2)).substitute_ratios(s2, s3)
    k2l1 = K(2, 0)
    k2l2 = K(-2, 2)
    e1 = normal_form(("E1",))
    ksee = k2l1 * antipode(star(e1) * e1)
    rhs = (EXT.rho(k2l1).scale(_qp(-3))
           + EXT.rho(k2l2).scale(_qp(3))
           - EXT.rho(k2l1).scale(Q * Q * BR2)
           + EXT.rho(ksee).scale(Q * Q))
    rhs = rhs.scale(kappa(1) * (ONE / (BR2 * BR2)))
    assert got == rhs


def test_casimir_in_M_components(casimir):
    cm = casimir_in_M(casimir)
    k2l1 = K(2, 0)
    k2l2 = K(-2, 2)
    e1 = normal_form(("E1",))
    kse = k2l1 * antipode(e1)
    ksee = k2l1 * antipode(star(e1) * e1)

    def op(x):
        return EXT.rho(x)

    # diagonal components
    assert cm.component(_u_key(1, 1)) == op(k2l1).scale(BR2 * BR2 * _qp(-4))
    want22 = (op(k2l1).scale(_qp(-5) - Q * _qp(-2)) + op(k2l2).scale(_qp(-1))
              + op(ksee).scale(Q * Q * _qp(-4)))
    assert cm.component(_u_key(2, 2)) == want22
    want33 = (op(k2l2).scale(_qp(-4)) - op(k2l1).scale(Q * _qp(-5))
              + op(ksee).scale(Q * Q * _qp(-7))).scale(BR2 * BR2)
    assert cm.component(_u_key(3, 3)) == want33
    # mixed components
    assert cm.component(_u_key(1, 2)) == op(kse).scale(-(Q * BR2 * _qp(-3)))
    assert cm.component(_u_key(2, 1)) == op(star(kse)).scale(-(Q * BR2 * _qp(-3)))
    assert cm.component(_u_key(2, 3)) == op(kse).scale(-(Q * BR2 * _qp(-5)))
    assert cm.component(_u_key(3, 2)) == op(star(kse)).scale(-(Q * BR2 * _qp(-5)))
    # the (1,3) and (3,1) terms are absent
    assert cm.component(_u_key(1, 3)).is_zero
    assert cm.component(_u_key(3, 1)).is_zero


def test_parthasarathy(d2m, casimir):
    diff, levi = parthasarathy_residual(casimir_in_M(casimir), d2m)
    assert diff.radical_is_zero
    assert PARTHASARATHY_CONSTANT == _qp(4) / (BR2 * BR2)
    # the Levi remainder is genuinely nonzero and is only reported
    assert not levi.is_zero


def test_parthasarathy_negative_control_kappa(d2m, casimir):
    diff, _ = parthasarathy_residual(
        casimir_in_M(casimir), d2m, kappa3_ratio=KAPPA3_RATIO * (1 + Q))
    assert not diff.radical_is_zero


def test_parthasarathy_negative_control_dropped_term(d2m, casimir):
    # dropping the first quantum term of the Casimir breaks the identity
    cm = casimir_in_M(casimir) - casimir_in_M(casimir_quantum_terms()[0])
    diff, _ = parthasarathy_residual(cm, d2m)
    assert not diff.radical_is_zero


def test_casimir_in_m_is_linear_in_each_quantum_term(casimir):
    # the dropped-term controls reduce C - t_k as casimir_in_M(C) minus the
    # reduction of t_k
    cm = casimir_in_M(casimir)
    for k, term in enumerate(casimir_quantum_terms()):
        assert casimir_in_M(casimir - term) == cm - casimir_in_M(term), k


def test_parthasarathy_check_reduces_at_context_degree_cap(d2m, casimir):
    # D^2 comes reduced at the default cap, so only the Casimir reductions
    # of the check (ctx.casimir_m and the six quantum terms) can meet the
    # cap of 0
    ctx = Context(degree_cap=0)
    ctx._cache.update(d2m=d2m, casimir=casimir)
    with pytest.raises(ValueError, match="exceeds degree cap 0"):
        check_parthasarathy(ctx)


def test_m_well_definedness():
    assert m_well_definedness_probe(seed=11, trials=4) == 0


def test_spectrum_growth():
    sp = spectrum_growth(Fraction(1, 2), 5)
    assert len(sp.rows) == 21
    assert sp.monotone and sp.positive
    # row (0,0) agrees with the eigenvalue at lam = 0
    from qlg2.rmatrix import casimir_eigenvalue
    assert sp.rows[0][2] == casimir_eigenvalue((0, 0)).evaluate(Fraction(1, 2))
    with pytest.raises(ValueError):
        spectrum_growth(Fraction(3, 2), 3)
    with pytest.raises(ValueError):
        spectrum_growth(Fraction(1, 1), 3)


@pytest.mark.parametrize("v0", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 7)])
def test_spectrum_rows_equal_symbolic_eigenvalues(v0):
    # the direct Fraction rows against the reduced Scalar c_L evaluated at v0
    sp = spectrum_growth(v0, 20)
    assert [row[:2] for row in sp.rows] == [
        (n1, n2) for n1 in range(21) for n2 in range(21 - n1)]
    for n1, n2, val in sp.rows:
        assert val == casimir_eigenvalue((n1, n2)).evaluate(v0)
