"""Module-layer tests: fundamental module, exterior algebra, wedge
operators, invariant inner products, quadratic duality."""

import random

import pytest

from qlg2 import pbw
from qlg2.linalg import meq, miszero, mmul
from qlg2.scalar import BR2, ONE, Q_SC, ZERO, q_power
from qlg2.modules import (
    BASIS_INDEX, DEGREES, EXT, FUND, ModuleOperator,
    canonical_element_invariance_residuals, gamma_equivariance_residuals,
    golden_action_gamma, golden_gamma_star, golden_levi_Lq, iso_exterior_map,
    quadratic_dual, span_equal, sq_relation_vectors, wedge_relation_vectors,
)

Q = Q_SC


def _qp(n):
    return q_power(n)


# --- fundamental module -----------------------------------------------------

def test_fundamental_matrix_entries():
    from qlg2.scalar import v_power
    assert FUND.E2[1][2] == _qp(1)
    assert FUND.F1[1][0] == v_power(-1)
    assert FUND.E1[0][1] == v_power(1)
    assert FUND.F2[2][1] == _qp(-1)


def test_fundamental_cartan_weights():
    k1 = FUND.K((2, -1))
    k2 = FUND.K((-2, 2))
    assert [k1[j][j] for j in range(4)] == [_qp(1), _qp(-1), _qp(1), _qp(-1)]
    assert [k2[j][j] for j in range(4)] == [_qp(0), _qp(2), _qp(-2), _qp(0)]


def test_fundamental_all_relations():
    for name, m in FUND.relation_residuals().items():
        assert miszero(m), name


def test_representation_faithfulness_probe():
    rng = random.Random(42)
    toks = ["E1", "E2", "F1", "F2", ("K", 1, 0), ("K", 0, 1)]
    for _ in range(25):
        w = tuple(rng.choice(toks) for _ in range(rng.randint(1, 5)))
        assert meq(FUND.rep(pbw.normal_form(w)), FUND.rep_word(w))


def test_f_vanish():
    rep = FUND.f_vanish_report()
    assert len(rep) == 13
    assert all(rep.values())
    # the two non-vanishing products really are non-zero
    assert rep["F3F1-nonzero"] and rep["F4F1-nonzero"]


# --- exterior algebra --------------------------------------------------------

def test_graded_dimensions():
    dims = [DEGREES.count(d) for d in range(4)]
    assert dims == [1, 3, 3, 1]


def test_wedge_relations():
    w = EXT.wedge
    v = lambda i: {i: ONE}
    assert w(v(1), v(1)) == {}
    assert w(v(3), v(3)) == {}
    # y2 ^ y2 = Q q/[2] y1 ^ y3 = -Q q/[2] y31
    assert w(v(2), v(2)) == {BASIS_INDEX[(3, 1)]: -(Q * _qp(1) / BR2)}
    lhs = w(v(1), v(2))
    rhs = {k: -( _qp(2) * c) for k, c in w(v(2), v(1)).items()}
    assert lhs == rhs
    lhs = w(v(2), v(3))
    rhs = {k: -( _qp(2) * c) for k, c in w(v(3), v(2)).items()}
    assert lhs == rhs
    assert w(v(1), v(3)) == {k: -c for k, c in w(v(3), v(1)).items()}


def test_wedge_associativity():
    v = lambda i: {i: ONE}
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for c in (1, 2, 3):
                assert EXT.wedge(EXT.wedge(v(a), v(b)), v(c)) == \
                    EXT.wedge(v(a), EXT.wedge(v(b), v(c)))


def test_levi_action_matches_golden_table():
    g = golden_levi_Lq()
    assert meq(EXT.E1, g["E1"])
    assert meq(EXT.F1, g["F1"])
    assert meq(EXT.K((2, -1)), g["K1"])
    assert meq(EXT.K((-2, 2)), g["K2"])


def test_levi_action_is_representation():
    rng = random.Random(8)
    toks = ["E1", "F1", ("K", 1, 0), ("K", 0, -1)]
    for _ in range(15):
        w = tuple(rng.choice(toks) for _ in range(3))
        x = pbw.normal_form(w)
        direct = None
        for tok in w:
            m = EXT.rep_token(tok)
            direct = m if direct is None else mmul(direct, m, ZERO)
        assert meq(EXT.rep(x), direct)


def test_rho_rejects_an_element_outside_the_levi_factor():
    with pytest.raises(ValueError):
        EXT.rho(pbw.xi_E(1))


def test_quadratic_dual():
    basis = quadratic_dual(sq_relation_vectors())
    assert len(basis) == 6
    assert span_equal(basis, wedge_relation_vectors())


def test_quadratic_dual_errors_on_wrong_rank():
    # feeding the relations twice halves the complement
    with pytest.raises(ValueError):
        quadratic_dual(sq_relation_vectors() + wedge_relation_vectors())


def test_inner_products_match_table():
    blocks = EXT.solve_invariant_inner_products()
    # degree 1: diag(c1, c1/[2], c1 q^-2), normalized c1 = 1
    b1 = blocks[1]
    assert b1[0][0] == ONE and b1[1][1] == ONE / BR2 and b1[2][2] == _qp(-2)
    assert all(b1[i][j].is_zero for i in range(3) for j in range(3) if i != j)
    # degree 2: diag(c2, c2 [2], c2 q^-2)
    b2 = blocks[2]
    assert b2[0][0] == ONE and b2[1][1] == BR2 and b2[2][2] == _qp(-2)
    assert blocks[0][0][0] == ONE and blocks[3][0][0] == ONE


def test_gamma_matches_golden_table():
    g = golden_action_gamma()
    for i in (1, 2, 3):
        assert EXT.gamma(i) == g[i]


def test_gamma_star_matches_golden_table():
    g = golden_gamma_star()
    for i in (1, 2, 3):
        assert EXT.gamma_star(i) == g[i]


def test_gamma_degree_shifts():
    for i in (1, 2, 3):
        assert EXT.gamma(i).degree_shift() == 1
        assert EXT.gamma_star(i).degree_shift() == -1


def test_adjoint_wrt_gram():
    for i in (1, 2, 3):
        assert EXT.adjoint_wrt_gram(EXT.gamma(i)) == EXT.gamma_star(i)
        # involution
        back = EXT.adjoint_wrt_gram(EXT.gamma_star(i))
        assert back == EXT.gamma(i)
    ident = ModuleOperator.identity()
    assert EXT.adjoint_wrt_gram(ident) == ident
    # adjoint of the Levi action is the action of the star
    adj = EXT.adjoint_wrt_gram(ModuleOperator.lift(EXT.E1))
    assert adj == ModuleOperator.lift(EXT.rep_star_matrix("E1"))
    adj = EXT.adjoint_wrt_gram(ModuleOperator.lift(EXT.F1))
    assert adj == ModuleOperator.lift(EXT.rep_star_matrix("F1"))


def test_iso_exterior_intertwines_levi_ss_only():
    phi = iso_exterior_map()
    deg1 = (1, 2, 3)
    deg2 = (4, 5, 6)

    def block(m, rows, cols):
        return [[m[r][c] for c in cols] for r in rows]

    for tok in ("E1", "F1", ("K", 2, -1)):
        m = EXT.rep_token(tok)
        lhs = mmul(phi, block(m, deg1, deg1), ZERO)
        rhs = mmul(block(m, deg2, deg2), phi, ZERO)
        assert meq(lhs, rhs), tok
    # K2 does not intertwine, in either composition order
    k2 = EXT.K((-2, 2))
    lhs = mmul(phi, block(k2, deg1, deg1), ZERO)
    rhs = mmul(block(k2, deg2, deg2), phi, ZERO)
    assert not meq(lhs, rhs)
    inv_phi = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    inv_phi[1][1] = BR2
    lhs = mmul(inv_phi, block(k2, deg2, deg2), ZERO)
    rhs = mmul(block(k2, deg1, deg1), inv_phi, ZERO)
    assert not meq(lhs, rhs)


def test_canonical_element_invariance():
    for name, m in canonical_element_invariance_residuals().items():
        assert miszero(m), name


def test_gamma_equivariance():
    res = gamma_equivariance_residuals()
    assert len(res) == 12
    for key, m in res.items():
        assert m.is_zero, key


def test_module_operator_kappa_substitution():
    op = EXT.gamma_star(2)
    k1 = ONE
    k2v = _qp(-2) / BR2
    k3v = _qp(-4)
    # spot value: gamma(y2)* y2 = kappa_1/[2]
    assert op.terms[0, 2].substitute(k1, k2v, k3v) == ONE / BR2
