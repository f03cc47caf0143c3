"""Module-layer tests: fundamental module, exterior algebra, wedge
operators, invariant inner products, quadratic duality."""

import random

import pytest

from qlg2 import pbw, rmatrix
from qlg2.linalg import Matrix
from qlg2.scalar import BR2, ONE, Q_SC as Q, KScalar, q_power as _qp
from qlg2.weights import LAMBDA_V
from qlg2.modules import (
    BASIS_INDEX, BASIS_NAMES, DEGREES, EXT, FUND, ModuleOperator, TensorModule,
    canonical_element_invariance_residuals, gamma_equivariance_residuals,
    golden_action_gamma, golden_gamma_star, golden_levi_Lq, iso_exterior_map,
    quadratic_dual, span_equal, sq_relation_vectors, wedge_relation_vectors,
)

from test_scalar import substitute


# --- fundamental module -----------------------------------------------------

def test_fundamental_matrix_entries():
    from qlg2.scalar import v_power
    assert FUND.E2.terms == {(1, 2): _qp(1)}
    assert FUND.F1.terms == {(1, 0): v_power(-1), (3, 2): v_power(-1)}
    assert FUND.E1.terms == {(0, 1): v_power(1), (2, 3): v_power(1)}
    assert FUND.F2.terms == {(2, 1): _qp(-1)}


def test_fundamental_cartan_weights():
    k1 = FUND.K((2, -1))
    k2 = FUND.K((-2, 2))
    assert k1 == Matrix.diagonal([_qp(1), _qp(-1), _qp(1), _qp(-1)])
    assert k2 == Matrix.diagonal([_qp(0), _qp(2), _qp(-2), _qp(0)])


def test_fundamental_all_relations():
    for name, m in FUND.relation_residuals().items():
        assert m.is_zero, name


def test_relations_on_tensor_powers():
    """Every defining and Serre relation holds on V (x) V and on V^(x)4
    through the shared `relation_residuals`, and the flip P moves Delta(X) of
    each E_i and F_i: the intertwiner rows of prop-cas-general cannot pass
    against a flip-symmetric Delta."""
    VV = TensorModule(FUND, FUND)
    V4 = TensorModule(TensorModule(VV, FUND), FUND)
    assert VV.weights == tuple(a + b for a in LAMBDA_V for b in LAMBDA_V)
    for mod, dim in ((VV, 16), (V4, 256)):
        res = mod.relation_residuals()
        assert len(res) == 16
        for name, m in res.items():
            assert m.shape == (dim, dim) and m.is_zero, name
    P = Matrix({(4 * i + k, 4 * k + i): ONE for i in range(4) for k in range(4)},
               (16, 16))
    moved = [t for t in ("E1", "E2", "F1", "F2", ("K", 2, -1), ("K", -2, 2))
             if P @ VV.rep_token(t) @ P != VV.rep_token(t)]
    assert moved == ["E1", "E2", "F1", "F2"]
    # rep through the shared root matrices agrees with the word products
    for w in (("F1", "E2", "E1"), ("E2", "E1", "E1", "F2"), (("K", 1, 0), "F2", "F1")):
        assert VV.rep(pbw.normal_form(w)) == VV.rep_word(w), w


def test_representation_faithfulness_probe():
    rng = random.Random(42)
    toks = ["E1", "E2", "F1", "F2", ("K", 1, 0), ("K", 0, 1)]
    for _ in range(25):
        w = tuple(rng.choice(toks) for _ in range(rng.randint(1, 5)))
        assert FUND.rep(pbw.normal_form(w)) == FUND.rep_word(w)


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


def test_derived_tables_equal_their_literals():
    # DEGREES and BASIS_NAMES are read off BASIS_WORDS, and the rank-one
    # bases off the root lengths (beta_j, beta_j) / 2
    assert DEGREES == (0, 1, 1, 1, 2, 2, 2, 3)
    assert BASIS_NAMES == ("1", "y1", "y2", "y3", "y21", "y31", "y32", "y321")
    assert rmatrix._ROOT_BASE == {1: 1, 2: 2, 3: 1, 4: 2}


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
    assert EXT.E1 == g["E1"]
    assert EXT.F1 == g["F1"]
    assert EXT.K((2, -1)) == g["K1"]
    assert EXT.K((-2, 2)) == g["K2"]


def test_levi_action_is_representation():
    rng = random.Random(8)
    toks = ["E1", "F1", ("K", 1, 0), ("K", 0, -1)]
    for _ in range(15):
        w = tuple(rng.choice(toks) for _ in range(3))
        # rep_word multiplies the generator matrices without the PBW engine
        assert EXT.rep(pbw.normal_form(w)) == EXT.rep_word(w)


def test_rho_rejects_an_element_outside_the_levi_factor():
    # every entry point: radical E letters, radical F letters (xi_E_star(1)
    # is K_(2,0) times F words with radical letters), and a generator name
    # outside the Levi factor
    for call, arg in ((EXT.rho, pbw.xi_E(1)), (EXT.rep, pbw.xi_E(1)),
                      (EXT.rep, pbw.xi_E_star(1)), (EXT.rep_token, "E2")):
        with pytest.raises(ValueError):
            call(arg)


def test_quadratic_dual():
    basis = quadratic_dual(sq_relation_vectors())
    assert len(basis) == 6
    assert span_equal(basis, wedge_relation_vectors())


def test_quadratic_dual_returns_the_rank_it_finds():
    # the complement of a relation space has 9 minus its rank dimensions,
    # whatever that is: prop-lq-relations, not quadratic_dual, checks the 6
    sq = sq_relation_vectors()
    assert len(quadratic_dual(sq[:-1])) == 7
    assert len(quadratic_dual(sq[:1])) == 8
    assert quadratic_dual(sq + wedge_relation_vectors()) == []


def test_inner_products_match_table():
    blocks = EXT.solve_invariant_inner_products()
    # degree 1: diag(c1, c1/[2], c1 q^-2), normalized c1 = 1
    assert blocks[1] == Matrix.diagonal([ONE, ONE / BR2, _qp(-2)])
    # degree 2: diag(c2, c2 [2], c2 q^-2)
    b2 = blocks[2].terms
    assert b2[0, 0] == ONE and b2[1, 1] == BR2 and b2[2, 2] == _qp(-2)
    assert blocks[0] == Matrix.identity(1, ONE) == blocks[3]


def test_gamma_matches_golden_table():
    g = golden_action_gamma()
    for i in (1, 2, 3):
        assert EXT.gamma(i) == g[i]


def test_gamma_star_matches_golden_table():
    g = golden_gamma_star()
    for i in (1, 2, 3):
        assert EXT.gamma_star(i) == g[i]


def _degree_shift(op):
    """The unique d with entries of op only on blocks deg(row) = deg(col) + d,
    or None if mixed."""
    shifts = {DEGREES[r] - DEGREES[c] for r, c in op.terms}
    if len(shifts) > 1:
        return None
    return shifts.pop() if shifts else 0


def test_gamma_degree_shifts():
    for i in (1, 2, 3):
        assert _degree_shift(EXT.gamma(i)) == 1
        assert _degree_shift(EXT.gamma_star(i)) == -1


def test_adjoint_wrt_gram():
    for i in (1, 2, 3):
        assert EXT.adjoint_wrt_gram(EXT.gamma(i)) == EXT.gamma_star(i)
        # involution
        back = EXT.adjoint_wrt_gram(EXT.gamma_star(i))
        assert back == EXT.gamma(i)
    ident = ModuleOperator.identity()
    assert EXT.adjoint_wrt_gram(ident) == ident
    # adjoint of the Levi action is the action of the star
    def op(m):
        return ModuleOperator({rc: KScalar.from_scalar(x) for rc, x in m.terms.items()})

    for tok, m in (("E1", EXT.E1), ("F1", EXT.F1)):
        m_star = EXT.rep(pbw.star(pbw.normal_form((tok,))))
        assert EXT.adjoint_wrt_gram(op(m)) == op(m_star)


def test_iso_exterior_intertwines_levi_ss_only():
    phi = iso_exterior_map()
    deg1 = (1, 2, 3)
    deg2 = (4, 5, 6)

    for tok in ("E1", "F1", ("K", 2, -1)):
        m = EXT.rep_token(tok)
        assert phi @ m.block(deg1, deg1) == m.block(deg2, deg2) @ phi, tok
    # K2 does not intertwine, in either composition order
    k2 = EXT.K((-2, 2))
    assert phi @ k2.block(deg1, deg1) != k2.block(deg2, deg2) @ phi
    inv_phi = Matrix.diagonal([ONE, BR2, ONE])
    assert inv_phi @ k2.block(deg2, deg2) != k2.block(deg1, deg1) @ inv_phi


def test_canonical_element_invariance():
    for name, m in canonical_element_invariance_residuals().items():
        assert m.is_zero, name


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
    assert substitute(op.terms[0, 2], k1, k2v, k3v) == ONE / BR2
