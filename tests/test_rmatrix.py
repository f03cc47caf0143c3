"""Casimir tests: truncated R-matrix, quantum trace, closed forms,
centrality, eigenvalues."""

import itertools
import random
from fractions import Fraction

import pytest

from qlg2.linalg import Matrix
from qlg2.scalar import BR2, ONE, Q_SC as Q, ZERO, laurent_q, q_power as _qp
from qlg2.modules import FUND
from qlg2.pbw import coproduct, normal_form, root_E, star
from qlg2.rmatrix import (
    TruncatedRMatrix, casimir_eigenvalue, casimir_explicit, coproduct_matrices,
    casimir_quantum_parts, casimir_right_form, centrality_residuals,
    factor_coefficient, quantum_trace_pairing,
)

from test_pbw import coproduct_word


def test_factor_coefficients():
    # single-step coefficients: -(q_beta - q_beta^-1)
    assert factor_coefficient(1, 1) == -Q
    assert factor_coefficient(3, 1) == -Q
    assert factor_coefficient(2, 1) == -(Q * BR2)
    assert factor_coefficient(4, 1) == -(Q * BR2)
    assert factor_coefficient(1, 0) == ONE
    # products over disjoint factors
    assert factor_coefficient(1, 1) * factor_coefficient(3, 1) == Q * Q
    assert factor_coefficient(1, 1) * factor_coefficient(4, 1) == Q * Q * BR2


def test_truncation_is_exact():
    R = TruncatedRMatrix.build()
    assert all(R.truncation_checks.values())
    assert len(R.truncation_checks) == 4


def test_intertwiner_property():
    R = TruncatedRMatrix.build()
    for tok, m in R.intertwiner_residuals().items():
        assert m.is_zero, tok


def test_build_keeps_the_residuals_it_checked():
    # prop-cas-general reads the stored dict instead of a second pass
    R = TruncatedRMatrix.build()
    assert list(R.intertwiner) == ["E1", "E2", "F1", "F2", "K1", "K2"]
    assert R.intertwiner == R.intertwiner_residuals()


def test_kron_mixed_product():
    # (A (x) B)(C (x) D) = AC (x) BD, with the sizes read off the operands
    rng = random.Random(20240801)

    def rand(n, m):
        return Matrix({(i, j): laurent_q({e: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                          for e in rng.sample(range(-2, 3), 2)})
                       for i in range(n) for j in range(m) if rng.random() < 0.7}, (n, m))

    for _ in range(3):
        a, b, c, d = rand(2, 3), rand(3, 2), rand(3, 2), rand(2, 4)
        lhs = a.kron(b) @ c.kron(d)
        rhs = (a @ c).kron(b @ d)
        assert lhs.shape == rhs.shape == (6, 8)
        assert lhs == rhs
    assert Matrix.identity(2, ONE).kron(Matrix.identity(3, ONE)) == Matrix.identity(6, ONE)


def test_casimir_equals_explicit_form():
    C = quantum_trace_pairing(TruncatedRMatrix.build())
    assert C == casimir_explicit()


def test_casimir_equals_right_form():
    C = quantum_trace_pairing(TruncatedRMatrix.build())
    assert C == casimir_right_form()


def test_quantum_part_rewriting():
    direct, rewritten = casimir_quantum_parts()
    assert direct == rewritten


def test_rel_rewrite_identities():
    E = {j: root_E(j) for j in (1, 2, 3, 4)}
    Es = {j: star(root_E(j)) for j in (1, 2, 3, 4)}
    lhs = star(E[3] * E[1]) * E[2]
    rhs = _qp(2) * (Es[3] * E[2] * Es[1]) + _qp(2) * (Es[3] * E[3]) - BR2 * (Es[2] * E[2])
    assert lhs == rhs
    lhs = star(E[4] * E[1]) * E[3]
    rhs = _qp(2) * (Es[4] * E[3] * Es[1]) + BR2 * _qp(2) * (Es[4] * E[4]) \
        - _qp(2) * (Es[3] * E[3])
    assert lhs == rhs
    lhs = star(E[3] * E[1]) * E[3] * E[1]
    rhs = Es[3] * E[3] * Es[1] * E[1] + BR2 * (Es[3] * E[4] * E[1] - Es[2] * E[3] * E[1])
    assert lhs == rhs
    lhs = star(E[4] * E[1]) * E[4] * E[1]
    rhs = Es[4] * E[4] * Es[1] * E[1] - _qp(2) * (Es[3] * E[4] * E[1])
    assert lhs == rhs


def test_centrality():
    C = quantum_trace_pairing(TruncatedRMatrix.build())
    for name, r in centrality_residuals(C).items():
        assert r.is_zero, name


def test_radical_bidegree_balanced():
    # no words with one-sided radical content survive the trace pairing
    C = quantum_trace_pairing(TruncatedRMatrix.build())
    for (fexp, _lam, eexp) in C.terms:
        assert sum(fexp[:3]) == sum(eexp[1:]) <= 1


def test_casimir_scalar_on_fundamental():
    C = quantum_trace_pairing(TruncatedRMatrix.build())
    c = casimir_eigenvalue((1, 0))
    assert FUND.rep(C) == Matrix.identity(4, c)


def test_inner_product_values_of_proof():
    # (F_b3 F_b1 v_1, F_b2 v_1) = q^-1 with the orthonormal basis
    def pair(a, b):
        # (a v_1, b v_1) in the orthonormal basis: column 0 against column 0
        a, b = a.terms, b.terms
        return sum((a[i, 0] * b[i, 0] for i in range(4)
                    if (i, 0) in a and (i, 0) in b), ZERO)

    F = FUND.root_F
    assert pair(F(3) @ F(1), F(2)) == _qp(-1)
    # (F_b4 F_b1 v_1, F_b3 v_1) = q^-3
    assert pair(F(4) @ F(1), F(3)) == _qp(-3)
    # (F_b1 v_1, F_b1 v_1) = q^-1,  (F_b2 v_1, F_b2 v_1) = q^-2
    assert pair(F(1), F(1)) == _qp(-1)
    assert pair(F(2), F(2)) == _qp(-2)


def test_eigenvalue_closed_forms():
    # oracle: pairings from the Gram matrix [[1,1],[1,2]] computed directly
    gram = ((1, 1), (1, 2))

    def pair(a, b):
        return sum(a[i] * gram[i][j] * b[j] for i in range(2) for j in range(2))

    lam_v = ((1, 0), (-1, 1), (1, -1), (-1, 0))
    for target in ((0, 0), (1, 0), (0, 1), (2, 3)):
        shifted = (target[0] + 1, target[1] + 1)
        want = sum((laurent_q({-2 * pair(w, shifted): 1}) for w in lam_v),
                   ZERO) / (Q * Q)
        assert casimir_eigenvalue(target) == want


def test_eigenvalue_examples():
    c0 = (laurent_q({-4: 1, -2: 1, 2: 1, 4: 1})) / (Q * Q)
    assert casimir_eigenvalue((0, 0)) == c0
    c1 = (laurent_q({-6: 1, -2: 1, 2: 1, 6: 1})) / (Q * Q)
    assert casimir_eigenvalue((1, 0)) == c1


def test_eigenvalue_monotone_numeric():
    v0 = Fraction(2, 5)
    vals = [casimir_eigenvalue((n, 0)).evaluate(v0) for n in range(6)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_coproduct_on_v_tensor_v_matches_the_matrix_table():
    """Every word of length <= 3 over the probe tokens of eq-comm-rel-uqg:
    the PBW coproduct represented leg by leg on V (x) V equals the product of
    the engine-free 16x16 coproduct matrices of its letters."""
    toks = ("E1", "E2", "F1", "F2", ("K", 1, 0), ("K", -1, 1), ("K", 0, -1))
    zero = Matrix({}, (16, 16))
    delta = {t: sum((a.kron(b) for a, b in coproduct_matrices(t)), zero)
             for t in toks}
    for n in range(4):
        for word in itertools.product(toks, repeat=n):
            want = Matrix.identity(16, ONE)
            for t in word:
                want = want @ delta[t]
            got = sum((FUND.rep(a).kron(FUND.rep(b)) for a, b in coproduct_word(word)),
                      zero)
            assert got == want, word


@pytest.mark.parametrize("tok", [
    "E3", "K1", ("K", 1.5, 0), ("K", 1.0, 0), ("K", 1, 0, 0), ("K", (1,)), ("E", 1),
    ["E1"], {"E1"}, ("K", (2, -1)),
], ids=repr)
def test_bad_token_is_a_value_error_as_in_pbw_coproduct(tok):
    """normal_form, coproduct_matrices and FUND.rep_token read tokens through
    pbw.token_weight and reject what pbw.coproduct rejects."""
    with pytest.raises(ValueError):
        coproduct(tok)
    with pytest.raises(ValueError):
        normal_form((tok,))
    with pytest.raises(ValueError):
        coproduct_matrices(tok)
    with pytest.raises(ValueError):
        FUND.rep_token(tok)
