"""Casimir tests: truncated R-matrix, quantum trace, closed forms,
centrality, eigenvalues."""

import itertools
import random
from fractions import Fraction
from functools import reduce

import pytest

from qlg2.linalg import kron, madd, meq, mscale, meye, miszero, mmul
from qlg2.scalar import BR2, ONE, Q_SC, ZERO, evaluate, laurent_q, q_power
from qlg2.modules import FUND
from qlg2.pbw import coproduct, coproduct_word, normal_form, root_E, star
from qlg2.rmatrix import (
    TruncatedRMatrix, casimir_eigenvalue, casimir_explicit, coproduct_matrices,
    casimir_quantum_parts, casimir_right_form, centrality_residuals,
    factor_coefficient, quantum_trace_pairing,
)

Q = Q_SC


def _qp(n):
    return q_power(n)


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
        assert miszero(m), tok


def test_kron_mixed_product():
    # (A (x) B)(C (x) D) = AC (x) BD, with the sizes read off the operands
    rng = random.Random(20240801)

    def rand(n, m):
        return [[laurent_q({e: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                            for e in rng.sample(range(-2, 3), 2)})
                 if rng.random() < 0.7 else ZERO for _ in range(m)]
                for _ in range(n)]

    for _ in range(3):
        a, b, c, d = rand(2, 3), rand(3, 2), rand(3, 2), rand(2, 4)
        lhs = mmul(kron(a, b, ZERO), kron(c, d, ZERO), ZERO)
        rhs = kron(mmul(a, c, ZERO), mmul(b, d, ZERO), ZERO)
        assert [len(r) for r in lhs] == [len(r) for r in rhs] == [8] * 6
        assert meq(lhs, rhs)
    assert meq(kron(meye(2, ONE, ZERO), meye(3, ONE, ZERO), ZERO), meye(6, ONE, ZERO))


def test_casimir_equals_explicit_form():
    C = quantum_trace_pairing()
    assert C == casimir_explicit()


def test_casimir_equals_right_form():
    C = quantum_trace_pairing()
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
    C = quantum_trace_pairing()
    for name, r in centrality_residuals(C).items():
        assert r.is_zero, name


def test_radical_bidegree_balanced():
    # no words with one-sided radical content survive the trace pairing
    C = quantum_trace_pairing()
    for (fexp, _lam, eexp) in C.terms:
        assert sum(fexp[:3]) == sum(eexp[1:]) <= 1


def test_casimir_scalar_on_fundamental():
    C = quantum_trace_pairing()
    c = casimir_eigenvalue((1, 0))
    assert meq(FUND.rep(C), mscale(c, meye(4, ONE, ZERO)))


def test_inner_product_values_of_proof():
    # (F_b3 F_b1 v_1, F_b2 v_1) = q^-1 with the orthonormal basis
    m31 = mmul(FUND.root_F(3), FUND.root_F(1), ZERO)
    m2 = FUND.root_F(2)
    val = sum((m31[i][0] * m2[i][0] for i in range(4)), ZERO)
    assert val == _qp(-1)
    # (F_b4 F_b1 v_1, F_b3 v_1) = q^-3
    m41 = mmul(FUND.root_F(4), FUND.root_F(1), ZERO)
    m3 = FUND.root_F(3)
    val = sum((m41[i][0] * m3[i][0] for i in range(4)), ZERO)
    assert val == _qp(-3)
    # (F_b1 v_1, F_b1 v_1) = q^-1,  (F_b2 v_1, F_b2 v_1) = q^-2
    f1 = FUND.root_F(1)
    assert sum((f1[i][0] * f1[i][0] for i in range(4)), ZERO) == _qp(-1)
    f2 = FUND.root_F(2)
    assert sum((f2[i][0] * f2[i][0] for i in range(4)), ZERO) == _qp(-2)


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
    vals = [evaluate(casimir_eigenvalue((n, 0)), v0) for n in range(6)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_coproduct_on_v_tensor_v_matches_the_matrix_table():
    """Every word of length <= 3 over the probe tokens of eq-comm-rel-uqg:
    the PBW coproduct represented leg by leg on V (x) V equals the product of
    the engine-free 16x16 coproduct matrices of its letters."""
    toks = ("E1", "E2", "F1", "F2", ("K", 1, 0), ("K", -1, 1), ("K", 0, -1))
    delta = {t: reduce(madd, [kron(a, b, ZERO) for a, b in coproduct_matrices(t)])
             for t in toks}
    eye16 = meye(16, ONE, ZERO)
    for n in range(4):
        for word in itertools.product(toks, repeat=n):
            want = eye16
            for t in word:
                want = mmul(want, delta[t], ZERO)
            got = reduce(madd, [kron(FUND.rep(a), FUND.rep(b), ZERO)
                                for a, b in coproduct_word(word)])
            assert meq(got, want), word


@pytest.mark.parametrize("tok", [("K", (2, -1)), ("K", (-2, 2))],
                         ids=["K(2,-1)", "K(-2,2)"])
def test_tuple_cartan_token_parses_like_the_flat_form(tok):
    flat = ("K",) + tok[1]
    (got,), (want,) = coproduct_matrices(tok), coproduct_matrices(flat)
    assert meq(got[0], want[0]) and meq(got[1], want[1])
    assert meq(FUND.rep_token(tok), FUND.rep_token(flat))


@pytest.mark.parametrize("tok", [
    "E3", "K1", ("K", 1.5, 0), ("K", 1.0, 0), ("K", 1, 0, 0), ("K", (1,)), ("E", 1),
    ["E1"], {"E1"},
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
