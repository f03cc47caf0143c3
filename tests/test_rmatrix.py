"""Casimir tests: truncated R-matrix, quantum trace, closed forms,
centrality, eigenvalues."""

import itertools
import random
from fractions import Fraction

import pytest

from qlg2 import cli, rmatrix
from qlg2.checks import Context, run_check
from qlg2.linalg import Matrix
from qlg2.scalar import BR2, ONE, Q_SC as Q, ZERO, laurent_q, q_power as _qp
from qlg2.modules import FUND, TensorModule
from qlg2.pbw import coproduct, normal_form, root_E, star
from qlg2.rmatrix import (
    GENERATOR_TOKENS, TruncatedRMatrix, casimir_eigenvalue, casimir_explicit,
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


def test_only_prop_cas_general_computes_the_residuals(monkeypatch, tmp_path):
    # the rmat stage builds R and its truncation checks only; the check that
    # reports the residuals computes them, once per run, and every other
    # check that builds R pays nothing for them
    R = TruncatedRMatrix.build()
    assert not hasattr(R, "intertwiner")
    assert list(R.intertwiner_residuals()) == ["E1", "E2", "F1", "F2", "K1", "K2"]

    calls = []

    def counted(self, orig=TruncatedRMatrix.intertwiner_residuals):
        calls.append(self)
        return orig(self)

    monkeypatch.setattr(TruncatedRMatrix, "intertwiner_residuals", counted)
    for check_id, want in (("prop-casimir-clifford", 0), ("prop-cas-general", 1)):
        calls.clear()
        assert run_check(check_id, Context()).status == "pass"
        assert len(calls) == want, check_id
    calls.clear()
    out = tmp_path / "report.md"
    assert cli.main(["verify", "--check", "all", "--out", str(out)]) == cli.EXIT_PASS
    assert len(calls) == 1


def _flip_residuals(R):
    """The residuals in their textbook form R Delta(X) - Delta_op(X) R,
    with (rho (x) rho)(R) and the flip P written out and Delta_op(X) = P
    Delta(X) P."""
    R16 = Matrix({(4 * i + k, 4 * j + l): y
                  for (k, l), x in R.mat.terms.items()
                  for (i, j), y in FUND.rep(x).terms.items()}, (16, 16))
    P = Matrix({(4 * i + k, 4 * k + i): ONE for i in range(4) for k in range(4)},
               (16, 16))
    VV = TensorModule(FUND, FUND)
    return P, {name: R16 @ VV.rep_token(tok) - P @ VV.rep_token(tok) @ P @ R16
               for name, tok in zip(("E1", "E2", "F1", "F2", "K1", "K2"),
                                    GENERATOR_TOKENS)}


@pytest.mark.parametrize("doubled", [None, (4, 1), (1, 1)], ids=str)
def test_braided_commutators_are_the_flipped_residuals(doubled, monkeypatch):
    # each commutator of Rb = P (rho (x) rho)(R) is P times the textbook
    # residual, for R and for two wrong R-matrices, whose E and F residuals
    # are nonzero
    if doubled is not None:
        def factor(j, r, orig=rmatrix.factor_coefficient):
            return orig(j, r) * 2 if (j, r) == doubled else orig(j, r)
        monkeypatch.setattr(rmatrix, "factor_coefficient", factor)
    R = TruncatedRMatrix.build()
    P, want = _flip_residuals(R)
    got = R.intertwiner_residuals()
    assert list(got) == list(want)
    for name, m in got.items():
        assert m == P @ want[name], name
        assert m.is_zero == (doubled is None or name in ("K1", "K2")), name


def test_residuals_multiply_twelve_16x16_matrices(monkeypatch):
    # V (x) V multiplies nothing until its first `rep`; the residuals take
    # two products of 16x16 matrices per generator, with V (x) V and the
    # braided matrix built inside the call, whose other products are the
    # 4x4 ones of FUND.rep
    R = TruncatedRMatrix.build()
    shapes = []

    def counted(a, b, orig=Matrix.__matmul__):
        shapes.append((a.shape, b.shape))
        return orig(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    VV = TensorModule(FUND, FUND)
    for tok in GENERATOR_TOKENS:
        VV.rep_token(tok)
    assert shapes == []
    R.intertwiner_residuals()
    assert [s for s in shapes if s != ((4, 4), (4, 4))] == [((16, 16), (16, 16))] * 12


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
    the engine-free generator matrices of V (x) V (`TensorModule`)."""
    toks = ("E1", "E2", "F1", "F2", ("K", 1, 0), ("K", -1, 1), ("K", 0, -1))
    VV = TensorModule(FUND, FUND)
    zero = Matrix({}, (16, 16))
    delta = {t: VV.rep_token(t) for t in toks}
    words = 0
    for n in range(4):
        for word in itertools.product(toks, repeat=n):
            want = Matrix.identity(16, ONE)
            for t in word:
                want = want @ delta[t]
            got = sum((FUND.rep(a).kron(FUND.rep(b)) for a, b in coproduct_word(word)),
                      zero)
            assert got == want, word
            words += 1
    assert words == 1 + 7 + 49 + 343


@pytest.mark.parametrize("tok", [
    "E3", "K1", ("K", 1.5, 0), ("K", 1.0, 0), ("K", 1, 0, 0), ("K", (1,)), ("E", 1),
    ["E1"], {"E1"}, ("K", (2, -1)),
], ids=repr)
def test_bad_token_is_a_value_error_as_in_pbw_coproduct(tok):
    """normal_form and rep_token on V and on V (x) V read tokens through
    pbw.token_weight and reject what pbw.coproduct rejects."""
    with pytest.raises(ValueError):
        coproduct(tok)
    with pytest.raises(ValueError):
        normal_form((tok,))
    with pytest.raises(ValueError):
        TensorModule(FUND, FUND).rep_token(tok)
    with pytest.raises(ValueError):
        FUND.rep_token(tok)
