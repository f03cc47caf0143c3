"""The Parthasarathy formula on sections: an oracle for the reduction into M
that works in a representation of M, not in M itself.

For a module W let S(W) be the vectors xi of W (x) Lambda with

    (rho_W(Y) (x) 1) xi = (1 (x) rho(S(Y))) xi

for every Y of the quantized Levi factor.  On S(W) the map X (x) T ->
rho_W(X) (x) T respects M's relation X Y (x) T = X (x) T rho(S(Y)), so every
element of M acts on S(W), and a simple tensor acts there as its reduction
into M does.  By Frobenius reciprocity the W-isotypic sections of the spinor
bundle are W* (x) S(W) (Bott, Ann. of Math. 66, 1957), so this is where D^2
and the Casimir are compared before and after reduction.

As S(K_lam) = K_-lam, the conditions for every K_lam say that xi has total
weight zero, and both sides of the E1 and F1 conditions shift the total
weight by the same root; so S(W) is solved on the zero-weight part of
W (x) Lambda alone.  A vector is held as the dim(W) x 8 matrix Xi with
xi = sum Xi[a, b] w_a (x) y_b, and x (x) T acts as Xi -> rho_W(x) Xi T^T.

On W = V (x) V, S(W) has dimension 3 and the test asserts
(a) the 18 unreduced simple tensors of D^2 = d d* + d* d act on S(W) as the
    reduced `dirac_squared()` does, with the kappa symbols free;
(b) with the kappa ratios fixed, D^2 acts on S(W) as
    kappa_1 q^4 [2]^-2 (C (x) 1) + 1 (x) T0, where C is the Casimir of the
    truncated R-matrix and T0 the pure Levi remainder of
    `parthasarathy_residual`;
and that (b) fails without 1 (x) T0, so the Levi remainder is read.  The
left side of (b) is the unreduced D^2, so (b) checks T0 itself, not only
the radical components of the reduced difference.
"""

import pytest

from qlg2.linalg import Matrix, nullspace
from qlg2.modules import EXT, FUND, LEVI_GEN_TOKENS, ModuleOperator, TensorModule
from qlg2.parthasarathy import (
    KAPPA2_RATIO, KAPPA3_RATIO, PARTHASARATHY_CONSTANT, _dolbeault_tensors, _products,
    _star_tensors, casimir_in_M, dirac_squared, parthasarathy_residual,
)
from qlg2.pbw import antipode, normal_form, radical_monomial
from qlg2.rmatrix import TruncatedRMatrix, quantum_trace_pairing
from qlg2.scalar import ONE, ZERO, kappa
from qlg2.weights import W_ZERO

VV = TensorModule(FUND, FUND)


def _zero_weight_columns(W):
    """The (a, b) with weight(w_a) + weight(y_b) = 0."""
    return [(a, b) for a, wa in enumerate(W.weights)
            for b, wb in enumerate(EXT.weights) if wa + wb == W_ZERO]


def _sections(W):
    """A basis of S(W), as dim(W) x 8 Scalar matrices: one unknown per
    zero-weight column, one equation per entry of rho_W(Y) Xi - Xi
    rho(S(Y))^T and Levi generator Y."""
    units = [Matrix({ab: ONE}, (W.dim, 8)) for ab in _zero_weight_columns(W)]
    rows = []
    for tok in LEVI_GEN_TOKENS:
        Y = W.rep_token(tok)
        SYt = EXT.rep(antipode(normal_form((tok,)))).T
        eqs = [(Y @ U - U @ SYt).terms for U in units]
        rows += [[m.get(rc, ZERO) for m in eqs] for rc in sorted(set().union(*eqs))]
    return [sum((U.scale(c) for U, c in zip(units, vec) if c), Matrix({}, (W.dim, 8)))
            for vec in nullspace(rows, ONE)]


def _act(W, pairs, xi):
    """sum over the simple tensors (x, T) of (rho_W(x) (x) T) xi."""
    return sum((W.rep(x) @ xi @ op.T for x, op in pairs), Matrix({}, xi.shape))


def _m_pairs(m):
    """The simple tensors W(u) (x) T_u of a reduced element of M."""
    return [(radical_monomial(u[:3], u[3:]), op) for u, op in m.terms.items()]


def _dirac_square_tensors():
    """The 18 simple tensors xi_i xi*_j (x) gamma_i gamma*_j and xi*_j xi_i
    (x) gamma*_j gamma_i of D^2, unreduced."""
    d = _dolbeault_tensors()
    ds = _star_tensors(d)
    return _products(d, ds) + _products(ds, d)


@pytest.fixture(scope="module")
def sections():
    return _sections(VV)


def test_sections_of_v_tensor_v(sections):
    assert len(_zero_weight_columns(VV)) == 8
    assert VV.dim * EXT.dim == 128
    assert len(sections) == 3
    # each basis vector satisfies every Levi condition, K_lam included
    for xi in sections:
        for tok in LEVI_GEN_TOKENS + (("K", 1, 0), ("K", 0, 1)):
            SYt = EXT.rep(antipode(normal_form((tok,)))).T
            assert VV.rep_token(tok) @ xi == xi @ SYt, tok


def test_unreduced_dirac_square_equals_reduced_on_sections(sections):
    tensors = _dirac_square_tensors()
    assert len(tensors) == 18
    reduced = _m_pairs(dirac_squared())
    for k, xi in enumerate(sections):
        got = _act(VV, tensors, xi)
        assert not got.is_zero, k
        assert got == _act(VV, reduced, xi), k


def test_parthasarathy_formula_on_sections(sections):
    C = quantum_trace_pairing(TruncatedRMatrix.build())
    _diff, levi = parthasarathy_residual(casimir_in_M(C), dirac_squared())
    dirac = [(x, op.substitute_ratios(KAPPA2_RATIO, KAPPA3_RATIO))
             for x, op in _dirac_square_tensors()]
    c_part = [(C, ModuleOperator.identity().scale(kappa(1) * PARTHASARATHY_CONSTANT))]
    without_levi = 0
    for k, xi in enumerate(sections):
        lhs = _act(VV, dirac, xi)
        casimir = _act(VV, c_part, xi)
        assert lhs == casimir + xi @ levi.T, k
        without_levi += lhs != casimir
    # the Levi remainder moves every section: (b) without 1 (x) T0 fails
    assert without_levi == 3
