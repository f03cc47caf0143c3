"""Casimir element from the truncated R-matrix.

The R-matrix lives in a completion of the tensor square, so it is never
materialized abstractly: only (id (x) rho)(R) is computed, with the second
leg in the 4-dimensional fundamental module, where the expansion of each
rank-one quasi-R factor truncates exactly because the represented negative
root vectors square to zero.

Writing kappa^- for the Cartan correction acting as q^{-(mu, nu)} on a pair
of weight vectors, the represented R-matrix is the 4x4 matrix over the
algebra

    A = (id (x) rho)(R~[4] R~[3] R~[2] R~[1]) . diag(K_{lambda_nu}^{-1}),

with the rank-one factors

    R~[j] = sum_r (-1)^r q_j^{-r(r-1)/2} (q_j - q_j^{-1})^r / [r]_{q_j}!
            E_{beta_j}^r (x) rho(F_{beta_j})^r,

q_j being q on the short roots beta_1, beta_3 and q^2 on the long roots
beta_2, beta_4.  Pairing the flipped-star square against the quantum trace
and rescaling by (q - q^{-1})^-2 yields the central element playing the
role of the quadratic Casimir; its explicit PBW form and the equivalent
form with all Levi letters moved to the right are provided for comparison,
together with the eigenvalue formula

    c_L = sum_j q^{-2 (lambda_j, L + rho)} / (q - q^{-1})^2

by which the central element acts on the simple module V(L) (Jantzen,
Lectures on Quantum Groups, AMS GSM 6, 1996).
"""

from __future__ import annotations

from functools import reduce

from .linalg import kron, madd, meye, miszero, mmul, msub, mzeros
from .scalar import BR2, ONE, ZERO, Q_SC as _Q, q_number, q_power as _qp
from .weights import LAMBDA_V, RHO, SIMPLE, Weight
from .pbw import (
    AE_ONE, AE_ZERO, K, normal_form, root_E, star, token_name, token_weight,
)
from .modules import FUND

# root lengths along w0 = s1 s2 s1 s2: bases of the rank-one sl2 factors
_ROOT_BASE = {1: 1, 2: 2, 3: 1, 4: 2}


def factor_coefficient(j, r):
    """Coefficient of E^r (x) F^r in the rank-one quasi-R factor at beta_j."""
    d = _ROOT_BASE[j]
    qd = _qp(d)
    br = ONE
    for k in range(2, r + 1):
        br = br * q_number(k, base=d)
    return ((-1) ** r) * _qp(-d * (r * (r - 1) // 2)) * (qd - _qp(-d)) ** r / br


# orders r = 0..2 of each rank-one factor; the represented F_beta square to
# zero, so the order-2 terms vanish, and they are kept to record that check
_MAX_ORDER = 2


class TruncatedRMatrix:
    """(id (x) rho)(R) as a 4x4 matrix of PBW elements."""

    def __init__(self, mat, truncation_checks):
        self.mat = mat
        self.truncation_checks = truncation_checks

    @classmethod
    def build(cls):
        checks = {}
        A = meye(4, AE_ONE, AE_ZERO)
        for j in (4, 3, 2, 1):
            fj = FUND.root_F(j)
            powers = [meye(4, ONE, ZERO)]
            for _ in range(_MAX_ORDER):
                powers.append(mmul(powers[-1], fj, ZERO))
            factor = mzeros(4, 4, AE_ZERO)
            for r in range(_MAX_ORDER + 1):
                c = factor_coefficient(j, r)
                e_pow = root_E(j) ** r
                term_is_zero = True
                for a in range(4):
                    for b in range(4):
                        entry = powers[r][a][b]
                        if entry.is_zero:
                            continue
                        term_is_zero = False
                        factor[a][b] = factor[a][b] + (c * entry) * e_pow
                if r >= 2:
                    checks[f"beta{j}-order-{r}-vanishes"] = term_is_zero
            A = mmul(A, factor, AE_ZERO)
        # Cartan correction: right multiplication by diag(K_{-lambda_nu})
        for b in range(4):
            kb = K(-LAMBDA_V[b])
            for a in range(4):
                A[a][b] = A[a][b] * kb
        inst = cls(A, checks)
        for tok, m in inst.intertwiner_residuals().items():
            if not miszero(m):
                raise RuntimeError(
                    f"represented R-matrix fails the intertwiner "
                    f"property against {tok}")
        return inst

    def star_transpose(self):
        out = mzeros(4, 4, AE_ZERO)
        for i in range(4):
            for j in range(4):
                out[i][j] = star(self.mat[j][i])
        return out

    def represented(self):
        """(rho (x) rho)(R) as a 16x16 scalar matrix, rows indexed 4i + k."""
        out = mzeros(16, 16, ZERO)
        for k in range(4):
            for l in range(4):
                m = FUND.rep(self.mat[k][l])
                for i in range(4):
                    for j in range(4):
                        if m[i][j]:
                            out[4 * i + k][4 * j + l] = m[i][j]
        return out

    def intertwiner_residuals(self):
        """R Delta(X) - Delta_op(X) R on the tensor square, per generator."""
        R16 = self.represented()
        res = {}
        for name, tok in zip(("E1", "E2", "F1", "F2", "K1", "K2"),
                             GENERATOR_TOKENS):
            pairs = coproduct_matrices(tok)
            dlt = reduce(madd, [kron(a, b, ZERO) for a, b in pairs])
            dop = reduce(madd, [kron(b, a, ZERO) for a, b in pairs])
            res[name] = msub(mmul(R16, dlt, ZERO), mmul(dop, R16, ZERO))
        return res


def coproduct_matrices(tok):
    """Delta of a generator token on V (x) V as (left, right) pairs of 4x4
    matrices, from the generator matrices alone and never the PBW engine:
    E_i (x) 1 + K_i (x) E_i, F_i (x) K_i^-1 + 1 (x) F_i, K_lam (x) K_lam."""
    lam = token_weight(tok)
    if lam is not None:
        k = FUND.K(lam)
        return ((k, k),)
    g, alpha = FUND.rep_token(tok), SIMPLE[int(tok[1])]
    eye4 = meye(4, ONE, ZERO)
    if tok[0] == "E":
        return ((g, eye4), (FUND.K(alpha), g))
    return ((g, FUND.K(-alpha)), (eye4, g))


def quantum_trace_pairing(R=None):
    """The central element (id (x) tau_q)(R* R) / (q - q^-1)^2."""
    if R is None:
        R = TruncatedRMatrix.build()
    Ast = R.star_transpose()
    A = R.mat
    two_rho = 2 * RHO
    total = AE_ZERO
    for j in range(4):
        diag = AE_ZERO
        for i in range(4):
            if Ast[j][i].is_zero or A[i][j].is_zero:
                continue
            diag = diag + Ast[j][i] * A[i][j]
        total = total + _qp(-two_rho.pair(LAMBDA_V[j])) * diag
    return total * (ONE / (_Q * _Q))


def _k2inv(j):
    """K_{2 lambda_j}^{-1}."""
    return K(-(2 * LAMBDA_V[j - 1]))


def _roots():
    """The starred and plain root vectors {j: E*_{beta_j}}, {j: E_{beta_j}}."""
    return ({j: star(root_E(j)) for j in (1, 2, 3, 4)},
            {j: root_E(j) for j in (1, 2, 3, 4)})


def _casimir_head(Es, E):
    """The Cartan part and the E*_{beta_1} E_{beta_1} addend, shared by the
    explicit form and the Levi-letters-right form."""
    return ((_qp(-4) * _k2inv(1) + _qp(-2) * _k2inv(2)
             + _qp(2) * _k2inv(3) + _qp(4) * _k2inv(4)) * (ONE / (_Q * _Q))
            + Es[1] * E[1] * (_qp(-5) * _k2inv(1) + _qp(1) * _k2inv(3)))


def _casimir_mix(Es, E):
    """The mixed addend shared by the right form and the rewritten quantum
    part."""
    mix = (_qp(2) * (Es[2] * E[3] * E[1]) + _qp(2) * (Es[3] * E[2] * Es[1])
           + Es[3] * E[4] * E[1] + Es[4] * E[3] * Es[1])
    return (-(_Q * BR2 * _qp(-5))) * (mix * _k2inv(1))


def casimir_quantum_terms():
    """The six addends of the quantum part of the Casimir, in their stated
    order."""
    Es, E = _roots()
    k1i = _k2inv(1)
    return [
        (-(_Q * BR2 * _qp(-5))) * (Es[1] * Es[3] * E[2] * k1i),
        (-(_Q * BR2 * _qp(-5))) * (Es[2] * E[3] * E[1] * k1i),
        (-(_Q * BR2 * _qp(-7))) * (Es[1] * Es[4] * E[3] * k1i),
        (-(_Q * BR2 * _qp(-7))) * (Es[3] * E[4] * E[1] * k1i),
        (_Q * _Q * _qp(-4)) * (Es[1] * Es[3] * E[3] * E[1] * k1i),
        (_Q * _Q * BR2 * BR2 * _qp(-7)) * (Es[1] * Es[4] * E[4] * E[1] * k1i),
    ]


def casimir_explicit():
    """The Casimir in explicit PBW form: the classical part plus the sum of
    casimir_quantum_terms()."""
    Es, E = _roots()
    br2sq = BR2 * BR2
    out = _casimir_head(Es, E)
    out = out + br2sq * (Es[2] * E[2]) * (_qp(-6) * _k2inv(1))
    out = out + Es[3] * E[3] * (_qp(-7) * _k2inv(1) + _qp(-1) * _k2inv(2))
    out = out + br2sq * (Es[4] * E[4]) * (_qp(-4) * _k2inv(2))
    return sum(casimir_quantum_terms(), out)


def casimir_right_form():
    """The Casimir with every Levi letter moved all the way to the right."""
    Es, E = _roots()
    br2sq = BR2 * BR2
    k1i = _k2inv(1)
    out = _casimir_head(Es, E)
    out = out + br2sq * (Es[2] * E[2]) * (_qp(-4) * k1i)
    out = out + Es[3] * E[3] * ((_qp(-5) - _Q * _qp(-2)) * k1i + _qp(-1) * _k2inv(2))
    out = out + (_Q * _Q * _qp(-4)) * (Es[3] * E[3] * Es[1] * E[1] * k1i)
    out = out + br2sq * (Es[4] * E[4]) * (_qp(-4) * _k2inv(2) - _Q * _qp(-5) * k1i)
    out = out + (_Q * _Q * br2sq * _qp(-7)) * (Es[4] * E[4] * Es[1] * E[1] * k1i)
    return out + _casimir_mix(Es, E)


def casimir_quantum_parts():
    """The quantum part of the Casimir in its two equivalent forms: the
    direct one (the sum of casimir_quantum_terms()) and the one with Levi
    letters moved to the right."""
    Es, E = _roots()
    one = AE_ONE
    inner = (Es[2] * E[2]
             - (_Q * _qp(1) / BR2) * (Es[3] * E[3] * (one - (ONE / BR2) * (Es[1] * E[1])))
             - Es[4] * E[4] * (one - (_Q * _qp(-2)) * (Es[1] * E[1])))
    rewritten = (_Q * BR2 * BR2 * _qp(-5)) * (inner * _k2inv(1))
    return sum(casimir_quantum_terms(), AE_ZERO), rewritten + _casimir_mix(Es, E)


def casimir_exponents(lam):
    """The q-exponents -2 (lambda_j, lam + rho) of the addends of c_lam."""
    shifted = Weight(*lam) + RHO
    return [-2 * w.pair(shifted) for w in LAMBDA_V]


def casimir_eigenvalue(lam):
    """Scalar by which the Casimir acts on the simple module of highest
    weight lam (dominant)."""
    return sum(map(_qp, casimir_exponents(lam)), ZERO) / (_Q * _Q)


GENERATOR_TOKENS = ("E1", "E2", "F1", "F2", ("K", 2, -1), ("K", -2, 2))


def centrality_residuals(C):
    """Commutators of C with all six generators, in normal form."""
    res = {}
    for tok in GENERATOR_TOKENS:
        g = normal_form((tok,))
        res[token_name(tok)] = C * g - g * C
    return res
