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

from .linalg import Matrix, accumulate
from .scalar import BR2, ONE, ZERO, Q_SC as _Q, q_factorial, q_power as _qp
from .weights import BETA, LAMBDA_V, RHO, Weight
from .pbw import AE_ONE, AE_ZERO, K, normal_form, root_E, star, token_name
from .modules import FUND, TensorModule

# root lengths along w0 = s1 s2 s1 s2: bases of the rank-one sl2 factors
_ROOT_BASE = {j: BETA[j].pair(BETA[j]) // 2 for j in BETA}


def factor_coefficient(j, r):
    """Coefficient of E^r (x) F^r in the rank-one quasi-R factor at beta_j."""
    d = _ROOT_BASE[j]
    top = ((-1) ** r) * _qp(-d * (r * (r - 1) // 2)) * (_qp(d) - _qp(-d)) ** r
    return top / q_factorial(r, d)


# orders r = 0..2 of each rank-one factor; the represented F_beta square to
# zero, so the order-2 terms vanish, and they are kept to record that check
_MAX_ORDER = 2


class TruncatedRMatrix:
    """(id (x) rho)(R) as a 4x4 Matrix of PBW elements.  `build` returns R
    and its truncation checks only; prop-cas-general calls
    `intertwiner_residuals`, which represents both legs on V and reports
    the braided matrix's commutators, and nothing raises on a nonzero
    one."""

    def __init__(self, mat, truncation_checks):
        self.mat = mat
        self.truncation_checks = truncation_checks

    @classmethod
    def build(cls):
        checks = {}
        A = Matrix.identity(4, AE_ONE)
        for j in (4, 3, 2, 1):
            fj = FUND.root_F(j)
            powers = [Matrix.identity(4, ONE)]
            for _ in range(_MAX_ORDER):
                powers.append(powers[-1] @ fj)
            factor = {}
            for r in range(_MAX_ORDER + 1):
                c = factor_coefficient(j, r)
                e_pow = root_E(j) ** r
                for ab, entry in powers[r].terms.items():
                    accumulate(factor, ab, (c * entry) * e_pow)
                if r >= 2:
                    checks[f"beta{j}-order-{r}-vanishes"] = powers[r].is_zero
            A = A @ Matrix(factor, (4, 4))
        # Cartan correction: right multiplication by diag(K_{-lambda_nu})
        return cls(A @ Matrix.diagonal([K(-lam) for lam in LAMBDA_V]), checks)

    def intertwiner_residuals(self):
        """R Delta(X) = Delta_op(X) R on the tensor square, per generator, as
        the commutator Rb Delta(X) - Delta(X) Rb of the braided matrix Rb =
        P (rho (x) rho)(R), P the flip of the two legs, and Delta(X) the
        matrix of X on V (x) V, rows indexed 4i + k.  Entry (k, l) of `mat`
        is the first leg beside the unit matrix e_kl of the second, so Rb
        holds rho(R[k, l])[i, j] at (4k + i, 4j + l).  The commutator is P
        (R Delta(X) - Delta_op(X) R), as Delta_op(X) = P Delta(X) P, so it
        vanishes exactly when the intertwiner identity holds (Jantzen,
        Lectures on Quantum Groups, 1996)."""
        Rb = Matrix({(4 * k + i, 4 * j + l): y
                     for (k, l), x in self.mat.terms.items()
                     for (i, j), y in FUND.rep(x).terms.items()}, (16, 16))
        VV = TensorModule(FUND, FUND)
        return {name: Rb @ VV.rep_token(tok) - VV.rep_token(tok) @ Rb
                for name, tok in zip(("E1", "E2", "F1", "F2", "K1", "K2"),
                                     GENERATOR_TOKENS)}


def quantum_trace_pairing(R):
    """The central element (id (x) tau_q)(R* R) / (q - q^-1)^2; R* is the
    star transpose, so diagonal entry j of R* R is the sum over i of
    star(R[i, j]) R[i, j]."""
    A = R.mat.terms
    two_rho = 2 * RHO
    total = AE_ZERO
    for j in range(4):
        diag = AE_ZERO
        for i in range(4):
            if (i, j) in A:
                diag = diag + star(A[i, j]) * A[i, j]
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
