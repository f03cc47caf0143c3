"""The Dolbeault-Dirac element, its square, and the Casimir comparison.

The Dolbeault element is

    d = sum_i E_{xi_i} (x) gamma(y_i)

inside the tensor product of the quantized enveloping algebra with the
operators on the exterior module, and D = d + d*.  Operators acting on the
invariant-forms space factor through the quotient module

    M = U_q(g) (x)_{U_q(l)} End(Lambda),

whose defining relation moves Levi factors across the tensor sign:
X Y (x) T = X (x) T rho(S(Y)) for Y in the quantized Levi factor.  An
MElement stores the components of that reduction, indexed by the ordered
radical monomials E*_{xi}^A E_{xi}^B, with the identity monomial holding the
pure Levi remainder.

The main verification: with the inner-product ratios fixed by the vanishing
of the mixed component (kappa_2 = kappa_1 [2]^-1 q^-2, kappa_3 =
kappa_1 q^-4), the reduction of D^2 equals kappa_1 q^4 [2]^-2 times the
reduction of the Casimir, up to a pure Levi remainder which is reported but
never assumed zero.  The spectral side is the exact eigenvalue table
c_L over dominant weights, whose per-shell minima grow strictly.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Combination, accumulate, nullspace
from .scalar import BR2, ONE, ZERO, kappa, Q_SC as _Q, q_power as _qp
from .weights import Weight
from .pbw import (
    AlgebraElement, K, adjoint_action, antipode, coproduct, levi_right_split,
    normal_form, star, token_name, xi_E, xi_E_star,
)
from .modules import EXT, LEVI_GEN_TOKENS, ModuleOperator
from .rmatrix import casimir_exponents

_U_ZERO = (0, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# tensor operators
# ---------------------------------------------------------------------------

class TensorOperator(Combination):
    """Element of U_q(g) (x) End(Lambda): {PBW word: ModuleOperator}."""

    __slots__ = ()

    @staticmethod
    def from_element(x, op):
        if op.is_zero:
            return TensorOperator({})
        return TensorOperator({w: op.scale(c) for w, c in x.terms.items()})

    def __mul__(self, other):
        out = {}
        for w1, op1 in self.terms.items():
            x1 = AlgebraElement.from_word(w1)
            for w2, op2 in other.terms.items():
                prod = x1 * AlgebraElement.from_word(w2)
                if prod.is_zero:
                    continue
                op12 = op1 @ op2
                for w, c in prod.terms.items():
                    accumulate(out, w, op12.scale(c))
        return TensorOperator(out)

    def star(self):
        """(x (x) T)* = x* (x) T* with the Gram adjoint on the second leg."""
        out = {}
        for w, op in self.terms.items():
            ops = EXT.adjoint_wrt_gram(op)
            for ws, c in star(AlgebraElement.from_word(w)).terms.items():
                accumulate(out, ws, ops.scale(c))
        return TensorOperator(out)


def dolbeault():
    """d = sum_i E_{xi_i} (x) gamma(y_i)."""
    out = TensorOperator({})
    for i in (1, 2, 3):
        out = out + TensorOperator.from_element(xi_E(i), EXT.gamma(i))
    return out


def dirac():
    d = dolbeault()
    return d + d.star()


# ---------------------------------------------------------------------------
# the quotient module M
# ---------------------------------------------------------------------------

class MElement(Combination):
    """Reduction of a tensor operator in M, keyed by radical monomials.

    terms maps (s1, s2, s3, t1, t2, t3) to the ModuleOperator sitting right
    of E*_{xi1}^s1 E*_{xi2}^s2 E*_{xi3}^s3 E_{xi1}^t1 E_{xi2}^t2 E_{xi3}^t3;
    the all-zero key is the pure Levi component.
    """

    __slots__ = ()

    def scale(self, c):
        return MElement({u: op.scale(c) for u, op in self.terms.items()})

    def substitute_ratios(self, s2, s3):
        out = {}
        for u, op in self.terms.items():
            v = op.substitute_ratios(s2, s3)
            if not v.is_zero:
                out[u] = v
        return MElement(out)

    def component(self, u):
        return self.terms.get(tuple(u), ModuleOperator.zero())

    def levi_component(self):
        return self.component(_U_ZERO)

    def radical_components(self):
        return {u: op for u, op in self.terms.items() if u != _U_ZERO}

    @property
    def radical_is_zero(self):
        return not self.radical_components()


_SPLIT_CACHE = {}


def _split_word(word, degree_cap):
    got = _SPLIT_CACHE.get((word, degree_cap))
    if got is None:
        parts = levi_right_split(AlgebraElement.from_word(word), degree_cap)
        got = tuple((u, EXT.rho(antipode(l))) for u, l in parts)
        _SPLIT_CACHE[(word, degree_cap)] = got
    return got


def reduce_to_M(t, degree_cap=3):
    """Reduce a TensorOperator in M: X Y (x) T -> X (x) T rho(S(Y))."""
    out = {}
    for word, op in t.terms.items():
        for u, rho_sl in _split_word(word, degree_cap):
            accumulate(out, u, op @ rho_sl)
    return MElement(out)


def dirac_squared(degree_cap=3):
    """D^2 reduced in M with the kappa symbols still free."""
    d = dolbeault()
    ds = d.star()
    # the square-zero identities are part of the contract
    if not (d * d).is_zero:
        raise RuntimeError("Dolbeault element does not square to zero")
    if not (ds * ds).is_zero:
        raise RuntimeError("adjoint Dolbeault element does not square to zero")
    big = d * ds + ds * d
    out = reduce_to_M(big, degree_cap)
    allowed = {_U_ZERO} | {_u_key(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}
    extra = set(out.terms) - allowed
    if extra:
        raise RuntimeError(
            f"Dirac-square reduction left radical monomials outside the "
            f"starred-pair pattern: {sorted(extra)}")
    return out


# ---------------------------------------------------------------------------
# Dirac-square component formulas
# ---------------------------------------------------------------------------

def gamma_pair_formula(i, j):
    """The operator multiplying E*_{xi_i} E_{xi_j} in the reduced D^2."""
    g = {k: EXT.gamma(k) for k in (1, 2, 3)}
    gs = {k: EXT.gamma_star(k) for k in (1, 2, 3)}
    if (i, j) == (1, 1):
        return gs[1] @ g[1] + (g[1] @ gs[1]).scale(_qp(-4))
    if (i, j) == (2, 2):
        return (gs[2] @ g[2] + (g[2] @ gs[2]).scale(_qp(-2))
                - (g[1] @ gs[1]).scale(_Q * _qp(-2)))
    if (i, j) == (3, 3):
        return (gs[3] @ g[3] + (g[3] @ gs[3]).scale(_qp(-4))
                + (g[1] @ gs[1]).scale(_Q * _Q * BR2 * _qp(-3))
                - (g[2] @ gs[2]).scale(_Q * BR2 * BR2 * _qp(-4)))
    if (i, j) == (1, 2):
        return gs[1] @ g[2] + (g[2] @ gs[1]).scale(_qp(-2))
    if (i, j) == (1, 3):
        return gs[1] @ g[3] + g[3] @ gs[1]
    if (i, j) == (2, 3):
        return (gs[2] @ g[3] + (g[3] @ gs[2]).scale(_qp(-2))
                - (g[2] @ gs[1]).scale(_Q * BR2 * _qp(-2)))
    # i > j: adjoints of the transposed formulas
    return EXT.adjoint_wrt_gram(gamma_pair_formula(j, i))


def _u_key(i, j):
    s = [0, 0, 0]
    t = [0, 0, 0]
    s[i - 1] = 1
    t[j - 1] = 1
    return tuple(s) + tuple(t)


def solve_kappa_constraints():
    """Solve the vanishing of the mixed (1,3) component for the ratios.

    Returns (s2, s3) with kappa_2 = s2 kappa_1 and kappa_3 = s3 kappa_1;
    raises if the solution space is not one-dimensional.
    """
    gam13 = gamma_pair_formula(1, 3)
    rows = []
    for _rc, x in sorted(gam13.terms.items()):
        row = [ZERO, ZERO, ZERO]
        for mono, coeff in x.terms.items():
            if sum(mono) != 1:
                raise RuntimeError("mixed component is not kappa-linear")
            row[mono.index(1)] = coeff
        rows.append(row)
    basis = nullspace(rows, ONE)
    if len(basis) != 1:
        raise RuntimeError(
            f"kappa constraint space has dimension {len(basis)}, expected 1")
    vec = basis[0]
    if vec[0].is_zero:
        raise RuntimeError("kappa_1 is forced to zero; constraints degenerate")
    inv = vec[0].inv()
    return vec[1] * inv, vec[2] * inv


KAPPA2_RATIO = _qp(-2) / BR2
KAPPA3_RATIO = _qp(-4)


def stated_levi_operators():
    """rho of K_{2 lambda_1}, K_{2 lambda_2}, k S(E1), (k S(E1))* and
    k S(E1* E1) with k = K_{2 lambda_1}: the Levi operators of the stated
    D^2 and Casimir components."""
    k2l1 = K(2, 0)
    e1 = normal_form(("E1",))
    kse = k2l1 * antipode(e1)
    return tuple(EXT.rho(x) for x in (
        k2l1, K(-2, 2), kse, star(kse), k2l1 * antipode(star(e1) * e1)))


def gamma_identities_after_kappa(d2m):
    """Residuals of the closed forms of the nine components after fixing
    the kappa ratios; all must vanish."""
    d2m = d2m.substitute_ratios(KAPPA2_RATIO, KAPPA3_RATIO)
    k1 = kappa(1)
    k2l1, k2l2, kse, _kse_star, ksee = stated_levi_operators()
    rhs = {
        (1, 1): k2l1.scale(k1),
        (2, 2): (k2l1.scale(_qp(-3)) + k2l2.scale(_qp(3))
                 - k2l1.scale(_Q * _Q * BR2)
                 + ksee.scale(_Q * _Q)).scale(k1 * (ONE / (BR2 * BR2))),
        (3, 3): (k2l2 - k2l1.scale(_Q * _qp(-1))
                 + ksee.scale(_Q * _Q * _qp(-3))).scale(k1),
        (1, 2): kse.scale(k1 * (-(_Q * _qp(1) / BR2))),
        (1, 3): ModuleOperator.zero(),
        (2, 3): kse.scale(k1 * (-(_Q * _qp(-1) / BR2))),
    }
    rhs[(2, 1)] = EXT.adjoint_wrt_gram(rhs[(1, 2)])
    rhs[(3, 1)] = EXT.adjoint_wrt_gram(rhs[(1, 3)])
    rhs[(3, 2)] = EXT.adjoint_wrt_gram(rhs[(2, 3)])
    residuals = {}
    for (i, j), want in rhs.items():
        got = d2m.component(_u_key(i, j))
        residuals[(i, j)] = got - want
    return residuals


# ---------------------------------------------------------------------------
# the Casimir in M and the main comparison
# ---------------------------------------------------------------------------

def casimir_in_M(C, degree_cap=3):
    t = TensorOperator.from_element(C, ModuleOperator.identity())
    return reduce_to_M(t, degree_cap)


PARTHASARATHY_CONSTANT = _qp(4) / (BR2 * BR2)     # times kappa_1


def parthasarathy_residual(cm, d2m, kappa3_ratio=None):
    """D^2 - kappa_1 q^4 [2]^-2 cm, with D^2 and the Casimir cm both already
    reduced in M (dirac_squared, casimir_in_M); nothing is reduced here.

    Returns (difference, levi_remainder).  With the canonical ratios the
    radical components of the difference vanish identically; perturbing
    kappa_3 or removing a quantum term from cm breaks that (negative controls).
    """
    s2 = KAPPA2_RATIO
    s3 = KAPPA3_RATIO if kappa3_ratio is None else kappa3_ratio
    d2m = d2m.substitute_ratios(s2, s3)
    diff = d2m - cm.scale(kappa(1) * PARTHASARATHY_CONSTANT)
    return diff, diff.levi_component()


# ---------------------------------------------------------------------------
# equivariance of the Dolbeault element
# ---------------------------------------------------------------------------

def _ad_tilde_S(tok, ops):
    """Twisted adjoint action of S(X) on each operator in ops, X a Levi
    generator: sum rho(S(X_(1))) op rho(X_(2)) over the coproduct of X,
    with the legs of the coproduct built once."""
    legs = [(EXT.rho(antipode(a)), EXT.rho(b)) for a, b in coproduct(tok)]
    return [sum((sa @ op @ rb for sa, rb in legs), ModuleOperator.zero())
            for op in ops]


def dolbeault_invariance_residuals():
    """(ad(X) (x) id)(d) - (id (x) ad~(S(X)))(d) for Levi generators X."""
    res = {}
    gammas = [EXT.gamma(i) for i in (1, 2, 3)]
    for tok in LEVI_GEN_TOKENS:
        lhs = TensorOperator({})
        rhs = TensorOperator({})
        for i, g, twisted in zip((1, 2, 3), gammas, _ad_tilde_S(tok, gammas)):
            lhs = lhs + TensorOperator.from_element(adjoint_action(tok, xi_E(i)), g)
            rhs = rhs + TensorOperator.from_element(xi_E(i), twisted)
        res[token_name(tok)] = lhs - rhs
    return res


def dirac_self_adjoint():
    """D* == D, symbolically in the kappa ratios."""
    d = dirac()
    return (d.star() - d).is_zero


def m_well_definedness_probe(seed=20240801, trials=12):
    """Randomized check of the defining relation of M: multiplying a tensor
    operator by Y (x) 1 and by 1 (x) rho(S(Y)) reduce identically for Levi Y."""
    import random
    rng = random.Random(seed)
    levi_toks = ["E1", "F1", ("K", 1, 0), ("K", 0, -1)]
    base_ops = [EXT.gamma(1), EXT.gamma(2), EXT.gamma_star(3), ModuleOperator.identity()]
    failures = 0
    for _ in range(trials):
        y = normal_form(tuple(rng.choice(levi_toks) for _ in range(rng.randint(1, 2))))
        first = xi_E(rng.randint(1, 3))
        if rng.random() < 0.5:
            first = first * xi_E_star(rng.randint(1, 3))
        t = TensorOperator.from_element(first, rng.choice(base_ops))
        left = t * TensorOperator.from_element(y, ModuleOperator.identity())
        right = t * TensorOperator.from_element(
            AlgebraElement.from_word(((0, 0, 0, 0), Weight(0, 0), (0, 0, 0, 0))),
            EXT.rho(antipode(y)))
        if reduce_to_M(left) != reduce_to_M(right):
            failures += 1
    return failures


# ---------------------------------------------------------------------------
# spectral growth
# ---------------------------------------------------------------------------

class SpectrumResult:
    __slots__ = ("v0", "shell_max", "rows", "shell_minima", "monotone", "positive")

    def __init__(self, v0, shell_max, rows, shell_minima, monotone, positive):
        self.v0 = v0
        self.shell_max = shell_max
        self.rows = rows
        self.shell_minima = shell_minima
        self.monotone = monotone
        self.positive = positive


def spectrum_growth(v0, shell_max):
    """Exact Casimir eigenvalues over dominant weights with n1 + n2 <=
    shell_max, enumerated lexicographically; reports per-shell minima.

    Each row is c_L(v0) = sum_j q0^(-2 (lambda_j, L + rho)) / (q0 - q0^-1)^2
    at q0 = v0^2, in plain Fractions (Jantzen, Lectures on Quantum Groups,
    1996); rmatrix.casimir_exponents is the one source of the exponents.
    v0 must satisfy 0 < v0 < 1.
    """
    v0 = Fraction(v0)
    if not (0 < v0 < 1):
        raise ValueError("evaluation point must satisfy 0 < v0 < 1")
    q0 = v0 * v0
    den = (q0 - 1 / q0) ** 2
    rows = []
    for n1 in range(shell_max + 1):
        for n2 in range(shell_max + 1 - n1):
            val = sum(q0 ** e for e in casimir_exponents((n1, n2))) / den
            rows.append((n1, n2, val))
    shell_minima = {}
    for n1, n2, val in rows:
        s = n1 + n2
        if s not in shell_minima or val < shell_minima[s]:
            shell_minima[s] = val
    mins = [shell_minima[s] for s in range(shell_max + 1)]
    monotone = all(a < b for a, b in zip(mins, mins[1:]))
    positive = all(val > 0 for _, _, val in rows)
    return SpectrumResult(v0, shell_max, rows, shell_minima, monotone, positive)
