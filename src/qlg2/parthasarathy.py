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

from .linalg import accumulate, nullspace
from .scalar import BR2, ONE, ZERO, KScalar, kappa, Q_SC as _Q, q_power as _qp
from .weights import Weight
from .pbw import (
    AlgebraElement, K, adjoint_action, antipode, coproduct, levi_right_split,
    normal_form, star, token_name, xi_E, xi_E_star,
)
from .modules import EXT, LEVI_GEN_TOKENS, ModuleOperator
from .rmatrix import casimir_eigenvalue, quantum_trace_pairing

_U_ZERO = (0, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# tensor operators
# ---------------------------------------------------------------------------

class TensorOperator:
    """Element of U_q(g) (x) End(Lambda): {PBW word: ModuleOperator}."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    @staticmethod
    def from_element(x, op):
        out = {}
        for w, c in x.terms.items():
            out[w] = op.scale(KScalar.from_scalar(c))
        return TensorOperator(out)

    @staticmethod
    def zero():
        return TensorOperator({})

    def __add__(self, other):
        out = dict(self.terms)
        for w, op in other.terms.items():
            accumulate(out, w, op)
        return TensorOperator(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for w, op in other.terms.items():
            accumulate(out, w, -op)
        return TensorOperator(out)

    def scale(self, c):
        if not isinstance(c, KScalar):
            c = KScalar.from_scalar(c)
        return TensorOperator({w: op.scale(c) for w, op in self.terms.items()})

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
                    accumulate(out, w, op12.scale(KScalar.from_scalar(c)))
        return TensorOperator(out)

    def star(self):
        """(x (x) T)* = x* (x) T* with the Gram adjoint on the second leg."""
        out = {}
        for w, op in self.terms.items():
            ops = EXT.adjoint_wrt_gram(op)
            for ws, c in star(AlgebraElement.from_word(w)).terms.items():
                accumulate(out, ws, ops.scale(KScalar.from_scalar(c)))
        return TensorOperator(out)

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TensorOperator):
            return NotImplemented
        return (self - other).is_zero


def dolbeault():
    """d = sum_i E_{xi_i} (x) gamma(y_i)."""
    out = TensorOperator.zero()
    for i in (1, 2, 3):
        out = out + TensorOperator.from_element(xi_E(i), EXT.gamma(i))
    return out


def dirac():
    d = dolbeault()
    return d + d.star()


# ---------------------------------------------------------------------------
# the quotient module M
# ---------------------------------------------------------------------------

class MElement:
    """Reduction of a tensor operator in M, keyed by radical monomials.

    comps maps (s1, s2, s3, t1, t2, t3) to the ModuleOperator sitting right
    of E*_{xi1}^s1 E*_{xi2}^s2 E*_{xi3}^s3 E_{xi1}^t1 E_{xi2}^t2 E_{xi3}^t3;
    the all-zero key is the pure Levi component.
    """

    __slots__ = ("comps",)

    def __init__(self, comps):
        self.comps = comps

    def __sub__(self, other):
        out = dict(self.comps)
        for u, op in other.comps.items():
            accumulate(out, u, -op)
        return MElement(out)

    def scale(self, c):
        if not isinstance(c, KScalar):
            c = KScalar.from_scalar(c)
        return MElement({u: op.scale(c) for u, op in self.comps.items()})

    def substitute_ratios(self, s2, s3):
        out = {}
        for u, op in self.comps.items():
            v = op.substitute_ratios(s2, s3)
            if not v.is_zero:
                out[u] = v
        return MElement(out)

    def component(self, u):
        return self.comps.get(tuple(u), ModuleOperator.zero())

    def levi_component(self):
        return self.component(_U_ZERO)

    def radical_components(self):
        return {u: op for u, op in self.comps.items() if u != _U_ZERO}

    @property
    def radical_is_zero(self):
        return not self.radical_components()

    def __eq__(self, other):
        if not isinstance(other, MElement):
            return NotImplemented
        return (self - other).comps == {}


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
            accumulate(out, u, op @ ModuleOperator.lift(rho_sl))
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
    extra = set(out.comps) - allowed
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
    for r in range(8):
        for c in range(8):
            x = gam13.mat[r][c]
            if x.is_zero:
                continue
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


def gamma_identities_after_kappa(d2m=None):
    """Residuals of the closed forms of the nine components after fixing
    the kappa ratios; all must vanish."""
    s2, s3 = KAPPA2_RATIO, KAPPA3_RATIO
    if d2m is None:
        d2m = dirac_squared()
    d2m = d2m.substitute_ratios(s2, s3)
    k1 = kappa(1)
    k2l1 = K(2, 0)
    k2l2 = K(-2, 2)
    kse = k2l1 * antipode(normal_form(("E1",)))
    ksee = k2l1 * antipode(star(normal_form(("E1",))) * normal_form(("E1",)))
    rhs = {
        (1, 1): EXT.rho_op(k2l1).scale(k1),
        (2, 2): (EXT.rho_op(k2l1).scale(_qp(-3)) + EXT.rho_op(k2l2).scale(_qp(3))
                 - EXT.rho_op(k2l1).scale(_Q * _Q * BR2)
                 + EXT.rho_op(ksee).scale(_Q * _Q)).scale(k1 * (ONE / (BR2 * BR2))),
        (3, 3): (EXT.rho_op(k2l2) - EXT.rho_op(k2l1).scale(_Q * _qp(-1))
                 + EXT.rho_op(ksee).scale(_Q * _Q * _qp(-3))).scale(k1),
        (1, 2): EXT.rho_op(kse).scale(k1 * (-(_Q * _qp(1) / BR2))),
        (1, 3): ModuleOperator.zero(),
        (2, 3): EXT.rho_op(kse).scale(k1 * (-(_Q * _qp(-1) / BR2))),
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

def casimir_in_M(C=None, degree_cap=3):
    if C is None:
        C = quantum_trace_pairing()
    t = TensorOperator.from_element(C, ModuleOperator.identity())
    return reduce_to_M(t, degree_cap)


PARTHASARATHY_CONSTANT = _qp(4) / (BR2 * BR2)     # times kappa_1


def parthasarathy_residual(C=None, kappa3_ratio=None, d2m=None):
    """D^2 - kappa_1 q^4 [2]^-2 (C (x) 1) reduced in M.

    Returns (difference, levi_remainder).  With the canonical ratios the
    radical components of the difference vanish identically; perturbing
    kappa_3 or mutilating C breaks that (negative controls).
    """
    s2 = KAPPA2_RATIO
    s3 = KAPPA3_RATIO if kappa3_ratio is None else kappa3_ratio
    if d2m is None:
        d2m = dirac_squared()
    d2m = d2m.substitute_ratios(s2, s3)
    cm = casimir_in_M(C)
    diff = d2m - cm.scale(kappa(1) * PARTHASARATHY_CONSTANT)
    return diff, diff.levi_component()


def verify_parthasarathy(C=None, d2m=None):
    """Full comparison; returns a report mapping."""
    diff, levi = parthasarathy_residual(C=C, d2m=d2m)
    radical = diff.radical_components()
    return {
        "constant": "kappa_1 * " + PARTHASARATHY_CONSTANT.canon_str(),
        "radical_zero": not radical,
        "radical_residuals": radical,
        "levi_remainder": levi,
    }


# ---------------------------------------------------------------------------
# equivariance of the Dolbeault element
# ---------------------------------------------------------------------------

def _ad_tilde_S(tok, op):
    """Twisted adjoint action of S(X) on an operator, X a Levi generator:
    sum rho(S(X_(1))) op rho(X_(2)) over the coproduct of X."""
    return sum((EXT.rho_op(antipode(a)) @ op @ EXT.rho_op(b) for a, b in coproduct(tok)),
               ModuleOperator.zero())


def dolbeault_invariance_residuals():
    """(ad(X) (x) id)(d) - (id (x) ad~(S(X)))(d) for Levi generators X."""
    res = {}
    for tok in LEVI_GEN_TOKENS:
        lhs = TensorOperator.zero()
        rhs = TensorOperator.zero()
        for i in (1, 2, 3):
            lhs = lhs + TensorOperator.from_element(
                adjoint_action(tok, xi_E(i)), EXT.gamma(i))
            rhs = rhs + TensorOperator.from_element(
                xi_E(i), _ad_tilde_S(tok, EXT.gamma(i)))
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
            ModuleOperator.lift(EXT.rho(antipode(y))))
        if reduce_to_M(left) - reduce_to_M(right) != MElement({}):
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

    v0 must satisfy 0 < v0 < 1.
    """
    v0 = Fraction(v0)
    if not (0 < v0 < 1):
        raise ValueError("evaluation point must satisfy 0 < v0 < 1")
    rows = []
    for n1 in range(shell_max + 1):
        for n2 in range(shell_max + 1 - n1):
            val = casimir_eigenvalue((n1, n2)).evaluate(v0)
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
