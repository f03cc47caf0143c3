"""The Dolbeault-Dirac element, its square, and the Casimir comparison.

The Dolbeault element is

    d = sum_i E_{xi_i} (x) gamma(y_i)

inside the tensor product of the quantized enveloping algebra with the
operators on the exterior module, and D = d + d*.  Everything here works on
simple tensors x (x) T: products and stars are taken pair by pair
(dolbeault_squares gives d^2 and (d*)^2), and TensorOperator.of is the one
way to their canonical sum {PBW word: operator}.  Operators acting on the
invariant-forms space factor through the quotient module

    M = U_q(g) (x)_{U_q(l)} End(Lambda),

whose defining relation moves Levi factors across the tensor sign:
X Y (x) T = X (x) T rho(S(Y)) for Y in the quantized Levi factor.  An
MElement stores the components of that reduction, indexed by the ordered
radical monomials E*_{xi}^A E_{xi}^B, with the identity monomial holding the
pure Levi remainder.  The relation is linear in the first leg and the split
x = sum_u W(u) L_u of levi_right_split is unique and linear, so
reduce_to_M(x, T), the one place M's relation is applied, reduces a simple
tensor to sum_u W(u) (x) T rho(S(L_u)) from one split of the whole element x.

The main verification: with the inner-product ratios fixed by the vanishing
of the mixed component (kappa_2 = kappa_1 [2]^-1 q^-2, kappa_3 =
kappa_1 q^-4), the reduction of D^2 equals kappa_1 q^4 [2]^-2 times the
reduction of the Casimir, up to a pure Levi remainder which is reported but
never assumed zero.  The spectral side is the exact eigenvalue table
c_L over dominant weights, whose per-shell minima grow strictly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .linalg import Combination, accumulate, nullspace
from .scalar import BR2, ONE, ZERO, kappa, Q_SC as _Q, q_power as _qp
from .pbw import (
    DEGREE_CAP, K, adjoint_action, antipode, coproduct, levi_right_split,
    normal_form, star, token_name, xi_E, xi_E_star,
)
from .modules import EXT, LEVI_GEN_TOKENS, ModuleOperator
from .rmatrix import casimir_exponents

_U_ZERO = (0, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# tensor operators
# ---------------------------------------------------------------------------

class TensorOperator(Combination):
    """Element of U_q(g) (x) End(Lambda) in its canonical form {PBW word:
    ModuleOperator}, built only by `of` from simple tensors (x, T); products
    and stars are taken on the simple tensors, never word by word."""

    __slots__ = ()

    @staticmethod
    def of(pairs):
        """The canonical form of sum x (x) T over the simple tensors (x, T)."""
        out = {}
        for x, op in pairs:
            for w, c in x.terms.items():
                accumulate(out, w, op.scale(c))
        return TensorOperator(out)


def _dolbeault_tensors():
    """The three simple tensors (E_{xi_i}, gamma(y_i)) of d."""
    return [(xi_E(i), EXT.gamma(i)) for i in (1, 2, 3)]


def _star_tensors(pairs):
    """(x (x) T)* = x* (x) T* with the Gram adjoint on the second leg."""
    return [(star(x), EXT.adjoint_wrt_gram(op)) for x, op in pairs]


def _products(left, right):
    """The simple tensors x y (x) A B of (sum x (x) A)(sum y (x) B)."""
    return [(x * y, a @ b) for x, a in left for y, b in right]


def dolbeault_squares():
    """d^2 and (d*)^2, each the canonical sum of its 9 simple tensors."""
    d = _dolbeault_tensors()
    ds = _star_tensors(d)
    return TensorOperator.of(_products(d, d)), TensorOperator.of(_products(ds, ds))


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

    def radical_components(self):
        return {u: op for u, op in self.terms.items() if u != _U_ZERO}

    @property
    def radical_is_zero(self):
        return not self.radical_components()


_SPLIT_CACHE = {}


def _split_word(x, degree_cap):
    """The pieces (u, rho(S(L_u))) of the split x = sum_u W(u) L_u of a PBW
    element, with the zero operators dropped; memoised per (x, degree_cap)."""
    got = _SPLIT_CACHE.get((x, degree_cap))
    if got is None:
        pieces = ((u, EXT.rho(antipode(l))) for u, l in levi_right_split(x, degree_cap))
        got = tuple((u, op) for u, op in pieces if not op.is_zero)
        _SPLIT_CACHE[(x, degree_cap)] = got
    return got


def reduce_to_M(x, op, degree_cap=DEGREE_CAP):
    """The simple tensor x (x) T reduced in M from one split of x:
    x (x) T = sum_u W(u) (x) T rho(S(L_u))."""
    out = {}
    for u, rho_sl in _split_word(x, degree_cap):
        accumulate(out, u, op @ rho_sl)
    return MElement(out)


def dirac_squared(degree_cap=DEGREE_CAP):
    """D^2 reduced in M with the kappa symbols still free.

    d^2 = 0 and (d*)^2 = 0 are checked, so D^2 = d d* + d* d.  With d =
    sum_i xi_i (x) gamma_i and d* = sum_j xi*_j (x) gamma*_j, that is the 18
    simple tensors xi_i xi*_j (x) gamma_i gamma*_j and xi*_j xi_i (x)
    gamma*_j gamma_i, each reduced from one split of its first leg.
    """
    d_sq, ds_sq = dolbeault_squares()
    # the square-zero identities are part of the contract
    if not d_sq.is_zero:
        raise RuntimeError("Dolbeault element does not square to zero")
    if not ds_sq.is_zero:
        raise RuntimeError("adjoint Dolbeault element does not square to zero")
    d = _dolbeault_tensors()
    ds = _star_tensors(d)
    out = sum((reduce_to_M(x, op, degree_cap)
               for x, op in _products(d, ds) + _products(ds, d)), MElement({}))
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

def casimir_in_M(C, degree_cap=DEGREE_CAP):
    """C (x) 1 reduced in M from one split of the whole element C."""
    return reduce_to_M(C, ModuleOperator.identity(), degree_cap)


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
    return diff, diff.component(_U_ZERO)


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
    d = _dolbeault_tensors()
    xis, gammas = zip(*d)
    for tok in LEVI_GEN_TOKENS:
        lhs = TensorOperator.of((adjoint_action(tok, x), g) for x, g in d)
        rhs = TensorOperator.of(zip(xis, _ad_tilde_S(tok, gammas)))
        res[token_name(tok)] = lhs - rhs
    return res


def dirac_self_adjoint():
    """D* == D, symbolically in the kappa ratios, with D = d + d*."""
    d = _dolbeault_tensors()
    dirac = d + _star_tensors(d)
    return TensorOperator.of(_star_tensors(dirac)) == TensorOperator.of(dirac)


# the space m_well_definedness_probe draws from: a Levi word of one or two
# of PROBE_LEVI_TOKENS, a first factor xi_i or xi_i xi*_j with i and j in
# PROBE_XI_INDICES, and one of probe_base_operators()
PROBE_LEVI_TOKENS = ("E1", "F1", ("K", 1, 0), ("K", 0, -1))
PROBE_XI_INDICES = (1, 2, 3)


def probe_base_operators():
    return (EXT.gamma(1), EXT.gamma(2), EXT.gamma_star(3), ModuleOperator.identity())


def probe_first_factors():
    """The 12 first factors: xi_i keyed by (i, None), xi_i xi*_j by (i, j)."""
    ks = PROBE_XI_INDICES
    return {**{(i, None): xi_E(i) for i in ks},
            **{(i, j): xi_E(i) * xi_E_star(j) for i in ks for j in ks}}


def m_relation_sides(y):
    """y and rho(S(y)), the two legs M's relation moves a Levi y between."""
    return y, EXT.rho(antipode(y))


def m_relation_holds(sides, first, ops, degree_cap=DEGREE_CAP):
    """Whether M's defining relation X Y (x) T = X (x) T rho(S(Y)) holds for
    sides = m_relation_sides(Y), X = first and every T in `ops`: each side is
    one simple tensor, reduced from one split of its first leg, and X Y is
    formed once for all of them."""
    y, rho_sy = sides
    first_y = first * y
    return all(reduce_to_M(first_y, op, degree_cap)
               == reduce_to_M(first, op @ rho_sy, degree_cap) for op in ops)


def m_well_definedness_probe(seed, trials, degree_cap=DEGREE_CAP):
    """Randomized check of the defining relation of M on `trials` cases
    drawn from the space above; returns the number of failing cases."""
    import random
    rng = random.Random(seed)
    firsts, base_ops = probe_first_factors(), probe_base_operators()
    failures = 0
    for _ in range(trials):
        y = normal_form(tuple(rng.choice(PROBE_LEVI_TOKENS)
                              for _ in range(rng.randint(1, 2))))
        i = rng.choice(PROBE_XI_INDICES)
        j = rng.choice(PROBE_XI_INDICES) if rng.random() < 0.5 else None
        op = rng.choice(base_ops)
        if not m_relation_holds(m_relation_sides(y), firsts[i, j], (op,), degree_cap):
            failures += 1
    return failures


# ---------------------------------------------------------------------------
# spectral growth
# ---------------------------------------------------------------------------

class SpectrumResult:
    __slots__ = ("rows", "shell_minima", "monotone", "positive")

    def __init__(self, rows, shell_minima, monotone, positive):
        self.rows = rows
        self.shell_minima = shell_minima
        self.monotone = monotone
        self.positive = positive


def _linear_exponents():
    """(base, s1, s2) with casimir_exponents((n1, n2)) equal to
    base + n1 s1 + n2 s2 term by term; the pairing is bilinear."""
    base = casimir_exponents((0, 0))
    steps = [[e - b for e, b in zip(casimir_exponents(lam), base)]
             for lam in ((1, 0), (0, 1))]
    return base, steps[0], steps[1]


def spectrum_growth(v0, shell_max):
    """Exact Casimir eigenvalues over dominant weights with n1 + n2 <=
    shell_max, enumerated lexicographically; reports per-shell minima.

    Each row is c_L(v0) = sum_j q0^e_j / (q0 - q0^-1)^2 at q0 = v0^2, with
    e_j = -2 (lambda_j, L + rho) (Jantzen, Lectures on Quantum Groups,
    1996).  The weights lambda_j of V are +-eps1 and +-eps2, so the
    exponents come in two pairs +-e; this is checked once per call on the
    linear form below.  Writing q0 = n/d, t_k = n^k + d^k, m for the
    larger and e for the smaller |e_j|, q0^e + q0^-e = t_(2e) / (nd)^e and
    (q0 - q0^-1)^2 = (n^2 - d^2)^2 / (nd)^2, so the row is

        S / ((nd)^(m - 2) (n^2 - d^2)^2),  S = t_(2m) + (nd)^(m - e) t_(2e).

    L + rho is strictly dominant, so m = 2 (n1 + n2 + 2) >= 4 and
    m - e = 2 (n1 + 1) >= 2: both powers of nd are nonnegative integers,
    the one in the denominator because m >= 2.  S is a sum of positive
    terms over a positive denominator, so every row is positive by the
    formula, and `positive` records that fact rather than finding it.
    As m - e >= 1, S = d^(2m) (mod n) and S = n^(2m) (mod d), so S is
    coprime to nd, and the one common factor left is g = gcd(S mod
    (n^2 - d^2)^2, (n^2 - d^2)^2), a gcd with a small integer; a row is
    the coprime integer tuple (n1, n2, S/g, (nd)^(m - 2) (n^2 - d^2)^2 / g).
    In shell s = n1 + n2, m = 2 (s + 2), so the rows of a shell share their
    unreduced denominator and the shell minimum is the row of smallest S, by
    plain integer comparison; a shell whose rows differ in m raises
    ValueError.  Only the minima of adjacent shells are cross-multiplied,
    for `monotone`.
    The exponents are linear in L = (n1, n2), so they come from
    rmatrix.casimir_exponents, their one source, at (0, 0), (1, 0) and
    (0, 1); |e_j| is largest at a corner of the shell triangle, which
    bounds the tables of t_k and (nd)^k.  v0 must satisfy 0 < v0 < 1.
    """
    v0 = Fraction(v0)
    if not (0 < v0 < 1):
        raise ValueError("evaluation point must satisfy 0 < v0 < 1")
    linear = _linear_exponents()
    if any(len(x) != 4 or x[::-1] != [-e for e in x] for x in linear):
        raise ValueError("Casimir exponents do not come in pairs +-e")
    q0 = v0 * v0
    n, d = q0.numerator, q0.denominator
    (b1, b2), (a1, a2), (c1, c2) = (x[:2] for x in linear)
    top = max(abs(b + k1 * a + k2 * c)
              for k1, k2 in ((0, 0), (shell_max, 0), (0, shell_max))
              for b, a, c in ((b1, a1, c1), (b2, a2, c2)))
    t, pnd = [2], [1]
    pn = pd = 1
    for _ in range(2 * top):
        pn *= n
        pd *= d
        t.append(pn + pd)
    for _ in range(top):
        pnd.append(pnd[-1] * n * d)
    den = (n * n - d * d) ** 2
    rows = []
    # per shell: (m, smallest unreduced S, its row)
    mins = [None] * (shell_max + 1)
    positive = True
    for n1 in range(shell_max + 1):
        x0, y0 = b1 + n1 * a1, b2 + n1 * a2
        for n2 in range(shell_max + 1 - n1):
            m, e = abs(x0 + n2 * c1), abs(y0 + n2 * c2)
            if m < e:
                m, e = e, m
            num = t[2 * m] + pnd[m - e] * t[2 * e]
            g = gcd(num % den, den)
            row = (n1, n2, num // g, pnd[m - 2] * (den // g))
            rows.append(row)
            # exact sign on the coprime pair, whose denominator is > 0
            if row[2] <= 0:
                positive = False
            # a shell's rows share m, so their unreduced denominator: the
            # smallest S is the smallest row
            low = mins[n1 + n2]
            if low is None:
                mins[n1 + n2] = (m, num, row)
            elif m != low[0]:
                raise ValueError("rows of a shell do not share a denominator")
            elif num < low[1]:
                mins[n1 + n2] = (m, num, row)
    low_rows = [low[2] for low in mins]
    shell_minima = {s: Fraction(row[2], row[3]) for s, row in enumerate(low_rows)}
    monotone = all(a[2] * b[3] < b[2] * a[3] for a, b in zip(low_rows, low_rows[1:]))
    return SpectrumResult(rows, shell_minima, monotone, positive)
