"""Finite-dimensional modules: the fundamental module of U_q(sp4) and the
quantum exterior algebra of the nilradical dual.

The fundamental module V has dimension 4 with weight basis v_1..v_4; the
generator matrices are the standard ones (E_1 v_2 = q^(1/2) v_1 and so on),
and every defining relation of the algebra holds for them exactly.

The exterior algebra Lambda has graded dimensions (1, 3, 3, 1) over the
basis

    1; y_1, y_2, y_3; y_21, y_31, y_32; y_321,

where y_21 = y_2 ^ y_1 etc.  Its relations are the quadratic dual of the
relations of the radical-root subalgebra under the flipped pairing
< x (x) x', y (x) y' > = <x, y'> <x', y>.  The quantized gl_2 Levi factor
acts on Lambda as a module algebra; the invariant inner products are
diagonal per degree with one free constant c_k each, and only the ratios
kappa_k = c_k / c_{k-1} enter the wedge-adjoint operators.

Operators on Lambda are ModuleOperator instances: sparse combinations
{(row, column): KScalar} over that basis, graded by the degree vector
(0,1,1,1,2,2,2,3).  The wedge operators gamma(y_i), their adjoints, rho(x)
of a Levi element and the golden gamma tables all take that form; dense
Scalar matrices remain for E1, F1, K and `rep`, which the invariant-form
solve, the canonical element and the Levi table read.
"""

from __future__ import annotations

from functools import cached_property

from .linalg import (
    Combination, accumulate, madd, miszero, mmul, mscale, msub, mT, mzeros, meye,
    nullspace,
)
from .scalar import (
    BR2, KONE, ONE, ZERO, KScalar, Scalar, kappa, Q_SC as _Q, q_power as _qp,
    v_power as _v,
)
from .weights import ALPHA1, LAMBDA_V, W_ZERO, XI, Weight
from . import pbw


# ---------------------------------------------------------------------------
# fundamental module
# ---------------------------------------------------------------------------

def _diag(qexps):
    """The diagonal matrix with entries q^e, e in qexps."""
    m = mzeros(len(qexps), len(qexps), ZERO)
    for i, e in enumerate(qexps):
        m[i][i] = _qp(e)
    return m


def _walk(vec, path):
    """Sparse vector {row: entry} times the column-sparse matrices of
    `path`, the first one applied first."""
    for cols in path:
        nxt = {}
        for r0, y0 in vec.items():
            for r, y in cols[r0]:
                accumulate(nxt, r, y * y0)
        vec = nxt
    return vec


def _chain(ms):
    out = ms[0]
    for m in ms[1:]:
        out = mmul(out, m, ZERO)
    return out


class _WeightModule:
    """A module with a weight basis (`weights`) and root-vector matrices
    `_root_e`/`_root_f` keyed by j for E_{beta_j}/F_{beta_j}."""

    def K(self, lam):
        lam = Weight(*lam)
        return _diag([lam.pair(w) for w in self.weights])

    @cached_property
    def _columns(self):
        """The E and F root tables as {j: cols}, cols[c] holding the nonzero
        (row, entry) pairs of column c."""
        cols = lambda m: [[(r, y) for r, y in enumerate(col) if y] for col in zip(*m)]
        return ({j: cols(m) for j, m in self._root_e.items()},
                {j: cols(m) for j, m in self._root_f.items()})

    def rep(self, x):
        """Matrix of a PBW element, walked one weight vector at a time: for
        each word c F^a K_lam E^b, the sparse column c e_j goes through the
        E letters right to left, then the K diagonal q^(lam, wt), then the F
        letters right to left, through the column-sparse root tables."""
        ce, cf = self._columns
        out = mzeros(self.dim, self.dim, ZERO)
        for (fexp, lam, eexp), c in x.terms.items():
            lam = Weight(*lam)
            es = [ce[k + 1] for k in (3, 2, 1, 0) for _ in range(eexp[k])]
            fs = [cf[4 - k] for k in (3, 2, 1, 0) for _ in range(fexp[k])]
            for j in range(self.dim):
                vec = {r: _qp(lam.pair(self.weights[r])) * y
                       for r, y in _walk({j: c}, es).items()}
                for r, y in _walk(vec, fs).items():
                    out[r][j] = out[r][j] + y
        return out


class FundamentalModule(_WeightModule):
    """The 4-dimensional module with weights (lambda_1..lambda_4)."""

    dim = 4

    def __init__(self):
        self.weights = LAMBDA_V
        self.E1 = mzeros(4, 4, ZERO)
        self.E1[0][1] = _v(1)
        self.E1[2][3] = _v(1)
        self.E2 = mzeros(4, 4, ZERO)
        self.E2[1][2] = _qp(1)
        self.F1 = mzeros(4, 4, ZERO)
        self.F1[1][0] = _v(-1)
        self.F1[3][2] = _v(-1)
        self.F2 = mzeros(4, 4, ZERO)
        self.F2[2][1] = _qp(-1)
        self._gen = {"E1": self.E1, "E2": self.E2, "F1": self.F1, "F2": self.F2}
        self._root_e = {}
        self._root_f = {}
        self._build_root_matrices()

    def rep_token(self, tok):
        lam = pbw.token_weight(tok)
        if lam is not None:
            return self.K(lam)
        if not (isinstance(tok, str) and tok in self._gen):
            raise ValueError(f"unknown generator token {tok!r}")
        return self._gen[tok]

    def rep_word(self, word):
        """Matrix of a generator word, multiplied out directly."""
        return _chain([meye(4, ONE, ZERO)] + [self.rep_token(t) for t in word])

    def _build_root_matrices(self):
        mul = lambda *ms: _chain(ms)
        e1, e2, f1, f2 = self.E1, self.E2, self.F1, self.F2
        inv2 = ONE / BR2
        self._root_e[1] = e1
        self._root_e[4] = e2
        self._root_e[3] = msub(mul(e1, e2), mscale(_qp(-2), mul(e2, e1)))
        self._root_e[2] = madd(
            msub(mscale(inv2, mul(e1, e1, e2)), mscale(_qp(-1), mul(e1, e2, e1))),
            mscale(_qp(-2) * inv2, mul(e2, e1, e1)))
        self._root_f[1] = f1
        self._root_f[4] = f2
        self._root_f[3] = msub(mul(f2, f1), mscale(_qp(2), mul(f1, f2)))
        self._root_f[2] = madd(
            msub(mscale(inv2, mul(f2, f1, f1)), mscale(_qp(1), mul(f1, f2, f1))),
            mscale(_qp(2) * inv2, mul(f1, f1, f2)))

    def root_E(self, j):
        return self._root_e[j]

    def root_F(self, j):
        return self._root_f[j]

    def relation_residuals(self):
        """Residual matrices of every defining relation, from raw matrix
        products of the generator matrices (independent of the PBW engine)."""
        res = {}
        for prefix, rels in (("rel", pbw.defining_relator_words()),
                             ("serre", pbw.serre_relator_words())):
            for idx, rel in enumerate(rels):
                m = mzeros(4, 4, ZERO)
                for c, w in rel:
                    m = madd(m, mscale(c, self.rep_word(w)))
                res[f"{prefix}-{idx}"] = m
        return res

    def f_vanish_report(self):
        """Nilpotency pattern of the negative root vectors in this module."""
        zero_products = [
            ((2, 1),), ((3, 2),), ((4, 2),), ((4, 3),),
            ((3, 2), (1,)), ((4, 2), (1,)), ((4, 3), (2,)),
        ]
        report = {}
        for j in (1, 2, 3, 4):
            m = mmul(self._root_f[j], self._root_f[j], ZERO)
            report[f"F{j}^2"] = miszero(m)
        for spec in (((2,), (1,)), ((3,), (2,)), ((4,), (2,)), ((4,), (3,)),
                     ((3,), (2,), (1,)), ((4,), (2,), (1,)), ((4,), (3,), (2,))):
            m = meye(4, ONE, ZERO)
            name = "F" + "F".join(str(s[0]) for s in spec)
            for (j,) in spec:
                m = mmul(m, self._root_f[j], ZERO)
            report[name] = miszero(m)
        for a, b in ((3, 1), (4, 1)):
            m = mmul(self._root_f[a], self._root_f[b], ZERO)
            report[f"F{a}F{b}-nonzero"] = not miszero(m)
        return report


# ---------------------------------------------------------------------------
# exterior algebra
# ---------------------------------------------------------------------------

BASIS_WORDS = ((), (1,), (2,), (3,), (2, 1), (3, 1), (3, 2), (3, 2, 1))
BASIS_INDEX = {w: i for i, w in enumerate(BASIS_WORDS)}
DEGREES = (0, 1, 1, 1, 2, 2, 2, 3)
BASIS_NAMES = ("1", "y1", "y2", "y3", "y21", "y31", "y32", "y321")

# wedge rewriting toward strictly decreasing index words
_WEDGE_RULES = {
    (1, 1): (),
    (3, 3): (),
    (2, 2): ((_Q * _qp(1) / BR2, (1, 3)),),
    (1, 2): ((-_qp(2), (2, 1)),),
    (1, 3): ((-ONE, (3, 1)),),
    (2, 3): ((-_qp(2), (3, 2)),),
}

_WEDGE_CACHE = {}


def _wedge_word(word):
    got = _WEDGE_CACHE.get(word)
    if got is not None:
        return got
    pos = -1
    for i in range(len(word) - 1):
        if word[i] <= word[i + 1]:
            pos = i
            break
    if pos < 0:
        out = {word: ONE} if word in BASIS_INDEX else {}
        _WEDGE_CACHE[word] = out
        return out
    out = {}
    for c, repl in _WEDGE_RULES[(word[pos], word[pos + 1])]:
        for w, v in _wedge_word(word[:pos] + repl + word[pos + 2:]).items():
            accumulate(out, w, c * v)
    _WEDGE_CACHE[word] = out
    return out


class ModuleOperator(Combination):
    """Operator on the exterior module: {(row, column): nonzero KScalar}."""

    __slots__ = ()

    @staticmethod
    def zero():
        return ModuleOperator({})

    @staticmethod
    def identity():
        return ModuleOperator({(i, i): KONE for i in range(8)})

    @staticmethod
    def lift(scalar_mat):
        """The operator of a dense Scalar matrix."""
        return ModuleOperator({(r, c): KScalar.from_scalar(x)
                               for r, row in enumerate(scalar_mat)
                               for c, x in enumerate(row) if x})

    def __matmul__(self, other):
        rows = {}
        for (t, c), y in other.terms.items():
            rows.setdefault(t, []).append((c, y))
        out = {}
        for (r, t), x in self.terms.items():
            for c, y in rows.get(t, ()):
                accumulate(out, (r, c), x * y)
        return ModuleOperator(out)

    def scale(self, c):
        if isinstance(c, Scalar):
            c = KScalar.from_scalar(c)
        if not c:
            return ModuleOperator({})
        return ModuleOperator({rc: c * x for rc, x in self.terms.items()})

    def substitute_ratios(self, s2, s3):
        out = {}
        for rc, x in self.terms.items():
            y = x.substitute_ratios(s2, s3)
            if y:
                out[rc] = y
        return ModuleOperator(out)

    def degree_shift(self):
        """The unique d with entries only on blocks deg(row) = deg(col) + d,
        or None if mixed."""
        shifts = {DEGREES[r] - DEGREES[c] for r, c in self.terms}
        if len(shifts) > 1:
            return None
        return shifts.pop() if shifts else 0

    def entries_str(self):
        return "; ".join(
            f"[{BASIS_NAMES[r]},{BASIS_NAMES[c]}] {self.terms[r, c].canon_str()}"
            for r, c in sorted(self.terms)) or "0"

    def __repr__(self):
        return f"ModuleOperator({self.entries_str()})"


class ExteriorModule(_WeightModule):
    """The 8-dimensional quantum exterior algebra with its Levi action."""

    dim = 8

    def __init__(self):
        self.weights = tuple(
            W_ZERO - sum((XI[j] for j in w), W_ZERO) for w in BASIS_WORDS)
        self._levi1 = self._derive_degree_one_action()
        self.E1 = self._module_algebra_extend("E1")
        self.F1 = self._module_algebra_extend("F1")
        self._root_e, self._root_f = {1: self.E1}, {1: self.F1}
        self._gram_hat = self._normalized_gram()

    # --- wedge ---------------------------------------------------------

    def wedge(self, u, v):
        """Wedge product of coefficient dicts {basis index: Scalar}."""
        out = {}
        for i, ci in u.items():
            for j, cj in v.items():
                c = ci * cj
                if c.is_zero:
                    continue
                for w, cw in _wedge_word(BASIS_WORDS[i] + BASIS_WORDS[j]).items():
                    accumulate(out, BASIS_INDEX[w], c * cw)
        return out

    # --- Levi action -----------------------------------------------------

    def _derive_degree_one_action(self):
        """Degree-one action of E1 and F1 from the invariant dual pairing
        against the adjoint action on the radical root vectors."""
        ad_e, ad_f = _ad_radical("E1"), _ad_radical("F1")
        e1 = mzeros(3, 3, ZERO)
        f1 = mzeros(3, 3, ZERO)
        for j in range(3):
            for i in range(3):
                # <E1 |> x_i, y_j> + <K1 |> x_i, E1 y_j> = 0
                e1[i][j] = -(_qp(-ALPHA1.pair(XI[i + 1])) * ad_e[j][i])
                # <F1 |> x_i, K1^-1 y_j> + <x_i, F1 y_j> = 0
                f1[i][j] = -(_qp(ALPHA1.pair(XI[j + 1])) * ad_f[j][i])
        return {"E1": e1, "F1": f1}

    def _vec(self, i):
        return {i: ONE}

    def _act_rec(self, tok, word):
        """Module-algebra action of E1/F1 on a basis word, recursively."""
        if not word:
            return {}
        if len(word) == 1:
            i = BASIS_INDEX[word]
            col = self._levi1[tok]
            return {k + 1: col[k][i - 1] for k in range(3) if col[k][i - 1]}
        head, tail = (word[0],), word[1:]
        hv, tv = self._vec(BASIS_INDEX[head]), self._vec(BASIS_INDEX[tail])
        if tok == "E1":
            # E1(u ^ v) = (E1 u) ^ v + (K1 u) ^ (E1 v)
            a = self.wedge(self._act_rec("E1", head), tv)
            ku = {k: _qp(ALPHA1.pair(self.weights[k])) * c for k, c in hv.items()}
            b = self.wedge(ku, self._act_rec("E1", tail))
        else:
            # F1(u ^ v) = (F1 u) ^ (K1^-1 v) + u ^ (F1 v)
            kv = {k: _qp(-ALPHA1.pair(self.weights[k])) * c for k, c in tv.items()}
            a = self.wedge(self._act_rec("F1", head), kv)
            b = self.wedge(hv, self._act_rec("F1", tail))
        out = dict(a)
        for k, c in b.items():
            accumulate(out, k, c)
        return out

    def _module_algebra_extend(self, tok):
        m = mzeros(8, 8, ZERO)
        for c_idx, w in enumerate(BASIS_WORDS):
            for r_idx, coeff in self._act_rec(tok, w).items():
                m[r_idx][c_idx] = coeff
        return m

    def rep(self, x):
        """Matrix of a Levi PBW element; ValueError off the Levi factor."""
        if not x.is_levi():
            raise ValueError("rho is defined on the quantized Levi factor only")
        return super().rep(x)

    def rho(self, x):
        """Operator of a Levi PBW element on the exterior module; `rep`
        rejects any other element."""
        return ModuleOperator.lift(self.rep(x))

    def rep_token(self, tok):
        return self.rep(pbw.normal_form((tok,)))

    def rep_star_matrix(self, tok):
        """Matrix of the star of a Levi generator."""
        return self.rep(pbw.star(pbw.normal_form((tok,))))

    # --- invariant inner products ---------------------------------------

    def _normalized_gram(self):
        # diagonal entries of the degree-k Gram matrix divided by c_k
        return (ONE, ONE, ONE / BR2, _qp(-2), ONE, BR2, _qp(-2), ONE)

    def solve_invariant_inner_products(self):
        """Solve (X y, y') = (y, X* y') degreewise for a symmetric form.

        Returns the list of normalized degree-block Gram matrices (one
        free constant per degree, fixed by a unit top-left entry) and
        checks each solution space is one-dimensional.
        """
        mats = [(self.rep_token(tok), self.rep_star_matrix(tok))
                for tok in LEVI_GEN_TOKENS]
        blocks = []
        for deg in range(4):
            idxs = [i for i in range(8) if DEGREES[i] == deg]
            n = len(idxs)
            unknowns = [(i, j) for i in range(n) for j in range(i, n)]
            upos = {u: k for k, u in enumerate(unknowns)}
            rows = []
            for X, Xs in mats:
                Xb = [[X[a][b] for b in idxs] for a in idxs]
                Xsb = [[Xs[a][b] for b in idxs] for a in idxs]
                # X^T G - G X* = 0, G symmetric
                for r in range(n):
                    for c in range(n):
                        row = [ZERO] * len(unknowns)
                        for t in range(n):
                            # (X^T G)[r][c] = sum_t X[t][r] G[t][c]
                            u = (min(t, c), max(t, c))
                            row[upos[u]] = row[upos[u]] + Xb[t][r]
                            # (G X*)[r][c] = sum_t G[r][t] X*[t][c]
                            u = (min(r, t), max(r, t))
                            row[upos[u]] = row[upos[u]] - Xsb[t][c]
                        rows.append(row)
            basis = nullspace(rows, ONE)
            if len(basis) != 1:
                raise RuntimeError(
                    f"invariant form space at degree {deg} has dimension {len(basis)}")
            vec = basis[0]
            G = mzeros(n, n, ZERO)
            for (i, j), k in upos.items():
                G[i][j] = vec[k]
                G[j][i] = vec[k]
            # normalize so the first diagonal entry is 1
            scale = G[0][0].inv()
            G = mscale(scale, G)
            blocks.append(G)
        return blocks

    # --- wedge operators --------------------------------------------------

    def gamma(self, i):
        """Right wedge multiplication by y_i."""
        yi = self._vec(i)
        return ModuleOperator({(r, c): KScalar.from_scalar(x) for c in range(8)
                               for r, x in self.wedge(self._vec(c), yi).items()})

    def gamma_star(self, i):
        """Gram adjoint of gamma(y_i); entries linear in kappa_1..kappa_3."""
        return self.adjoint_wrt_gram(self.gamma(i))

    def adjoint_wrt_gram(self, op):
        """Gram adjoint: T*[r][c] = T[c][r] ghat_c/ghat_r . c_deg(c)/c_deg(r).

        The constant ratio is a kappa monomial when deg(c) > deg(r) and its
        exact inverse otherwise; division must be exact on the entries.
        """
        gh = self._gram_hat
        out = {}
        for (c, r), x in op.terms.items():
            src, dst = DEGREES[c], DEGREES[r]
            val = x * (gh[c] / gh[r])
            # the kappa_k with min(src, dst) < k <= max(src, dst)
            mono = tuple(int(min(src, dst) < k <= max(src, dst)) for k in (1, 2, 3))
            if src > dst:
                val = val * KScalar({mono: ONE})
            elif dst > src:
                val = val.div_kappa(mono)
            out[r, c] = val
        return ModuleOperator(out)


# --- golden tables ------------------------------------------------------------

def golden_levi_Lq():
    """The Levi action table on the 8 basis vectors."""
    e1 = mzeros(8, 8, ZERO)
    e1[2][1] = -BR2
    e1[3][2] = -_qp(2)
    e1[5][4] = -ONE
    e1[6][5] = -(BR2 * _qp(2))
    f1 = mzeros(8, 8, ZERO)
    f1[1][2] = -ONE
    f1[2][3] = -(BR2 * _qp(-2))
    f1[4][5] = -BR2
    f1[5][6] = -_qp(-2)
    k1 = _diag([0, -2, 0, 2, -2, 0, 2, 0])
    k2 = _diag([0, 0, -2, -4, -2, -4, -6, -6])
    return {"K1": k1, "K2": k2, "E1": e1, "F1": f1}


def golden_action_gamma():
    g1 = {(1, 0): ONE, (4, 2): ONE, (5, 3): ONE, (7, 6): ONE}
    g2 = {(2, 0): ONE, (4, 1): -_qp(2), (5, 2): -(_Q * _qp(1) / BR2), (6, 3): ONE,
          (7, 5): -_qp(2)}
    g3 = {(3, 0): ONE, (5, 1): -ONE, (6, 2): -_qp(2), (7, 4): _qp(2)}
    return {i: ModuleOperator({rc: KScalar.from_scalar(x) for rc, x in g.items()})
            for i, g in ((1, g1), (2, g2), (3, g3))}


def golden_gamma_star():
    k1, k2, k3 = kappa(1), kappa(2), kappa(3)
    g1 = {(0, 1): k1, (2, 4): k2 * BR2, (3, 5): k2 * (BR2 * _qp(2)),
          (6, 7): k3 * _qp(2)}
    g2 = {(0, 2): k1 * (ONE / BR2), (1, 4): -(k2 * _qp(2)),
          (2, 5): -(k2 * (_Q * BR2 * _qp(1))), (3, 6): k2,
          (5, 7): -(k3 * (_qp(2) / BR2))}
    g3 = {(0, 3): k1 * _qp(-2), (1, 5): -(k2 * BR2), (2, 6): -(k2 * BR2),
          (4, 7): k3 * _qp(2)}
    return {1: ModuleOperator(g1), 2: ModuleOperator(g2), 3: ModuleOperator(g3)}


def iso_exterior_map():
    """Degree-1 to degree-2 comparison map y1 -> y21, y2 -> y31/[2], y3 -> y32."""
    m = mzeros(3, 3, ZERO)
    m[0][0] = ONE
    m[1][1] = ONE / BR2
    m[2][2] = ONE
    return m


LEVI_GEN_TOKENS = (("K", 2, -1), ("K", -2, 2), "E1", "F1")


def _ad_radical(tok):
    """ad(tok) on the radical root vectors: column i holds the coefficients
    of ad(tok) E_{xi_i} on E_{xi_1}, E_{xi_2}, E_{xi_3}."""
    m = mzeros(3, 3, ZERO)
    for i in (1, 2, 3):
        img = pbw.adjoint_action(tok, pbw.xi_E(i)).terms
        for k in (1, 2, 3):
            (word,) = pbw.xi_E(k).terms
            m[k - 1][i - 1] = img.get(word, ZERO)
    return m


def canonical_element_invariance_residuals():
    """(X (x) 1) I = (1 (x) S(X)) I for the canonical element I = sum_i
    E_{xi_i} (x) y_i: as matrices, ad_X on the radical roots must equal the
    transpose of the degree-one block of the antipode action on the y_i."""
    res = {}
    for tok in LEVI_GEN_TOKENS:
        C = EXT.rep(pbw.antipode(pbw.normal_form((tok,))))
        Cblock = [[C[r][c] for c in (1, 2, 3)] for r in (1, 2, 3)]
        res[pbw.token_name(tok)] = msub(_ad_radical(tok), mT(Cblock))
    return res


def gamma_equivariance_residuals():
    """Twisted-adjoint equivariance of the wedge operators:
    sum rho(X_(2)) gamma(y_i) rho(S^-1(X_(1))) = gamma(X y_i) over the
    coproduct of each Levi generator X, with S^-1 = * o S o *."""
    res = {}
    gammas = {i: EXT.gamma(i) for i in (1, 2, 3)}
    for tok in LEVI_GEN_TOKENS:
        X = EXT.rep_token(tok)
        legs = [(EXT.rho(b), EXT.rho(pbw.star(pbw.antipode(pbw.star(a)))))
                for a, b in pbw.coproduct(tok)]
        for i, g in gammas.items():
            lhs = sum((rb @ g @ rsa for rb, rsa in legs), ModuleOperator.zero())
            rhs = sum((gk.scale(X[k][i]) for k, gk in gammas.items()),
                      ModuleOperator.zero())
            res[(pbw.token_name(tok), i)] = lhs - rhs
    return res


# ---------------------------------------------------------------------------
# quadratic duality
# ---------------------------------------------------------------------------

def _pair_index(i, j):
    return 3 * (i - 1) + (j - 1)


def sq_relation_vectors():
    """The three relation vectors of the radical-root subalgebra in
    u+ (x) u+ coordinates (x_i (x) x_j at index 3(i-1)+(j-1))."""
    X1 = [ZERO] * 9
    X1[_pair_index(1, 2)] = ONE
    X1[_pair_index(2, 1)] = -_qp(2)
    X2 = [ZERO] * 9
    X2[_pair_index(2, 3)] = ONE
    X2[_pair_index(3, 2)] = -_qp(2)
    X3 = [ZERO] * 9
    X3[_pair_index(1, 3)] = ONE
    X3[_pair_index(3, 1)] = -ONE
    X3[_pair_index(2, 2)] = -(_Q * _qp(1) / BR2)
    return [X1, X2, X3]


def wedge_relation_vectors():
    """The six exterior-algebra relation vectors in u- (x) u- coordinates,
    read off the wedge rules: y_i y_j - sum c y_k y_l for each rule."""
    out = []
    for (i, j), rule in _WEDGE_RULES.items():
        g = [ZERO] * 9
        g[_pair_index(i, j)] = ONE
        for c, (k, l) in rule:
            g[_pair_index(k, l)] = -c
        out.append(g)
    return out


def quadratic_dual(relations):
    """Orthogonal complement of the given relation space under the flipped
    pairing < x_i (x) x_j, y_k (x) y_l > = delta_il delta_jk.

    Returns a basis of the complement in u- (x) u- coordinates; raises if
    its dimension is not 6.
    """
    rows = []
    for X in relations:
        # <X, Y> = sum_{k,l} X[k][l] Y[l][k]
        row = [ZERO] * 9
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                row[_pair_index(l, k)] = X[_pair_index(k, l)]
        rows.append(row)
    basis = nullspace(rows, ONE)
    if len(basis) != 6:
        raise ValueError(f"quadratic dual has rank {len(basis)}, expected 6")
    return basis


def span_equal(vs, ws):
    """Do two lists of coordinate vectors span the same subspace?"""
    def rank(vecs):
        return len(vecs) - len(nullspace(mT([list(v) for v in vecs]), ONE)) \
            if vecs else 0

    rv, rw = rank(vs), rank(ws)
    return rv == rw == rank(vs + ws)


FUND = FundamentalModule()
EXT = ExteriorModule()
