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

Every matrix here is a sparse `linalg.Matrix`.  Operators on Lambda with
KScalar entries are its 8x8 subclass ModuleOperator, graded by the degree
vector (0,1,1,1,2,2,2,3): the wedge operators gamma(y_i), their adjoints,
rho(x) of a Levi element and the golden gamma tables.  The Scalar matrices
E1, F1, K and `rep` of both modules, and the Levi table, are plain Matrix
instances, printed with numeric [row,column] labels.
"""

from __future__ import annotations

from .linalg import Matrix, accumulate, nullspace, rewrite
from .scalar import (
    BR2, KONE, ONE, ZERO, KScalar, Scalar, kappa, Q_SC as _Q, q_power as _qp,
    v_power as _v,
)
from .weights import ALPHA1, LAMBDA_V, W_ZERO, XI, Weight
from . import pbw


# ---------------------------------------------------------------------------
# fundamental module
# ---------------------------------------------------------------------------

class _WeightModule:
    """A module with a weight basis (`weights`), generator matrices `_gen`
    keyed by token name, and root-vector matrices `_root_e`/`_root_f` keyed
    by j for E_{beta_j}/F_{beta_j}."""

    def K(self, lam):
        lam = Weight(*lam)
        return Matrix.diagonal([_qp(lam.pair(w)) for w in self.weights])

    def rep_token(self, tok):
        """Matrix of one generator token; ValueError for a name that does
        not act here."""
        lam = pbw.token_weight(tok)
        if lam is None and tok not in self._gen:
            raise ValueError(f"generator {tok} does not act on this module")
        return self._gen[tok] if lam is None else self.K(lam)

    def rep_word(self, word):
        """Matrix of a generator word, multiplied out directly: the side of
        the representation probes that does not use the PBW engine."""
        out = Matrix.identity(self.dim, ONE)
        for t in word:
            out = out @ self.rep_token(t)
        return out

    def rep(self, x):
        """Matrix of a PBW element: for each word c F^a K_lam E^b, the
        diagonal c q^(lam, wt) times the F root matrices on the left and the
        E root matrices on the right (`linalg.mmul`), every word summed into
        one dict."""
        out = {}
        for (fexp, lam, eexp), c in x.terms.items():
            m = Matrix.diagonal([c * _qp(w.pair(lam)) for w in self.weights])
            for j in reversed(pbw._f_letters(fexp)):
                m = self._root_f[j] @ m
            for j in pbw._e_letters(eexp):
                m = m @ self._root_e[j]
            for rc, y in m.terms.items():
                accumulate(out, rc, y)
        return Matrix(out, (self.dim, self.dim))


class FundamentalModule(_WeightModule):
    """The 4-dimensional module with weights (lambda_1..lambda_4)."""

    dim = 4

    def __init__(self):
        self.weights = LAMBDA_V
        self.E1 = Matrix({(0, 1): _v(1), (2, 3): _v(1)}, (4, 4))
        self.E2 = Matrix({(1, 2): _qp(1)}, (4, 4))
        self.F1 = Matrix({(1, 0): _v(-1), (3, 2): _v(-1)}, (4, 4))
        self.F2 = Matrix({(2, 1): _qp(-1)}, (4, 4))
        self._gen = {"E1": self.E1, "E2": self.E2, "F1": self.F1, "F2": self.F2}
        self._root_e = self._root_matrices("E", pbw._EXPAND_E)
        self._root_f = self._root_matrices("F", pbw._EXPAND_F)

    def _root_matrices(self, side, expand):
        """{j: matrix of the root vector} on `side` "E" or "F": letters 1 and
        4 are the simple generators, and each composite letter is its
        simple-letter expansion in pbw, the one source of the closed forms,
        multiplied out in generator matrices."""
        gens = {1: f"{side}1", 4: f"{side}2"}
        roots = {j: self._gen[tok] for j, tok in gens.items()}
        for j, rule in expand.items():
            roots[j] = sum((self.rep_word([gens[x] for x in letters]).scale(c)
                            for c, letters in rule), Matrix({}, (4, 4)))
        return roots

    def root_F(self, j):
        return self._root_f[j]

    def relation_residuals(self):
        """Residual matrices of every defining relation, from raw matrix
        products of the generator matrices (independent of the PBW engine)."""
        res = {}
        for prefix, rels in (("rel", pbw.defining_relator_words()),
                             ("serre", pbw.serre_relator_words())):
            for idx, rel in enumerate(rels):
                res[f"{prefix}-{idx}"] = sum(
                    (self.rep_word(w).scale(c) for c, w in rel), Matrix({}, (4, 4)))
        return res

    def f_vanish_report(self):
        """Nilpotency pattern of the negative root vectors in this module."""
        f = self._root_f
        report = {f"F{j}^2": (f[j] @ f[j]).is_zero for j in (1, 2, 3, 4)}
        for spec in ((2, 1), (3, 2), (4, 2), (4, 3), (3, 2, 1), (4, 2, 1), (4, 3, 2)):
            m = Matrix.identity(4, ONE)
            for j in spec:
                m = m @ f[j]
            report["F" + "F".join(map(str, spec))] = m.is_zero
        for a, b in ((3, 1), (4, 1)):
            report[f"F{a}F{b}-nonzero"] = not (f[a] @ f[b]).is_zero
        return report


# ---------------------------------------------------------------------------
# exterior algebra
# ---------------------------------------------------------------------------

BASIS_WORDS = ((), (1,), (2,), (3,), (2, 1), (3, 1), (3, 2), (3, 2, 1))
BASIS_INDEX = {w: i for i, w in enumerate(BASIS_WORDS)}
DEGREES = tuple(map(len, BASIS_WORDS))
BASIS_NAMES = tuple("y" + "".join(map(str, w)) if w else "1" for w in BASIS_WORDS)

# wedge rewriting toward strictly decreasing index words (linalg.rewrite,
# memo _WEDGE_CACHE); every pair i <= j is a key
_WEDGE_RULES = {
    (1, 1): (),
    (3, 3): (),
    (2, 2): ((_Q * _qp(1) / BR2, (1, 3)),),
    (1, 2): ((-_qp(2), (2, 1)),),
    (1, 3): ((-ONE, (3, 1)),),
    (2, 3): ((-_qp(2), (3, 2)),),
}

_WEDGE_CACHE = {}


class ModuleOperator(Matrix):
    """Operator on the exterior module: an 8x8 Matrix of nonzero KScalars."""

    __slots__ = ()

    def __init__(self, terms, shape=(8, 8)):
        self.terms = terms
        self.shape = shape

    @staticmethod
    def zero():
        return ModuleOperator({})

    @classmethod
    def identity(cls, n=8, one=KONE):
        return super().identity(n, one)

    # bound here, not inherited, so that a tracer patching this class's
    # namespace sees the products of operators on Lambda
    __matmul__ = Matrix.__matmul__

    def scale(self, c):
        # one KScalar for every entry, not a conversion per product
        return super().scale(KScalar.from_scalar(c) if isinstance(c, Scalar) else c)

    def substitute_ratios(self, s2, s3):
        out = {}
        for rc, x in self.terms.items():
            y = x.substitute_ratios(s2, s3)
            if y:
                out[rc] = y
        return ModuleOperator(out)

    def entries_str(self):
        return "; ".join(
            f"[{BASIS_NAMES[r]},{BASIS_NAMES[c]}] {self.terms[r, c].canon_str()}"
            for r, c in sorted(self.terms)) or "0"


class ExteriorModule(_WeightModule):
    """The 8-dimensional quantum exterior algebra with its Levi action."""

    dim = 8

    def __init__(self):
        self.weights = tuple(
            W_ZERO - sum((XI[j] for j in w), W_ZERO) for w in BASIS_WORDS)
        self._levi1 = self._derive_degree_one_action()
        self.E1 = self._module_algebra_extend("E1")
        self.F1 = self._module_algebra_extend("F1")
        self._gen = {"E1": self.E1, "F1": self.F1}
        self._root_e, self._root_f = {1: self.E1}, {1: self.F1}
        self._gram_hat = self._normalized_gram()

    # --- wedge ---------------------------------------------------------

    def wedge(self, u, v):
        """Wedge product of coefficient dicts {basis index: Scalar}."""
        out = {}
        for i, ci in u.items():
            for j, cj in v.items():
                c = ci * cj
                for k, ck in rewrite(BASIS_WORDS[i] + BASIS_WORDS[j], _WEDGE_RULES,
                                     _WEDGE_CACHE, ONE, BASIS_INDEX.__getitem__).items():
                    accumulate(out, k, c * ck)
        return out

    # --- Levi action -----------------------------------------------------

    def _derive_degree_one_action(self):
        """Degree-one action of E1 and F1, as {(row, column): entry} on
        y_1, y_2, y_3, from the invariant dual pairing against the adjoint
        action on the radical root vectors."""
        # <E1 |> x_i, y_j> + <K1 |> x_i, E1 y_j> = 0
        e1 = {(i, j): -(_qp(-ALPHA1.pair(XI[i + 1])) * x)
              for (j, i), x in _ad_radical("E1").terms.items()}
        # <F1 |> x_i, K1^-1 y_j> + <x_i, F1 y_j> = 0
        f1 = {(i, j): -(_qp(ALPHA1.pair(XI[j + 1])) * x)
              for (j, i), x in _ad_radical("F1").terms.items()}
        return {"E1": e1, "F1": f1}

    def _act_rec(self, tok, word):
        """Module-algebra action of E1/F1 on a basis word, recursively."""
        if not word:
            return {}
        if len(word) == 1:
            i = BASIS_INDEX[word]
            return {k + 1: x for (k, j), x in self._levi1[tok].items() if j == i - 1}
        head, tail = (word[0],), word[1:]
        hv, tv = {BASIS_INDEX[head]: ONE}, {BASIS_INDEX[tail]: ONE}
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
        return Matrix({(r, c): x for c, w in enumerate(BASIS_WORDS)
                       for r, x in self._act_rec(tok, w).items()}, (8, 8))

    def rep(self, x):
        """Matrix of a Levi PBW element; ValueError off the Levi factor."""
        if not x.is_levi():
            raise ValueError("rho is defined on the quantized Levi factor only")
        return super().rep(x)

    def rho(self, x):
        """Operator of a Levi PBW element on the exterior module; `rep`
        rejects any other element."""
        return ModuleOperator({rc: KScalar.from_scalar(y)
                               for rc, y in self.rep(x).terms.items()})

    # --- invariant inner products ---------------------------------------

    def _normalized_gram(self):
        # diagonal entries of the degree-k Gram matrix divided by c_k
        return (ONE, ONE, ONE / BR2, _qp(-2), ONE, BR2, _qp(-2), ONE)

    def solve_invariant_inner_products(self):
        """Solve (X y, y') = (y, X* y') degreewise for a symmetric form.

        On a degree block, G = sum_u x_u U_u over the symmetric unit
        matrices U_u (u = (i, j), i <= j), and X^T G - G X* = 0 for each
        Levi generator X is linear in the x_u: the column of x_u stacks the
        entries of X^T U_u - U_u X* (`Matrix` products).  Returns the list of
        normalized degree-block Gram matrices (one free constant per degree,
        fixed by a unit top-left entry) and checks each solution space is
        one-dimensional.
        """
        mats = [(self.rep_token(tok), self.rep(pbw.star(pbw.normal_form((tok,)))))
                for tok in LEVI_GEN_TOKENS]
        blocks = []
        for deg in range(4):
            idxs = [i for i in range(8) if DEGREES[i] == deg]
            n = len(idxs)
            units = [Matrix({(i, j): ONE, (j, i): ONE}, (n, n))
                     for i in range(n) for j in range(i, n)]
            sides = [(X.block(idxs, idxs).T, Xs.block(idxs, idxs)) for X, Xs in mats]
            # one equation per generator X and entry (r, c), one column per unknown
            eqs = [[(XT @ U - U @ Xsb).terms for U in units] for XT, Xsb in sides]
            basis = nullspace([[m.get((r, c), ZERO) for m in ms]
                               for ms in eqs for r in range(n) for c in range(n)], ONE)
            if len(basis) != 1:
                raise RuntimeError(
                    f"invariant form space at degree {deg} has dimension {len(basis)}")
            G = sum((U.scale(x) for U, x in zip(units, basis[0])), Matrix({}, (n, n)))
            # normalize so the first diagonal entry is 1
            blocks.append(G.scale(G.terms.get((0, 0), ZERO).inv()))
        return blocks

    # --- wedge operators --------------------------------------------------

    def gamma(self, i):
        """Right wedge multiplication by y_i."""
        yi = {i: ONE}
        return ModuleOperator({(r, c): KScalar.from_scalar(x) for c in range(8)
                               for r, x in self.wedge({c: ONE}, yi).items()})

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
    e1 = {(2, 1): -BR2, (3, 2): -_qp(2), (5, 4): -ONE, (6, 5): -(BR2 * _qp(2))}
    f1 = {(1, 2): -ONE, (2, 3): -(BR2 * _qp(-2)), (4, 5): -BR2, (5, 6): -_qp(-2)}
    k1 = Matrix.diagonal([_qp(e) for e in (0, -2, 0, 2, -2, 0, 2, 0)])
    k2 = Matrix.diagonal([_qp(e) for e in (0, 0, -2, -4, -2, -4, -6, -6)])
    return {"K1": k1, "K2": k2, "E1": Matrix(e1, (8, 8)), "F1": Matrix(f1, (8, 8))}


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
    return Matrix.diagonal([ONE, ONE / BR2, ONE])


LEVI_GEN_TOKENS = (("K", 2, -1), ("K", -2, 2), "E1", "F1")


def _ad_radical(tok):
    """ad(tok) on the radical root vectors: column i holds the coefficients
    of ad(tok) E_{xi_i} on E_{xi_1}, E_{xi_2}, E_{xi_3}."""
    m = {}
    for i in (1, 2, 3):
        img = pbw.adjoint_action(tok, pbw.xi_E(i)).terms
        for k in (1, 2, 3):
            (word,) = pbw.xi_E(k).terms
            if word in img:
                m[k - 1, i - 1] = img[word]
    return Matrix(m, (3, 3))


def canonical_element_invariance_residuals():
    """(X (x) 1) I = (1 (x) S(X)) I for the canonical element I = sum_i
    E_{xi_i} (x) y_i: as matrices, ad_X on the radical roots must equal the
    transpose of the degree-one block of the antipode action on the y_i."""
    res = {}
    for tok in LEVI_GEN_TOKENS:
        C = EXT.rep(pbw.antipode(pbw.normal_form((tok,))))
        res[pbw.token_name(tok)] = _ad_radical(tok) - C.block((1, 2, 3), (1, 2, 3)).T
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
            rhs = sum((gk.scale(X.terms.get((k, i), ZERO)) for k, gk in gammas.items()),
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

    Returns a basis of the complement in u- (x) u- coordinates, of whatever
    dimension it has; prop-lq-relations checks that it is 6.
    """
    rows = []
    for X in relations:
        # <X, Y> = sum_{k,l} X[k][l] Y[l][k]
        row = [ZERO] * 9
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                row[_pair_index(l, k)] = X[_pair_index(k, l)]
        rows.append(row)
    return nullspace(rows, ONE)


def span_equal(vs, ws):
    """Do two lists of coordinate vectors span the same subspace?"""
    def rank(vecs):
        return len(vecs) - len(nullspace([list(c) for c in zip(*vecs)], ONE)) \
            if vecs else 0

    rv, rw = rank(vs), rank(ws)
    return rv == rw == rank(vs + ws)


FUND = FundamentalModule()
EXT = ExteriorModule()
