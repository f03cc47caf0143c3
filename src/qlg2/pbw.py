"""PBW normal forms in the quantized enveloping algebra of sp4.

Elements are stored as linear combinations of PBW words

    F_b4^a4 F_b3^a3 F_b2^a2 F_b1^a1 . K_lam . E_b1^b1 E_b2^b2 E_b3^b3 E_b4^b4

over the exact field of qlg2.scalar, encoded as

    word = (fexp, lam, eexp)
    fexp = (a4, a3, a2, a1)      exponents of F_b4..F_b1, left to right
    lam  = Weight                index of the Cartan element K_lam
    eexp = (b1, b2, b3, b4)      exponents of E_b1..E_b4, left to right

E_b1 = E_1 and E_b4 = E_2 are the simple generators; E_b2 and E_b3 are the
composite quantum root vectors attached to the reduced word w0 = s1 s2 s1 s2,
with closed forms

    E_b2 = (1/[2]) E1^2 E2 - q^-1 E1 E2 E1 + (q^-2/[2]) E2 E1^2
    E_b3 = E1 E2 - q^-2 E2 E1

and F_bj = omega(E_bj) for the anti-automorphism omega exchanging E_i and
F_i, sending K_lam to K_-lam and v to v^-1.  The rewriting system consists of

  * the Cartan moves     K_lam X_b = q^(+-(lam, b)) X_b K_lam,
  * the simple crossings E_i F_j = F_j E_i + delta_ij (K_i - K_i^-1)/(q_i - q_i^-1),
  * six straightening rules inside the E block, instances of the general
    root-vector commutation relation whose middle terms are the closed forms
    above, and their six omega-images inside the F block, computed from the
    E tables.

Serre relations are not separate rules: they are consequences of the
straightening rules (the randomized probes and the relation tests check
this).  A product E^B . F^A is crossed by one memoised recursion on PBW
letters (_cross): it peels the last E letter or the first F letter until a
single pair of letters is left, expands a composite letter of that pair
into simple ones, and ends at the simple crossings.  Every recursive call
has a smaller total height, so the recursion terminates (convexity of
root-vector commutators, Levendorskii-Soibelman 1991).

The product of two words is one loop (_mul_terms), table-driven in the
manner of de Graaf (J. Symbolic Comput. 32, 2001): each term of
_cross(B1, A2) is moved past the Cartan parts, and the blocks F^A1 F^A3 and
E^B3 E^B2 are looked up already straightened in tables keyed by their
exponent pairs (A1, A3) and (B3, B2); the straighteners run only on a miss.
`_cross` memoises every pair of exponents in _CROSS_CACHE, a pair with an
empty side included, and _CROSS_ROW_CACHE holds its terms as the rows the
loop reads, with the integer covectors that give the Cartan exponent.
`normal_form` checks each token with plain type tests, then looks the token
word up in _NF_CACHE, which holds the coefficient-one left fold, and scales
that by the coefficient; the tokens' term maps are built only on a miss.
Memoised term maps are shared by every caller and are never mutated.

The Hopf structure has one source: `coproduct` on generator tokens, with
star and antipode given on the simple letters.  The adjoint action is the
Sweedler sum ad(X) y = X_(1) y S(X_(2)) over `coproduct`; the inverse
antipode, where needed, is S^-1 = * o S o *.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .scalar import ZERO, ONE, BR2, Q_SC, Scalar, scalar, q_power as _qp, q_binomial
from .linalg import Combination, accumulate, minv
from .weights import ALPHA1, ALPHA2, BETA, SIMPLE, W_ZERO, Weight


class EngineError(RuntimeError):
    """Internal split failure: a letter column or a starred monomial breaks
    the triangular shape levi_right_split relies on."""


class NotInSpanError(ValueError):
    """levi_right_split: a class block of the starred-to-letter transition is singular."""


_ZEXP = (0, 0, 0, 0)

_QBR2 = Q_SC * BR2      # q^2 - q^-2
_QOV2 = Q_SC * _qp(1) / BR2   # Q q/[2]


# --- straightening rules ----------------------------------------------------
# E block target order: indices ascending left to right.  For an adjacent
# out-of-order pair (hi, lo) the rule lists (coefficient, replacement letters).
_E_RULES = {
    (2, 1): ((_qp(-2), (1, 2)),),
    (3, 1): ((ONE, (1, 3)), (-BR2, (2,))),
    (4, 1): ((_qp(2), (1, 4)), (-_qp(2), (3,))),
    (3, 2): ((_qp(-2), (2, 3)),),
    (4, 2): ((ONE, (2, 4)), (-_QOV2, (3, 3))),
    (4, 3): ((_qp(-2), (3, 4)),),
}

# simple-letter expressions of the composite root-vector letters
_EXPAND_E = {
    2: ((ONE / BR2, (1, 1, 4)),
        (-_qp(-1), (1, 4, 1)),
        (_qp(-2) / BR2, (4, 1, 1))),
    3: ((ONE, (1, 4)),
        (-_qp(-2), (4, 1))),
}

# F block target order: indices descending left to right.  The F tables are
# the images of the E tables under the anti-automorphism omega (E_j <-> F_j,
# K_lam -> K_-lam, v -> v^-1): key pairs and letters reversed, coefficients
# barred.
_F_RULES = {pair[::-1]: tuple((c.bar(), repl[::-1]) for c, repl in rule)
            for pair, rule in _E_RULES.items()}
_EXPAND_F = {j: tuple((c.bar(), letters[::-1]) for c, letters in rule)
             for j, rule in _EXPAND_E.items()}

# simple crossings E_i F_i = F_i E_i + c (K_alpha - K_-alpha), i in {1, 4}
_SIMPLE_CROSS = {1: (ALPHA1, ONE / Q_SC), 4: (ALPHA2, ONE / _QBR2)}


_WT_CACHE = {}


def _wt_e(eexp):
    """Sum of beta weights carried by an E-exponent vector, beta_1 first."""
    got = _WT_CACHE.get(eexp)
    if got is None:
        got = _WT_CACHE[eexp] = sum(
            (b * BETA[j] for j, b in enumerate(eexp, 1)), W_ZERO)
    return got


def _wt_f(fexp):
    """Sum of beta weights carried by an F-exponent vector (positive sum)."""
    return _wt_e(fexp[::-1])


def word_weight(word):
    """Weight of a PBW word: sum of E betas minus sum of F betas."""
    fexp, _lam, eexp = word
    return _wt_e(eexp) - _wt_f(fexp)


def _acc(out, terms, f):
    """out += f * terms on {word: Scalar} maps, dropping zeros."""
    for w, c in terms.items():
        accumulate(out, w, f * c)


# --- block straighteners ----------------------------------------------------

_E_STR_CACHE = {}
_F_STR_CACHE = {}


def _straighten(seq, rules, ascending, cache):
    got = cache.get(seq)
    if got is not None:
        return got
    pos = -1
    for i in range(len(seq) - 1):
        bad = seq[i] > seq[i + 1] if ascending else seq[i] < seq[i + 1]
        if bad:
            pos = i
            break
    if pos < 0:
        exp = [0, 0, 0, 0]
        for j in seq:
            exp[j - 1] += 1
        key = tuple(exp) if ascending else (exp[3], exp[2], exp[1], exp[0])
        out = {key: ONE}
        cache[seq] = out
        return out
    pair = (seq[pos], seq[pos + 1])
    out = {}
    for c, repl in rules[pair]:
        _acc(out, _straighten(seq[:pos] + repl + seq[pos + 2:], rules, ascending, cache), c)
    cache[seq] = out
    return out


def _straighten_e(seq):
    return _straighten(seq, _E_RULES, True, _E_STR_CACHE)


def _straighten_f(seq):
    return _straighten(seq, _F_RULES, False, _F_STR_CACHE)


def _f_letters(fexp):
    a4, a3, a2, a1 = fexp
    return (4,) * a4 + (3,) * a3 + (2,) * a2 + (1,) * a1


def _e_letters(eexp):
    b1, b2, b3, b4 = eexp
    return (1,) * b1 + (2,) * b2 + (3,) * b3 + (4,) * b4


# --- crossing and multiplication -------------------------------------------

def _e_word(eexp):
    return {(_ZEXP, W_ZERO, eexp): ONE}


def _f_word(fexp):
    return {(fexp, W_ZERO, _ZEXP): ONE}


def _bump(exp, k, d):
    """exp with d added at position k."""
    return exp[:k] + (exp[k] + d,) + exp[k + 1:]


# cross products E^B . F^A used by multiplication
_CROSS_CACHE = {}


def _cross(eexp, fexp):
    """E^eexp . F^fexp as {word: Scalar}, memoised; treat results as read only.

    An empty side: the one word F^A E^B.  More than one E letter:
    E^B' . (E_last F^A).  One E letter and more than one F letter:
    (E_e F_first) . F^A'.  Two letters with a composite one: its
    simple-letter expansion, multiplied in so that every crossing meets a
    simple E letter.  Two simple letters: F_j E_i, plus the Cartan term
    when i = j.  Each recursive call has a smaller total height, and for a
    simple E letter the E part of every term is empty or that letter.
    """
    key = (eexp, fexp)
    got = _CROSS_CACHE.get(key)
    if got is not None:
        return got
    if eexp == _ZEXP or fexp == _ZEXP:
        got = _CROSS_CACHE[key] = {(fexp, W_ZERO, eexp): ONE}
        return got
    last = max(k for k in range(4) if eexp[k])
    first = min(k for k in range(4) if fexp[k])
    e_one, f_one = _bump(_ZEXP, last, 1), _bump(_ZEXP, first, 1)
    i, j = last + 1, 4 - first
    if sum(eexp) > 1:
        got = _mul_terms(_e_word(_bump(eexp, last, -1)), _cross(e_one, fexp))
    elif sum(fexp) > 1:
        got = _mul_terms(_cross(eexp, f_one), _f_word(_bump(fexp, first, -1)))
    elif i in _EXPAND_E:
        # E_i = sum c E_x E_y (E_z): cross F_j by E_z first, then E_y, E_x
        got = {}
        for c, letters in _EXPAND_E[i]:
            t = _f_word(fexp)
            for x in reversed(letters):
                t = _mul_terms(_e_word(_bump(_ZEXP, x - 1, 1)), t)
            _acc(got, t, c)
    elif j in _EXPAND_F:
        # F_j = sum c (F_x) F_y F_z: cross E_i by F_x first, then F_y, F_z
        got = {}
        for c, letters in _EXPAND_F[j]:
            t = _e_word(eexp)
            for x in letters:
                t = _mul_terms(t, _f_word(_bump(_ZEXP, 4 - x, 1)))
            _acc(got, t, c)
    else:
        got = {(fexp, W_ZERO, eexp): ONE}
        if i == j:
            alpha, c = _SIMPLE_CROSS[i]
            got[(_ZEXP, alpha, _ZEXP)] = c
            got[(_ZEXP, -alpha, _ZEXP)] = -c
    _CROSS_CACHE[key] = got
    return got


# _cross(B, A) as rows (A3, nu1, nu2, B3, c3, g1, g2, h1, h2), keyed by (B, A):
# (g1, g2) and (h1, h2) pair a weight with wt F^A3 and wt E^B3 under the Gram
# form [[1, 1], [1, 2]], so that (lam, wt F^A3) = lam1 g1 + lam2 g2
_CROSS_ROW_CACHE = {}


def _cross_rows(eexp, fexp):
    rows = []
    for (A3, nu, B3), c3 in _cross(eexp, fexp).items():
        (f1, f2), (e1, e2) = _wt_f(A3), _wt_e(B3)
        rows.append((A3, *nu, B3, c3, f1 + f2, f1 + 2 * f2, e1 + e2, e1 + 2 * e2))
    rows = _CROSS_ROW_CACHE[(eexp, fexp)] = tuple(rows)
    return rows


# straightened blocks F^A1 F^A3 and E^B3 E^B2 keyed by their exponent pairs
_F_PAIR_CACHE = {}
_E_PAIR_CACHE = {}


def _mul_terms(t1, t2):
    """Multiply two {word: Scalar} maps.

    For words F^A1 K_lam E^B1 and F^A2 K_mu E^B2 each term F^A3 K_nu E^B3
    of _cross(B1, A2) gives

        q^-k . F^A1 F^A3 K_(lam+nu+mu) E^B3 E^B2,  k = (lam, wt F^A3) + (mu, wt E^B3),

    whose F and E blocks are straightened through the pair tables.  The
    Cartan exponent k is an integer dot product of lam and mu with the
    covectors that _cross_rows stores beside each term, and q^-k = v^-2k is
    applied as a shift of the coefficient.  A coefficient product with a
    factor ONE is skipped.
    """
    out = {}
    get = out.get
    rows_of = _CROSS_ROW_CACHE.get
    new = tuple.__new__
    for (A1, (l1, l2), B1), c1 in t1.items():
        for (A2, (m1, m2), B2), c2 in t2.items():
            c12 = c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2
            w1, w2 = l1 + m1, l2 + m2
            for A3, n1, n2, B3, c3, g1, g2, h1, h2 in (
                    rows_of((B1, A2)) or _cross_rows(B1, A2)):
                c = c3 if c12 is ONE else c12 if c3 is ONE else c12 * c3
                # K_lam across F^A3 to the right, K_mu across E^B3 to the left
                k = l1 * g1 + l2 * g2 + m1 * h1 + m2 * h2
                if k:
                    c = c.shift(-2 * k)
                w = new(Weight, (w1 + n1, w2 + n2))
                ftab = _F_PAIR_CACHE.get((A1, A3))
                if ftab is None:
                    ftab = _F_PAIR_CACHE[(A1, A3)] = _straighten_f(
                        _f_letters(A1) + _f_letters(A3))
                etab = _E_PAIR_CACHE.get((B3, B2))
                if etab is None:
                    etab = _E_PAIR_CACHE[(B3, B2)] = _straighten_e(
                        _e_letters(B3) + _e_letters(B2))
                for fexp, cf in ftab.items():
                    cwf = c if cf is ONE else cf if c is ONE else c * cf
                    for eexp, ce in etab.items():
                        key = (fexp, w, eexp)
                        val = cwf if ce is ONE else ce if cwf is ONE else cwf * ce
                        cur = get(key)
                        if cur is not None:
                            val = cur + val
                            if val.is_zero:
                                del out[key]
                                continue
                        out[key] = val
    return out


# --- elements ---------------------------------------------------------------

class AlgebraElement(Combination):
    """Linear combination of PBW words; treat instances as immutable."""

    __slots__ = ()

    # construction helpers

    @staticmethod
    def from_word(word, coeff=ONE):
        if coeff.is_zero:
            return AE_ZERO
        return AlgebraElement({word: coeff})

    @staticmethod
    def _coerce(x):
        if isinstance(x, AlgebraElement):
            return x
        if isinstance(x, (int, Fraction, Scalar)):
            return AlgebraElement.from_word(
                _UNIT_WORD, x if isinstance(x, Scalar) else scalar(x))
        return None

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            s = other if isinstance(other, Scalar) else scalar(other)
            if s.is_zero:
                return AE_ZERO
            return AlgebraElement({w: c * s for w, c in self.terms.items()})
        if isinstance(other, AlgebraElement):
            if not self.terms or not other.terms:
                return AE_ZERO
            return AlgebraElement(_mul_terms(self.terms, other.terms))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self * other
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = AE_ONE
        for _ in range(k):
            out = out * self
        return out

    # structure

    def weight_components(self):
        """Split into weight-homogeneous parts: {Weight: AlgebraElement}."""
        comps = {}
        for w, c in self.terms.items():
            comps.setdefault(word_weight(w), {})[w] = c
        return {mu: AlgebraElement(t) for mu, t in comps.items()}

    def radical_bidegree(self):
        """Max counts of radical F letters and radical E letters."""
        rf = re = 0
        for (fexp, _lam, eexp) in self.terms:
            rf = max(rf, fexp[0] + fexp[1] + fexp[2])
            re = max(re, eexp[1] + eexp[2] + eexp[3])
        return rf, re

    def is_levi(self):
        """True when no word involves a radical root-vector letter."""
        return all(
            fexp[0] == fexp[1] == fexp[2] == 0 and eexp[1] == eexp[2] == eexp[3] == 0
            for (fexp, _lam, eexp) in self.terms)

    # involutions (computed through the letter images below)

    def _anti_image(self, lam_sign, img_e, img_f):
        """Image under the anti-automorphism given by the letter images
        img_e, img_f and K_lam -> K_{lam_sign lam}: F^A K E^B goes to
        img(E_b4)^b4 ... img(E_b1)^b1 . K . img(F_b1)^a1 ... img(F_b4)^a4."""
        out = {}
        for (fexp, lam, eexp), c in self.terms.items():
            elt = AlgebraElement({(_ZEXP, lam_sign * lam, _ZEXP): c})
            for j in (1, 2, 3, 4):
                for _ in range(eexp[j - 1]):
                    elt = img_e[j] * elt
            for j in (1, 2, 3, 4):
                for _ in range(fexp[4 - j]):
                    elt = elt * img_f[j]
            for w, cc in elt.terms.items():
                accumulate(out, w, cc)
        return AlgebraElement(out)

    def star(self):
        return self._anti_image(1, _STAR_E, _STAR_F)

    def antipode(self):
        return self._anti_image(-1, _S_E, _S_F)

    # formatting

    def canon_str(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            fexp, lam, eexp = w
            c = self.terms[w]
            letters = []
            for idx, j in ((0, 4), (1, 3), (2, 2), (3, 1)):
                if fexp[idx]:
                    letters.append(f"Fb{j}" + (f"^{fexp[idx]}" if fexp[idx] > 1 else ""))
            if lam != W_ZERO:
                letters.append(f"K{lam!r}")
            for idx, j in ((0, 1), (1, 2), (2, 3), (3, 4)):
                if eexp[idx]:
                    letters.append(f"Eb{j}" + (f"^{eexp[idx]}" if eexp[idx] > 1 else ""))
            mono = ".".join(letters) if letters else "1"
            bits.append(f"({c.canon_str()}) {mono}")
        return " + ".join(bits)

    def __repr__(self):
        return self.canon_str()


_UNIT_WORD = (_ZEXP, W_ZERO, _ZEXP)
AE_ZERO = AlgebraElement({})
AE_ONE = AlgebraElement({_UNIT_WORD: ONE})


# --- public constructors -----------------------------------------------------

def unit():
    return AE_ONE


def K(lam, n2=None):
    """Cartan element K_lam with lam in the weight lattice."""
    lam = Weight(lam, n2) if n2 is not None else Weight(*lam)
    return AlgebraElement({(_ZEXP, lam, _ZEXP): ONE})


def root_E(j):
    """Quantum root vector E_{beta_j} as a PBW letter, j in 1..4."""
    exp = [0, 0, 0, 0]
    exp[j - 1] = 1
    return AlgebraElement({(_ZEXP, W_ZERO, tuple(exp)): ONE})


def root_F(j):
    exp = [0, 0, 0, 0]
    exp[4 - j] = 1
    return AlgebraElement({(tuple(exp), W_ZERO, _ZEXP): ONE})


def E1():
    return root_E(1)


def E2():
    return root_E(4)


def F1():
    return root_F(1)


def F2():
    return root_F(4)


def xi_E(i):
    """Radical root vector E_{xi_i} = E_{beta_{i+1}}, i in 1..3."""
    return root_E(i + 1)


def xi_E_star(i):
    return _STAR_E[i + 1]


def token_weight(tok):
    """lam of a Cartan token ("K", n1, n2) or ("K", (n1, n2)) with int n1, n2;
    None for a generator name such as "E1"; ValueError for another "K" tuple."""
    if not (isinstance(tok, tuple) and tok and tok[0] == "K"):
        return None
    lam = tok[1] if len(tok) == 2 else tok[1:]
    if not (isinstance(lam, tuple) and len(lam) == 2
            and all(type(n) is int for n in lam)):
        raise ValueError(f"malformed Cartan token {tok!r}")
    return Weight(*lam)


def token_name(tok):
    """Report label of a token: "E1" stays, ("K", 2, -1) and ("K", (2, -1))
    become "K(2, -1)"."""
    return tok if isinstance(tok, str) else "K({}, {})".format(*token_weight(tok))


# shared one-word term maps of the generator names; read only
_GENERATORS = {"E1": E1().terms, "E2": E2().terms, "F1": F1().terms,
               "F2": F2().terms}


def _token_terms(tok):
    lam = token_weight(tok)
    if lam is not None:
        return {(_ZEXP, lam, _ZEXP): ONE}
    if not (isinstance(tok, str) and tok in _GENERATORS):
        raise ValueError(f"unknown generator token {tok!r}")
    return _GENERATORS[tok]


def _plain_token(tok):
    """True for a generator name or a Cartan token of exact ints: the tokens
    `normal_form` accepts without building their term maps."""
    if type(tok) is str:
        return tok in _GENERATORS
    if type(tok) is not tuple or not tok or tok[0] != "K":
        return False
    lam = tok[1] if len(tok) == 2 else tok[1:]
    return (type(lam) is tuple and len(lam) == 2
            and type(lam[0]) is int and type(lam[1]) is int)


# coefficient-one normal forms keyed by the token word; the term maps are
# shared by every result, so no caller may mutate them
_NF_CACHE = {}


def normal_form(word, coeff=ONE):
    """Normal form of a formal product of generator tokens.

    Tokens are "E1", "E2", "F1", "F2" or ("K", n1, n2); returns the reduced
    AlgebraElement, coeff times the left fold of the token products.  Any
    other token raises ValueError before any work, and before the word is
    looked up in _NF_CACHE: ("K", 1.0, 0) equals ("K", 1, 0) as a key but
    is no token.  The term maps of the tokens are built only on a miss.
    Idempotent on reduced data.
    """
    word = tuple(word)
    for t in word:
        if not _plain_token(t):
            _token_terms(t)  # raises ValueError unless `t` is a token
    out = _NF_CACHE.get(word)
    if out is None:
        out = AE_ONE.terms
        for t in word:
            out = _mul_terms(out, _token_terms(t))
        _NF_CACHE[word] = out
    x = AlgebraElement(out)
    return x if coeff is ONE else x * coeff


# --- letter images under * and S ---------------------------------------------

def _letter_images(img_e, img_f):
    """Anti-homomorphic images of the E and F root-vector letters from those
    of the simple letters 1 and 4: a word goes to the reversed product."""
    def image(expand, img, j):
        total = AE_ZERO
        for c, letters in expand.get(j, ((ONE, (j,)),)):
            piece = AlgebraElement({_UNIT_WORD: c})
            for x in reversed(letters):
                piece = piece * img[x]
            total = total + piece
        return total

    return ({j: image(_EXPAND_E, img_e, j) for j in (1, 2, 3, 4)},
            {j: image(_EXPAND_F, img_f, j) for j in (1, 2, 3, 4)})


_STAR_E, _STAR_F = _letter_images({1: F1() * K(ALPHA1), 4: F2() * K(ALPHA2)},
                                  {1: K(-ALPHA1) * E1(), 4: K(-ALPHA2) * E2()})
_S_E, _S_F = _letter_images({1: -(K(-ALPHA1) * E1()), 4: -(K(-ALPHA2) * E2())},
                            {1: -(F1() * K(ALPHA1)), 4: -(F2() * K(ALPHA2))})


def star(x):
    """The *-structure: K* = K, E_i* = F_i K_i, F_i* = K_i^-1 E_i."""
    return x.star()


def antipode(x):
    """The antipode: S(K) = K^-1, S(E_i) = -K_i^-1 E_i, S(F_i) = -F_i K_i."""
    return x.antipode()


# --- Hopf operations on generator words ---------------------------------------

def coproduct(tok):
    """Coproduct of a generator token as a list of (left, right) pairs:
    K_lam (x) K_lam, E_i (x) 1 + K_i (x) E_i, F_i (x) K_i^-1 + 1 (x) F_i."""
    g = AlgebraElement(_token_terms(tok))
    if not isinstance(tok, str):
        return [(g, g)]
    alpha = SIMPLE[int(tok[1])]
    if tok[0] == "E":
        return [(g, AE_ONE), (K(alpha), g)]
    return [(g, K(-alpha)), (AE_ONE, g)]


def coproduct_word(word):
    """Multiplicative extension of the coproduct to a generator word."""
    pairs = [(AE_ONE, AE_ONE)]
    for tok in word:
        pairs = [(a * c, b * d) for a, b in pairs for c, d in coproduct(tok)]
    return pairs


def counit(x):
    """Counit: coefficient of the Cartan part with every exponent zero."""
    out = ZERO
    for (fexp, _lam, eexp), c in x.terms.items():
        if fexp == _ZEXP and eexp == _ZEXP:
            out = out + c
    return out


def _ad_token(tok, y):
    """ad(X) y = sum X_(1) y S(X_(2)) over the coproduct of one token."""
    return sum((a * y * antipode(b) for a, b in coproduct(tok)), AE_ZERO)


def adjoint_action(word, y):
    """Left adjoint action ad(X) y = X_(1) y S(X_(2)) for X a generator word."""
    if isinstance(word, str) or token_weight(word) is not None:
        word = (word,)
    for tok in reversed(tuple(word)):
        y = _ad_token(tok, y)
    return y


def is_levi(x):
    return x.is_levi()


# --- decomposition into radical monomials times Levi factors ------------------

_U_CACHE = {}


def radical_monomial(s, t):
    """Ordered monomial E*_{xi}^s E_{xi}^t with s, t exponent triples."""
    key = (tuple(s), tuple(t))
    got = _U_CACHE.get(key)
    if got is None:
        got = AE_ONE
        for i in (1, 2, 3):
            for _ in range(s[i - 1]):
                got = got * _STAR_E[i + 1]
        for i in (1, 2, 3):
            for _ in range(t[i - 1]):
                got = got * root_E(i + 1)
        _U_CACHE[key] = got
    return got


def _peel_rank(word):
    """Peel order, smallest first: letter count, then (a2, a3, a4, b2, b3,
    b4, a1, b1), all negated."""
    (a4, a3, a2, a1), _lam, (b1, b2, b3, b4) = word
    return (-(a4 + a3 + a2 + a1 + b1 + b2 + b3 + b4),
            -a2, -a3, -a4, -b2, -b3, -b4, -a1, -b1)


# letter columns W(s, t) F_b1^a1 E_b1^b1 keyed by their leading exponents
_BASE_CACHE = {}


def _letter_column(fexp, eexp):
    """W(s, t) F_b1^a1 E_b1^b1 as {word: Scalar}, strictly led by (fexp, K_0, eexp)."""
    key = (fexp, eexp)
    got = _BASE_CACHE.get(key)
    if got is None:
        rad = ((fexp[0], fexp[1], fexp[2], 0), W_ZERO, (0, eexp[1], eexp[2], eexp[3]))
        levi = ((0, 0, 0, fexp[3]), W_ZERO, (eexp[0], 0, 0, 0))
        got = _mul_terms({rad: ONE}, {levi: ONE})
        lead = (fexp, W_ZERO, eexp)
        top = _peel_rank(lead)
        if lead not in got or any(_peel_rank(w) <= top for w in got if w != lead):
            raise EngineError(f"letter column {lead!r} is not led by its own word")
        _BASE_CACHE[key] = got
    return got


def _peel(terms):
    """Stage 1 of the split: {word: Scalar} -> {u: {Levi word: Scalar}} with
    terms = sum_u W(u) Levi_u, u = (a2, a3, a4, b2, b3, b4)."""
    rem = dict(terms)
    heap = [(_peel_rank(w), w) for w in rem]
    heapq.heapify(heap)
    out = {}
    while heap:
        w = heapq.heappop(heap)[1]
        c = rem.pop(w, None)
        if c is None:
            continue
        fexp, lam, eexp = w
        col = _letter_column(fexp, eexp)
        # W F_b1^a1 K_lam E_b1^b1 = q^(b1 (lam, alpha1)) (W F_b1^a1 E_b1^b1) K_lam
        shift = eexp[0] * lam.pair(ALPHA1)
        f = c / (col[(fexp, W_ZERO, eexp)] * _qp(shift - lam.pair(_wt_e(eexp))))
        for (A, nu, B), cb in col.items():
            w2 = (A, nu + lam, B)
            if w2 == w:
                continue
            s = rem.get(w2, ZERO) - f * cb * _qp(shift - lam.pair(_wt_e(B)))
            if s.is_zero:
                rem.pop(w2, None)
                continue
            if w2 not in rem:
                heapq.heappush(heap, (_peel_rank(w2), w2))
            rem[w2] = s
        u = (fexp[2], fexp[1], fexp[0], eexp[1], eexp[2], eexp[3])
        out.setdefault(u, {})[((0, 0, 0, fexp[3]), lam, (eexp[0], 0, 0, 0))] = f
    return out


# starred monomials radical_monomial(u) in the letter basis
_STAR_LETTER_CACHE = {}


def _starred_letters(u):
    got = _STAR_LETTER_CACHE.get(u)
    if got is None:
        got = _peel(radical_monomial(u[:3], u[3:]).terms)
        _STAR_LETTER_CACHE[u] = got
    return got


def _split_class(u):
    """Block of the starred-to-letter transition: minus the total
    alpha_1-content (solving order), radical degrees, alpha_1-contents."""
    s1, s2, s3, t1, t2, t3 = u
    cs, ct = 2 * s1 + s2, 2 * t1 + t2
    return (-cs - ct, s1 + s2 + s3, t1 + t2 + t3, cs, ct)


def _class_members(kappa):
    _rank, ds, dt, cs, ct = kappa

    def parts(d, c):
        return [(a, c - 2 * a, d - c + a) for a in range(c // 2 + 1) if d - c + a >= 0]

    return [s + t for s in parts(ds, cs) for t in parts(dt, ct)]


def levi_right_split(x, degree_cap=3):
    """Write x as a sum of ordered radical monomials times Levi factors.

    Returns the sorted list of pairs ((s1, s2, s3, t1, t2, t3), levi_element)
    with the radical monomial E*_{xi1}^s1 E*_{xi2}^s2 E*_{xi3}^s3 E_{xi1}^t1
    E_{xi2}^t2 E_{xi3}^t3 on the left and the Levi cofactor on the right,
    such that the products recompose x exactly; the decomposition is unique.

    Stage 1 peels x by leading words into letter columns W(s, t) F_b1^a1
    K_lam E_b1^b1 (see _peel_rank), giving x = sum W(s, t) A_{s,t}.  Stage 2
    expands the starred monomials into letters by the same peel; the
    transition is block triangular over the classes of _split_class (inside
    a class: a scalar times one K_mu per monomial), so the classes are solved
    from the top by small exact scalar systems.  A column not led by its
    word raises EngineError, a singular block NotInSpanError, and a radical
    bidegree above degree_cap ValueError.
    """
    if x.is_zero:
        return []
    max_a, max_b = x.radical_bidegree()
    if max_a > degree_cap or max_b > degree_cap:
        raise ValueError(
            f"radical bidegree ({max_a},{max_b}) exceeds degree cap {degree_cap}")
    rhs = _peel(x.terms)
    pending = {_split_class(w) for w in rhs}
    pieces = {}
    while pending:
        kappa = min(pending)
        pending.remove(kappa)
        members = _class_members(kappa)
        b = [rhs.pop(w, None) for w in members]
        if not any(b):
            continue
        rows = [_starred_letters(u) for u in members]
        # in-class entries: row u, column w holds c_{u,w} K_{mu_u}
        mat = [[ZERO] * len(members) for _ in members]
        mus = []
        for j, row in enumerate(rows):
            mu = None
            for i, w in enumerate(members):
                entry = row.get(w)
                if entry is None:
                    continue
                word, c = next(iter(entry.items()))
                if len(entry) != 1 or word[0] != _ZEXP or word[2] != _ZEXP \
                        or mu not in (None, word[1]):
                    raise EngineError(
                        f"starred monomial {members[j]} is not a scalar times one K_mu "
                        f"in its class")
                mu = word[1]
                mat[i][j] = c
            mus.append(mu)
        inv = minv(mat, ONE)
        if inv is None:
            raise NotInSpanError(f"singular split block at class {kappa}")
        for j, u in enumerate(members):
            y = {}
            for i, bi in enumerate(b):
                if bi and inv[j][i]:
                    _acc(y, bi, inv[j][i])
            if not y:
                continue
            # L_u = K_{-mu_u} y_u
            lam = -mus[j]
            levi = {(A, nu + lam, B): c * _qp(-lam.pair(_wt_f(A)))
                    for (A, nu, B), c in y.items()}
            pieces[u] = levi
            for w, entry in rows[j].items():
                low = _split_class(w)
                if low == kappa:
                    continue
                if low < kappa:
                    raise EngineError(
                        f"starred monomial {u} reaches class {low} above {kappa}")
                cur = rhs.setdefault(w, {})
                _acc(cur, _mul_terms(entry, levi), -ONE)
                if cur:
                    pending.add(low)
                else:
                    del rhs[w]
    return [(u, AlgebraElement(l)) for u, l in sorted(pieces.items())]


# --- defining relators (used by probes and tests) ------------------------------

def serre_relator_words():
    """The four quantum Serre relators as (coefficient, word) listings."""
    rels = []
    # (1 - a_12) = 3 with base q, (1 - a_21) = 2 with base q^2
    for (x, y, m, base) in (("E1", "E2", 3, 1), ("E2", "E1", 2, 2),
                            ("F1", "F2", 3, 1), ("F2", "F1", 2, 2)):
        terms = []
        for s in range(m + 1):
            coeff = q_binomial(m, s, base) * scalar((-1) ** s)
            terms.append((coeff, (x,) * (m - s) + (y,) + (x,) * s))
        rels.append(tuple(terms))
    return rels


def serre_relators():
    """The four quantum Serre relators reduced in the engine; all zero."""
    rels = []
    for terms in serre_relator_words():
        total = AE_ZERO
        for coeff, word in terms:
            total = total + normal_form(word, coeff)
        rels.append(total)
    return rels


def defining_relator_words():
    """Generator-word relators (word, coefficient pairs summing to zero)."""
    rels = []
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
        ai, aj = SIMPLE[i], SIMPLE[j]
        ki = ("K", *ai)
        rels.append(((ONE, (ki, f"E{j}")), (-_qp(ai.pair(aj)), (f"E{j}", ki))))
        rels.append(((ONE, (ki, f"F{j}")), (-_qp(-ai.pair(aj)), (f"F{j}", ki))))
    qi = {1: Q_SC, 2: _QBR2}
    for i in (1, 2):
        for j in (1, 2):
            terms = [(ONE, (f"E{i}", f"F{j}")), (-ONE, (f"F{j}", f"E{i}"))]
            if i == j:
                ai = SIMPLE[i]
                terms.append((-(ONE / qi[i]), (("K", *ai),)))
                terms.append((ONE / qi[i], (("K", -ai[0], -ai[1]),)))
            rels.append(tuple(terms))
    return rels
