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

and the F side obtained by the q -> q^-1 anti-automorphism exchanging E and
F.  The rewriting system consists of

  * the Cartan moves     K_lam X_b = q^(+-(lam, b)) X_b K_lam,
  * the simple crossings E_i F_j = F_j E_i + delta_ij (K_i - K_i^-1)/(q_i - q_i^-1),
  * six straightening rules inside the E block and six inside the F block,
    instances of the general root-vector commutation relation whose middle
    terms are the closed forms above.

Serre relations are not separate rules: they are consequences of the
straightening rules (the randomized probes and the relation tests check
this).  Words mixing composite letters across an E/F boundary are first
expanded into simple generators, so crossings only ever happen at the
generator level.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .scalar import ZERO, ONE, BR2, Q_SC, Scalar, scalar, q_power, q_binomial
from .linalg import minv
from .weights import ALPHA1, ALPHA2, BETA, SIMPLE, W_ZERO, Weight


class EngineError(RuntimeError):
    """Internal rewriting failure (step budget exhausted or malformed word)."""


class NotInSpanError(ValueError):
    """levi_right_split: a class block of the starred-to-letter transition is singular."""


_STEP_BUDGET = 500_000

_ZEXP = (0, 0, 0, 0)

# atoms: ("E", j), ("F", j), ("K", Weight)
_A_E1 = ("E", 1)
_A_E4 = ("E", 4)
_A_F1 = ("F", 1)
_A_F4 = ("F", 4)

_GEN_ATOMS = {
    "E1": _A_E1, "E2": _A_E4,
    "F1": _A_F1, "F2": _A_F4,
}

_QBR2 = Q_SC * BR2      # q^2 - q^-2
_QOV2 = Q_SC * q_power(1) / BR2   # Q q/[2]


def _qp(n):
    return q_power(n)


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

# F block target order: indices descending left to right; rules for (lo, hi).
_F_RULES = {
    (1, 2): ((_qp(2), (2, 1)),),
    (1, 3): ((ONE, (3, 1)), (-BR2, (2,))),
    (1, 4): ((_qp(-2), (4, 1)), (-_qp(-2), (3,))),
    (2, 3): ((_qp(2), (3, 2)),),
    (2, 4): ((ONE, (4, 2)), (Q_SC * _qp(-1) / BR2, (3, 3))),
    (3, 4): ((_qp(2), (4, 3)),),
}

# generator expressions of the composite root-vector letters
_EXPAND_E = {
    2: ((ONE / BR2, (_A_E1, _A_E1, _A_E4)),
        (-_qp(-1), (_A_E1, _A_E4, _A_E1)),
        (_qp(-2) / BR2, (_A_E4, _A_E1, _A_E1))),
    3: ((ONE, (_A_E1, _A_E4)),
        (-_qp(-2), (_A_E4, _A_E1))),
}
_EXPAND_F = {
    2: ((ONE / BR2, (_A_F4, _A_F1, _A_F1)),
        (-_qp(1), (_A_F1, _A_F4, _A_F1)),
        (_qp(2) / BR2, (_A_F1, _A_F1, _A_F4))),
    3: ((ONE, (_A_F4, _A_F1)),
        (-_qp(2), (_A_F1, _A_F4))),
}

# simple crossings E_a F_b with a, b in {1, 4}
_CROSS_RULES = {
    (1, 1): ((ONE, (_A_F1, _A_E1)),
             (ONE / Q_SC, (("K", ALPHA1),)),
             (-(ONE / Q_SC), (("K", -ALPHA1),))),
    (4, 4): ((ONE, (_A_F4, _A_E4)),
             (ONE / _QBR2, (("K", ALPHA2),)),
             (-(ONE / _QBR2), (("K", -ALPHA2),))),
    (1, 4): ((ONE, (_A_F4, _A_E1)),),
    (4, 1): ((ONE, (_A_F1, _A_E4)),),
}


def _wt_f(fexp):
    """Sum of beta weights carried by an F-exponent vector (positive sum)."""
    a4, a3, a2, a1 = fexp
    return a4 * BETA[4] + a3 * BETA[3] + a2 * BETA[2] + a1 * BETA[1]


def _wt_e(eexp):
    b1, b2, b3, b4 = eexp
    return b1 * BETA[1] + b2 * BETA[2] + b3 * BETA[3] + b4 * BETA[4]


def word_weight(word):
    """Weight of a PBW word: sum of E betas minus sum of F betas."""
    fexp, _lam, eexp = word
    return _wt_e(eexp) - _wt_f(fexp)


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
        sub = _straighten(seq[:pos] + repl + seq[pos + 2:], rules, ascending, cache)
        for k, v in sub.items():
            s = out.get(k, ZERO) + c * v
            if s.is_zero:
                out.pop(k, None)
            else:
                out[k] = s
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


# --- the word reducer -------------------------------------------------------

def _has_ef_inversion(atoms):
    seen_e = False
    for a in atoms:
        if a[0] == "E":
            seen_e = True
        elif a[0] == "F" and seen_e:
            return True
    return False


def _expand_composites(coeff, atoms):
    """Distribute generator expansions of every composite E/F letter."""
    out = [(coeff, ())]
    for a in atoms:
        kind = a[0]
        if kind == "E" and a[1] in (2, 3):
            exp = _EXPAND_E[a[1]]
        elif kind == "F" and a[1] in (2, 3):
            exp = _EXPAND_F[a[1]]
        else:
            out = [(c, w + (a,)) for c, w in out]
            continue
        out = [(c * ce, w + we) for c, w in out for ce, we in exp]
    return out


def _assemble(coeff, atoms, out):
    """Phase 2: no E..F inversions remain; sort into F | K | E and straighten."""
    fseq = []
    eseq = []
    lam = W_ZERO
    factor = ONE
    # beta-weight of E letters seen so far, and of F letters yet to come
    f_suffix = [W_ZERO] * (len(atoms) + 1)
    for i in range(len(atoms) - 1, -1, -1):
        a = atoms[i]
        f_suffix[i] = f_suffix[i + 1] + BETA[a[1]] if a[0] == "F" else f_suffix[i + 1]
    e_prefix = W_ZERO
    for i, a in enumerate(atoms):
        kind = a[0]
        if kind == "F":
            fseq.append(a[1])
        elif kind == "E":
            eseq.append(a[1])
            e_prefix = e_prefix + BETA[a[1]]
        else:
            mu = a[1]
            if mu.is_zero:
                continue
            lam = lam + mu
            factor = factor * _qp(-(mu.pair(f_suffix[i + 1]) + mu.pair(e_prefix)))
    if factor.is_zero:
        return
    ftab = _straighten_f(tuple(fseq))
    etab = _straighten_e(tuple(eseq))
    base = coeff * factor
    for fexp, cf in ftab.items():
        cf2 = base * cf
        for eexp, ce in etab.items():
            w = (fexp, lam, eexp)
            s = out.get(w, ZERO) + cf2 * ce
            if s.is_zero:
                out.pop(w, None)
            else:
                out[w] = s


def _reduce_atoms(atoms, coeff=ONE):
    """Normal form of a product of atoms; returns {word: Scalar}."""
    out = {}
    stack = [(coeff, tuple(atoms))]
    steps = 0
    while stack:
        c, w = stack.pop()
        steps += 1
        if steps > _STEP_BUDGET:
            raise EngineError("rewriting step budget exhausted")
        if not _has_ef_inversion(w):
            _assemble(c, w, out)
            continue
        if any(a[0] in "EF" and a[1] in (2, 3) for a in w):
            stack.extend(_expand_composites(c, w))
            continue
        # find the first F preceded by an E, then the nearest E to its left
        seen_e = False
        bad = -1
        for i, a in enumerate(w):
            if a[0] == "E":
                seen_e = True
            elif a[0] == "F" and seen_e:
                bad = i
                break
        j = bad - 1
        while w[j][0] == "K":
            j -= 1
        if j + 1 < bad:
            # slide the E one step right across the Cartan letter
            mu = w[j + 1][1]
            f = _qp(-mu.pair(BETA[w[j][1]]))
            stack.append((c * f, w[:j] + (w[j + 1], w[j]) + w[j + 2:]))
            continue
        for cc, repl in _CROSS_RULES[(w[j][1], w[bad][1])]:
            stack.append((c * cc, w[:j] + repl + w[bad + 1:]))
    return out


# cross products E^B . F^A used by multiplication
_CROSS_CACHE = {}


def _cross(eexp, fexp):
    if eexp == _ZEXP:
        return {(fexp, W_ZERO, _ZEXP): ONE}
    if fexp == _ZEXP:
        return {(_ZEXP, W_ZERO, eexp): ONE}
    key = (eexp, fexp)
    got = _CROSS_CACHE.get(key)
    if got is None:
        atoms = tuple(("E", j) for j in _e_letters(eexp)) + \
            tuple(("F", j) for j in _f_letters(fexp))
        got = _reduce_atoms(atoms)
        _CROSS_CACHE[key] = got
    return got


def _mul_terms(t1, t2):
    """Multiply two {word: Scalar} maps."""
    out = {}
    for (A1, lam, B1), c1 in t1.items():
        for (A2, mu, B2), c2 in t2.items():
            c12 = c1 * c2
            for (A3, nu, B3), c3 in _cross(B1, A2).items():
                # K_lam across F^A3 to the right, K_mu across E^B3 to the left
                f = _qp(-(lam.pair(_wt_f(A3)) + mu.pair(_wt_e(B3))))
                cw = c12 * c3 * f
                lam_tot = lam + nu + mu
                ftab = _straighten_f(_f_letters(A1) + _f_letters(A3))
                etab = _straighten_e(_e_letters(B3) + _e_letters(B2))
                for fexp, cf in ftab.items():
                    cwf = cw * cf
                    for eexp, ce in etab.items():
                        w = (fexp, lam_tot, eexp)
                        s = out.get(w, ZERO) + cwf * ce
                        if s.is_zero:
                            out.pop(w, None)
                        else:
                            out[w] = s
    return out


# --- elements ---------------------------------------------------------------

class AlgebraElement:
    """Linear combination of PBW words; treat instances as immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    # construction helpers

    @staticmethod
    def from_word(word, coeff=ONE):
        if coeff.is_zero:
            return AE_ZERO
        return AlgebraElement({word: coeff})

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @staticmethod
    def _coerce(x):
        if isinstance(x, AlgebraElement):
            return x
        if isinstance(x, (int, Fraction, Scalar)):
            s = x if isinstance(x, Scalar) else scalar(x)
            return AlgebraElement({_UNIT_WORD: s}) if not s.is_zero else AE_ZERO
        return None

    def __add__(self, other):
        o = AlgebraElement._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for w, c in o.terms.items():
            s = out.get(w, ZERO) + c
            if s.is_zero:
                out.pop(w, None)
            else:
                out[w] = s
        return AlgebraElement(out)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        o = AlgebraElement._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = AlgebraElement._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

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

    def __eq__(self, other):
        o = AlgebraElement._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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

    def star(self):
        out = {}
        for (fexp, lam, eexp), c in self.terms.items():
            # (F^A K E^B)* = (E_4*)^b4 ... (E_1*)^b1 . K . (F_1*)^a1 ... (F_4*)^a4
            elt = AlgebraElement({(_ZEXP, lam, _ZEXP): c})
            for j in (1, 2, 3, 4):
                for _ in range(eexp[j - 1]):
                    elt = _STAR_E[j] * elt
            for j in (1, 2, 3, 4):
                for _ in range(fexp[4 - j]):
                    elt = elt * _STAR_F[j]
            for w, cc in elt.terms.items():
                s = out.get(w, ZERO) + cc
                if s.is_zero:
                    out.pop(w, None)
                else:
                    out[w] = s
        return AlgebraElement(out)

    def antipode(self):
        out = {}
        for (fexp, lam, eexp), c in self.terms.items():
            elt = AlgebraElement({(_ZEXP, -lam, _ZEXP): c})
            for j in (1, 2, 3, 4):
                for _ in range(eexp[j - 1]):
                    elt = _S_E[j] * elt
            for j in (1, 2, 3, 4):
                for _ in range(fexp[4 - j]):
                    elt = elt * _S_F[j]
            for w, cc in elt.terms.items():
                s = out.get(w, ZERO) + cc
                if s.is_zero:
                    out.pop(w, None)
                else:
                    out[w] = s
        return AlgebraElement(out)

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


def root_vectors():
    """All eight quantum root vectors keyed by ("E"|"F", j)."""
    out = {}
    for j in (1, 2, 3, 4):
        out[("E", j)] = root_E(j)
        out[("F", j)] = root_F(j)
    return out


def xi_E(i):
    """Radical root vector E_{xi_i} = E_{beta_{i+1}}, i in 1..3."""
    return root_E(i + 1)


def xi_E_star(i):
    return _STAR_E[i + 1]


def _token_atom(tok):
    if isinstance(tok, tuple) and tok and tok[0] == "K":
        return ("K", Weight(tok[1], tok[2]) if len(tok) == 3 else Weight(*tok[1]))
    try:
        return _GEN_ATOMS[tok]
    except KeyError:
        raise ValueError(f"unknown generator token {tok!r}") from None


def normal_form(word, coeff=ONE):
    """Normal form of a formal product of generator tokens.

    Tokens are "E1", "E2", "F1", "F2" or ("K", n1, n2); returns the reduced
    AlgebraElement.  Idempotent on already-reduced data by construction.
    """
    atoms = tuple(_token_atom(t) for t in word)
    return AlgebraElement(_reduce_atoms(atoms, coeff))


def gen(tok):
    """Single generator as an element."""
    return normal_form((tok,))


# --- letter images under * and S ---------------------------------------------

def _image_of_letter(kind, j, gen_images):
    """Anti-homomorphic image of the root-vector letter from its expansion."""
    if kind == "E":
        expansion = _EXPAND_E.get(j, ((ONE, (("E", j),)),))
    else:
        expansion = _EXPAND_F.get(j, ((ONE, (("F", j),)),))
    # anti-homomorphism: the image of a word is the reversed product of images
    total = AE_ZERO
    for c, atoms in expansion:
        piece = AlgebraElement({_UNIT_WORD: c})
        for a in reversed(atoms):
            piece = piece * gen_images[a]
        total = total + piece
    return total


def _gen_images_star():
    return {
        _A_E1: AlgebraElement(_reduce_atoms((_A_F1, ("K", ALPHA1)))),
        _A_E4: AlgebraElement(_reduce_atoms((_A_F4, ("K", ALPHA2)))),
        _A_F1: AlgebraElement(_reduce_atoms((("K", -ALPHA1), _A_E1))),
        _A_F4: AlgebraElement(_reduce_atoms((("K", -ALPHA2), _A_E4))),
    }


def _gen_images_antipode():
    return {
        _A_E1: AlgebraElement(_reduce_atoms((("K", -ALPHA1), _A_E1), -ONE)),
        _A_E4: AlgebraElement(_reduce_atoms((("K", -ALPHA2), _A_E4), -ONE)),
        _A_F1: AlgebraElement(_reduce_atoms((_A_F1, ("K", ALPHA1)), -ONE)),
        _A_F4: AlgebraElement(_reduce_atoms((_A_F4, ("K", ALPHA2)), -ONE)),
    }


_IM_STAR = _gen_images_star()
_IM_S = _gen_images_antipode()
_STAR_E = {j: _image_of_letter("E", j, _IM_STAR) for j in (1, 2, 3, 4)}
_STAR_F = {j: _image_of_letter("F", j, _IM_STAR) for j in (1, 2, 3, 4)}
_S_E = {j: _image_of_letter("E", j, _IM_S) for j in (1, 2, 3, 4)}
_S_F = {j: _image_of_letter("F", j, _IM_S) for j in (1, 2, 3, 4)}


def star(x):
    """The *-structure: K* = K, E_i* = F_i K_i, F_i* = K_i^-1 E_i."""
    return x.star()


def antipode(x):
    """The antipode: S(K) = K^-1, S(E_i) = -K_i^-1 E_i, S(F_i) = -F_i K_i."""
    return x.antipode()


# --- Hopf operations on generator words ---------------------------------------

def coproduct(tok):
    """Coproduct of a generator token as a list of (left, right) pairs."""
    if isinstance(tok, tuple) and tok[0] == "K":
        k = K(tok[1], tok[2]) if len(tok) == 3 else K(*tok[1:])
        return [(k, k)]
    if tok == "E1":
        return [(E1(), AE_ONE), (K(ALPHA1), E1())]
    if tok == "E2":
        return [(E2(), AE_ONE), (K(ALPHA2), E2())]
    if tok == "F1":
        return [(F1(), K(-ALPHA1)), (AE_ONE, F1())]
    if tok == "F2":
        return [(F2(), K(-ALPHA2)), (AE_ONE, F2())]
    raise ValueError(f"unknown generator token {tok!r}")


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


_K1 = K(ALPHA1)
_K1I = K(-ALPHA1)
_K2 = K(ALPHA2)
_K2I = K(-ALPHA2)


def _ad_token(tok, y):
    if isinstance(tok, tuple) and tok[0] == "K":
        lam = Weight(tok[1], tok[2]) if len(tok) == 3 else Weight(*tok[1])
        return K(lam) * y * K(-lam)
    if tok == "E1":
        return E1() * y - _K1 * y * _K1I * E1()
    if tok == "E2":
        return E2() * y - _K2 * y * _K2I * E2()
    if tok == "F1":
        return F1() * y * _K1 - y * F1() * _K1
    if tok == "F2":
        return F2() * y * _K2 - y * F2() * _K2
    raise ValueError(f"unknown generator token {tok!r}")


def adjoint_action(word, y):
    """Left adjoint action ad(X) y = X_(1) y S(X_(2)) for X a generator word."""
    if isinstance(word, str) or (isinstance(word, tuple) and word and word[0] == "K"):
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


def _acc(out, terms, f):
    """out += f * terms on {word: Scalar} maps, dropping zeros."""
    for w, c in terms.items():
        s = out.get(w, ZERO) + f * c
        if s.is_zero:
            out.pop(w, None)
        else:
            out[w] = s


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
