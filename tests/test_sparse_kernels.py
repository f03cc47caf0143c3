"""The zero-skipping matrix kernels and the weight-path `rep` against the
dense code they replaced, kept here as the oracle: entrywise sums, scaling
and products that touch every entry, and `rep` as the product of each word's
F letters, K matrix and E letters multiplied out."""

import itertools
import random
from fractions import Fraction

import pytest

from qlg2 import pbw
from qlg2.linalg import madd, meq, meye, miszero, mmul, mscale, msub, mzeros
from qlg2.modules import EXT, FUND
from qlg2.pbw import AlgebraElement, normal_form
from qlg2.scalar import KZERO, ONE, ZERO, KScalar, laurent_q
from qlg2.weights import Weight


# --- the dense oracles --------------------------------------------------------

def _madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _msub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mscale(c, a):
    return [[c * x for x in row] for row in a]


def _mmul(a, b, zero):
    n, k, m = len(a), len(b), len(b[0])
    out = mzeros(n, m, zero)
    for i in range(n):
        for t in range(k):
            c = a[i][t]
            if not c:
                continue
            for j in range(m):
                if b[t][j]:
                    out[i][j] = out[i][j] + c * b[t][j]
    return out


def _dense_chain(ms):
    out = ms[0]
    for m in ms[1:]:
        out = _mmul(out, m, ZERO)
    return out


def _rep(mod, x):
    """Matrix of a PBW element: each word is its F letters, K and its E
    letters multiplied out."""
    out = mzeros(mod.dim, mod.dim, ZERO)
    for (fexp, lam, eexp), c in x.terms.items():
        ms = [mod._root_f[4 - k] for k in range(4) for _ in range(fexp[k])]
        ms.append(mod.K(lam))
        ms += [mod._root_e[k + 1] for k in range(4) for _ in range(eexp[k])]
        out = _madd(out, _mscale(c, _dense_chain(ms)))
    return out


def _same(got, want):
    """Equal shapes, and equal values and types entry by entry."""
    assert len(got) == len(want)
    for rg, rw in zip(got, want):
        assert len(rg) == len(rw)
        for x, y in zip(rg, rw):
            assert x == y
            assert type(x) is type(y)


# --- random sparse matrices ---------------------------------------------------

def _scalar(rng):
    return laurent_q({e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
                      for e in rng.sample(range(-3, 4), rng.randint(1, 2))})


def _kscalar(rng):
    # kappa degree <= 1, so that a product stays within the cap of 2
    monos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return KScalar({m: _scalar(rng) for m in rng.sample(monos, rng.randint(1, 2))})


def _entry(rng, kind, density):
    """A random entry: zero with probability 1 - density.  kind "S" gives
    Scalars, "K" KScalars and "mix" either, zeros included (ZERO, KZERO and a
    fresh empty KScalar)."""
    if kind == "mix":
        kind = rng.choice("SK")
    if rng.random() >= density:
        return ZERO if kind == "S" else rng.choice((KZERO, KScalar({})))
    return _scalar(rng) if kind == "S" else _kscalar(rng)


def _matrix(rng, n, m, kind):
    density = rng.choice((0.15, 0.3, 0.6))
    return [[_entry(rng, kind, density) for _ in range(m)] for _ in range(n)]


SHAPES = [(4, 4, 4), (8, 8, 8), (16, 16, 16), (3, 5, 2), (2, 7, 6), (6, 1, 4)]
KINDS = [("S", "S"), ("K", "K"), ("S", "K"), ("K", "S"), ("mix", "mix")]


@pytest.mark.parametrize("n,k,m", SHAPES)
@pytest.mark.parametrize("kinds", KINDS, ids="-".join)
def test_kernels_match_the_dense_oracle(n, k, m, kinds):
    rng = random.Random(f"{n}x{k}x{m}-{kinds}")
    ka, kb = kinds
    for _ in range(2):
        a, b = _matrix(rng, n, k, ka), _matrix(rng, n, k, kb)
        if ka == kb != "mix":
            # madd/msub take entries of one type
            _same(madd(a, b), _madd(a, b))
            _same(msub(a, b), _msub(a, b))
        c = _scalar(rng)
        _same(mscale(c, a), _mscale(c, a))
        if ka == "K":
            c = _kscalar(rng)
            _same(mscale(c, a), _mscale(c, a))
        b = _matrix(rng, k, m, kb)
        for zero in (ZERO, KZERO):
            _same(mmul(a, b, zero), _mmul(a, b, zero))


def test_mmul_reads_the_rows_of_b_on_every_call():
    # a row table kept from an earlier call would miss the changed entry
    rng = random.Random(5)
    a, b = _matrix(rng, 4, 4, "S"), _matrix(rng, 4, 4, "S")
    for i, j in itertools.product(range(4), repeat=2):
        a[i][j] = ONE
        before = mmul(a, b, ZERO)
        _same(before, _mmul(a, b, ZERO))
        b[j][i] = b[j][i] + ONE
        _same(mmul(a, b, ZERO), _mmul(a, b, ZERO))


def test_matrices_of_different_shapes():
    assert not meq(meye(2, ONE, ZERO), meye(3, ONE, ZERO))
    assert not meq(meye(3, ONE, ZERO), meye(2, ONE, ZERO))
    assert not meq(mzeros(2, 3, ZERO), mzeros(2, 2, ZERO))
    assert not meq([[ONE, ZERO], [ZERO]], [[ONE, ZERO], [ZERO, ZERO]])
    assert meq(mzeros(2, 3, ZERO), mzeros(2, 3, ZERO))
    for op in (madd, msub):
        with pytest.raises(ValueError):
            op(meye(2, ONE, ZERO), meye(3, ONE, ZERO))
        with pytest.raises(ValueError):
            op(mzeros(2, 3, KZERO), mzeros(2, 2, KZERO))
    with pytest.raises(ValueError):
        mmul(mzeros(2, 3, ZERO), mzeros(2, 2, ZERO), ZERO)


# --- rep ----------------------------------------------------------------------

# the K parts of the associativity probe of eq-comm-rel-uqg and their inverses
K_TOKENS = ((1, 0), (-1, 1), (0, -1), (-1, 0), (1, -1), (0, 1))


def _word(fexp, lam, eexp, c=ONE):
    return AlgebraElement({(tuple(fexp), Weight(*lam), tuple(eexp)): c})


def test_rep_of_every_small_fundamental_word():
    """Every word with exponents <= 2 and a K part from K_TOKENS.  The
    oracle's product of a word is its F block, K and E block multiplied
    out, with the 81 blocks of each side formed once."""
    exps = list(itertools.product(range(3), repeat=4))
    f_block = {f: _dense_chain([meye(4, ONE, ZERO)] + [
        FUND._root_f[4 - k] for k in range(4) for _ in range(f[k])]) for f in exps}
    e_block = {e: _dense_chain([meye(4, ONE, ZERO)] + [
        FUND._root_e[k + 1] for k in range(4) for _ in range(e[k])]) for e in exps}
    f_zero = {f for f, m in f_block.items() if miszero(m)}
    e_zero = {e for e, m in e_block.items() if miszero(m)}
    zero = mzeros(4, 4, ZERO)
    nonzero = 0
    for lam in K_TOKENS:
        k = FUND.K(lam)
        for f, e in itertools.product(exps, repeat=2):
            got = FUND.rep(_word(f, lam, e))
            if f in f_zero or e in e_zero:
                _same(got, zero)
            else:
                nonzero += 1
                _same(got, _dense_chain([f_block[f], k, e_block[e]]))
                _same(got, _rep(FUND, _word(f, lam, e)))
    assert nonzero > 100


def test_rep_of_every_levi_word_on_the_exterior_module():
    c = laurent_q({-1: Fraction(2, 3), 2: Fraction(-1)})
    for lam in K_TOKENS:
        for nf, ne in itertools.product(range(4), repeat=2):
            x = _word((0, 0, 0, nf), lam, (ne, 0, 0, 0), c)
            _same(EXT.rep(x), _rep(EXT, x))


TOKENS = ("E1", "E2", "F1", "F2", ("K", 1, 0), ("K", -1, 1), ("K", 0, -1))


def _element(rng):
    """A sum of one to three token words of length <= 3 with random
    coefficients."""
    out = pbw.AE_ZERO
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.choice(TOKENS) for _ in range(rng.randint(0, 3)))
        out = out + normal_form(word, _scalar(rng))
    return out


def test_rep_is_a_homomorphism():
    rng = random.Random(20240801)
    for _ in range(200):
        x, y = _element(rng), _element(rng)
        rx, ry = FUND.rep(x), FUND.rep(y)
        _same(rx, _rep(FUND, x))
        _same(FUND.rep(x * y), mmul(rx, ry, ZERO))


def test_rep_word_is_the_plain_generator_product():
    # the independent side of the representation probe of eq-comm-rel-uqg
    rng = random.Random(7)
    for _ in range(50):
        word = tuple(rng.choice(TOKENS) for _ in range(rng.randint(0, 4)))
        want = _dense_chain([meye(4, ONE, ZERO)] + [FUND.rep_token(t) for t in word])
        _same(FUND.rep_word(word), want)
        _same(FUND.rep(normal_form(word)), want)
