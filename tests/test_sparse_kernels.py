"""The sparse Matrix and `rep` against the dense list-of-lists kernels they
replaced, kept here as the oracle: entrywise sums, scaling, products,
Kronecker products and transposes that touch every entry, and `rep` as the
product of each word's F letters, K matrix and E letters multiplied out."""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from qlg2 import pbw
from qlg2.checks import PROBE_TOKENS
from qlg2.linalg import Matrix
from qlg2.modules import EXT, FUND
from qlg2.pbw import AE_ZERO, AlgebraElement, normal_form
from qlg2.scalar import KZERO, ONE, ZERO, KScalar, laurent_q
from qlg2.weights import Weight


# --- the dense oracles --------------------------------------------------------

def _mzeros(n, m, zero):
    return [[zero] * m for _ in range(n)]


def _meye(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def _miszero(a):
    return all(not x for row in a for x in row)


def _madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _msub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mscale(c, a):
    return [[c * x for x in row] for row in a]


def _mmul(a, b, zero):
    n, k, m = len(a), len(b), len(b[0])
    out = _mzeros(n, m, zero)
    for i in range(n):
        for t in range(k):
            c = a[i][t]
            if not c:
                continue
            for j in range(m):
                if b[t][j]:
                    out[i][j] = out[i][j] + c * b[t][j]
    return out


def _kron(a, b, zero):
    n, m = len(b), len(b[0])
    out = _mzeros(len(a) * n, len(a[0]) * m, zero)
    for i, ra in enumerate(a):
        for j, x in enumerate(ra):
            for k, rb in enumerate(b):
                for l, y in enumerate(rb):
                    if x and y:
                        out[i * n + k][j * m + l] = x * y
    return out


def _mT(a):
    return [list(col) for col in zip(*a)]


def _dense_chain(ms):
    out = ms[0]
    for m in ms[1:]:
        out = _mmul(out, m, ZERO)
    return out


def _dense(m, zero=ZERO):
    """The list-of-lists form of a Matrix."""
    out = _mzeros(*m.shape, zero)
    for (r, c), x in m.terms.items():
        out[r][c] = x
    return out


def _sparse(a):
    return Matrix({(r, c): x for r, row in enumerate(a) for c, x in enumerate(row) if x},
                  (len(a), len(a[0])))


def _rep(mod, x):
    """Matrix of a PBW element: each word is its F letters, K and its E
    letters multiplied out."""
    out = _mzeros(mod.dim, mod.dim, ZERO)
    for (fexp, lam, eexp), c in x.terms.items():
        ms = [_dense(mod._root_f[4 - k]) for k in range(4) for _ in range(fexp[k])]
        ms.append(_dense(mod.K(lam)))
        ms += [_dense(mod._root_e[k + 1]) for k in range(4) for _ in range(eexp[k])]
        out = _madd(out, _mscale(c, _dense_chain(ms)))
    return out


def _same(got, want):
    """The Matrix `got` has the shape of the dense `want`, stores exactly its
    nonzero entries, and each with the value and the type of `want`'s."""
    assert isinstance(got, Matrix)
    assert got.shape == (len(want), len(want[0]))
    assert all(len(row) == got.shape[1] for row in want)
    nonzero = {(r, c): y for r, row in enumerate(want) for c, y in enumerate(row) if y}
    assert got.terms.keys() == nonzero.keys()
    for rc, y in nonzero.items():
        assert got.terms[rc] == y
        assert type(got.terms[rc]) is type(y)


# --- random sparse matrices ---------------------------------------------------

def _scalar(rng):
    return laurent_q({e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
                      for e in rng.sample(range(-3, 4), rng.randint(1, 2))})


def _kscalar(rng):
    # kappa degree <= 1, so that a product stays within the cap of 2
    monos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return KScalar({m: _scalar(rng) for m in rng.sample(monos, rng.randint(1, 2))})


def _algebra(rng):
    # a word of length <= 2, like the entries of the R-matrix's factors
    return normal_form(tuple(rng.choice(PROBE_TOKENS) for _ in range(rng.randint(0, 2))),
                       _scalar(rng))


_RANDOM = {"S": _scalar, "K": _kscalar, "A": _algebra}


def _entry(rng, kind, density):
    """A random entry: zero with probability 1 - density.  kind "S" gives
    Scalars, "K" KScalars, "A" AlgebraElements and "mix" Scalars or
    KScalars, zeros included (ZERO, KZERO, a fresh empty KScalar and
    AE_ZERO)."""
    if kind == "mix":
        kind = rng.choice("SK")
    if rng.random() >= density:
        if kind == "K":
            return rng.choice((KZERO, KScalar({})))
        return ZERO if kind == "S" else AE_ZERO
    return _RANDOM[kind](rng)


def _matrix(rng, n, m, kind):
    density = rng.choice((0.15, 0.3, 0.6))
    return [[_entry(rng, kind, density) for _ in range(m)] for _ in range(n)]


SHAPES = [(4, 4, 4), (8, 8, 8), (16, 16, 16), (3, 5, 2), (2, 7, 6), (6, 1, 4)]
KINDS = [("S", "S"), ("K", "K"), ("S", "K"), ("K", "S"), ("mix", "mix"),
         ("A", "A"), ("S", "A")]


@pytest.mark.parametrize("n,k,m", SHAPES)
@pytest.mark.parametrize("kinds", KINDS, ids="-".join)
def test_kernels_match_the_dense_oracle(n, k, m, kinds):
    rng = random.Random(f"{n}x{k}x{m}-{kinds}")
    ka, kb = kinds
    for _ in range(2):
        a, b = _matrix(rng, n, k, ka), _matrix(rng, n, k, kb)
        A, B = _sparse(a), _sparse(b)
        _same(A.T, _mT(a))
        if ka == kb != "mix":
            # a sum whose operands share one entry type
            _same(A + B, _madd(a, b))
            _same(A - B, _msub(a, b))
            _same(-A, _mscale(-ONE, a))
        c = _scalar(rng)
        _same(A.scale(c), _mscale(c, a))
        _same(A.scale(ZERO), _mscale(ZERO, a))
        if ka == "K":
            c = _kscalar(rng)
            _same(A.scale(c), _mscale(c, a))
        b = _matrix(rng, k, m, kb)
        _same(A @ _sparse(b), _mmul(a, b, ZERO))
        # every shape of a against a small second factor of the other kind
        c = _matrix(rng, 2, 3, kb)
        _same(A.kron(_sparse(c)), _kron(a, c, ZERO))
        _same(_sparse(c).kron(A), _kron(c, a, ZERO))


def test_mmul_reads_the_rows_of_b_on_every_call():
    # a row table kept from an earlier call would miss the changed entry
    rng = random.Random(5)
    a, b = _matrix(rng, 4, 4, "S"), _matrix(rng, 4, 4, "S")
    for i, j in itertools.product(range(4), repeat=2):
        a[i][j] = ONE
        _same(_sparse(a) @ _sparse(b), _mmul(a, b, ZERO))
        b[j][i] = b[j][i] + ONE
        _same(_sparse(a) @ _sparse(b), _mmul(a, b, ZERO))


def test_matrices_of_different_shapes():
    eye2, eye3 = Matrix.identity(2, ONE), Matrix.identity(3, ONE)
    assert eye2 != eye3 and eye3 != eye2
    assert Matrix({}, (2, 3)) != Matrix({}, (2, 2))
    assert Matrix({}, (2, 3)) != Matrix({}, (3, 2))
    assert Matrix({}, (2, 3)) == Matrix({}, (2, 3))
    assert Matrix({(0, 0): ONE}, (2, 3)) != Matrix({(0, 0): ONE}, (2, 2))
    for op in (operator.add, operator.sub):
        with pytest.raises(ValueError):
            op(eye2, eye3)
        with pytest.raises(ValueError):
            op(Matrix({}, (2, 3)), Matrix({}, (2, 2)))
    with pytest.raises(ValueError):
        Matrix({}, (2, 3)) @ Matrix({}, (2, 2))
    assert (Matrix({}, (2, 3)) @ Matrix({}, (3, 4))).shape == (2, 4)
    assert Matrix({}, (2, 3)).kron(Matrix({}, (4, 5))).shape == (8, 15)
    assert Matrix({}, (2, 3)).T.shape == (3, 2)


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
    f_block = {f: _dense_chain([_meye(4)] + [
        _dense(FUND._root_f[4 - k]) for k in range(4) for _ in range(f[k])]) for f in exps}
    e_block = {e: _dense_chain([_meye(4)] + [
        _dense(FUND._root_e[k + 1]) for k in range(4) for _ in range(e[k])]) for e in exps}
    f_zero = {f for f, m in f_block.items() if _miszero(m)}
    e_zero = {e for e, m in e_block.items() if _miszero(m)}
    zero = _mzeros(4, 4, ZERO)
    nonzero = 0
    for lam in K_TOKENS:
        k = _dense(FUND.K(lam))
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


def _element(rng):
    """A sum of one to three token words of length <= 3 with random
    coefficients."""
    out = pbw.AE_ZERO
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.choice(PROBE_TOKENS) for _ in range(rng.randint(0, 3)))
        out = out + normal_form(word, _scalar(rng))
    return out


def test_rep_is_a_homomorphism():
    rng = random.Random(20240801)
    for _ in range(200):
        x, y = _element(rng), _element(rng)
        rx, ry = FUND.rep(x), FUND.rep(y)
        _same(rx, _rep(FUND, x))
        _same(FUND.rep(x * y), _mmul(_dense(rx), _dense(ry), ZERO))


def test_rep_word_is_the_plain_generator_product():
    # the independent side of the representation probe of eq-comm-rel-uqg
    rng = random.Random(7)
    for _ in range(50):
        word = tuple(rng.choice(PROBE_TOKENS) for _ in range(rng.randint(0, 4)))
        want = _dense_chain([_meye(4)] + [_dense(FUND.rep_token(t)) for t in word])
        _same(FUND.rep_word(word), want)
        _same(FUND.rep(normal_form(word)), want)
