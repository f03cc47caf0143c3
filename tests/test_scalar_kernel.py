"""Differential tests of the integer-coefficient Scalar kernel.

Random rational functions are built as pairs of {exponent: Fraction}
Laurent polynomials.  Every field operation on the Scalars is compared with
plain Fraction arithmetic on the values of those pairs at random rational
points, so the oracle shares no code with the kernel.  The sign field and
the sum and product memos are compared with the three-field kernel without
memos, kept here as an oracle: its values are triples v**s n/d whose n
carries the sign.
"""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from qlg2 import cli, pbw
from qlg2.scalar import (
    _ADD_CACHE, _CANCEL_CACHE, _LCM_CACHE, _MUL_CACHE, BR2, ONE, Q_SC, ZERO,
    InexactDivisionError, KScalar, Scalar, _cancel, _padd, _pexquo, _pgcd, _pmul,
    _pneg, _pscale, laurent_q, laurent_v, q_binomial, q_factorial, q_number,
    scalar, v_power,
)

import memos


def _dmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _dval(p, x):
    return sum((c * x ** e for e, c in p.items()), Fraction(0))


def _rand_laurent(rng, terms, lo=-4, hi=4):
    p = {}
    for _ in range(terms):
        e = rng.randint(lo, hi)
        p[e] = p.get(e, 0) + Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return {e: c for e, c in p.items() if c}


def rand_rational(rng):
    """(Scalar, num dict, den dict) for a random rational function.

    Covers negative and non-unit leading coefficients, negative shifts,
    denominators with integer content and common factors that cancel.
    """
    num = _rand_laurent(rng, rng.randint(1, 4))
    den = {}
    while not den:
        den = _rand_laurent(rng, rng.randint(1, 3), -3, 3)
    if rng.random() < 0.5:
        k = rng.choice((2, 3, 6, -4, 10))
        den = {e: k * c for e, c in den.items()}
    if rng.random() < 0.4:
        common = {}
        while not common:
            common = {e: Fraction(rng.randint(-4, 4))
                      for e in rng.sample(range(-1, 4), 2)}
            common = {e: c for e, c in common.items() if c}
        num, den = _dmul(num, common), _dmul(den, common)
    return laurent_v(num) / laurent_v(den), num, den


def _points(rng, pairs, n=3):
    """n random nonzero rationals that are no pole of any oracle pair."""
    out = []
    while len(out) < n:
        x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        if all(_dval(den, x) for _, den in pairs):
            out.append(x)
    return out


def _check_canonical(s):
    """g v^s n/d with g = +-1, n, d of nonzero end terms, lc(n) > 0, lc(d) > 0
    and gcd(n, d) = 1 in Z[v]: no common integer content and, by a Euclid
    over Fraction, no common factor of degree >= 1; zero is ((), (1,), 0)
    with g = 1."""
    n, d = s._n, s._d
    assert s._g in (1, -1)
    if not n:
        assert (d, s._s, s._g) == ((1,), 0, 1)
        return
    assert n[0] and n[-1] > 0 and d[0] and d[-1] > 0
    assert gcd(*n, *d) == 1
    assert len(_qgcd(n, d)) == 1
    assert all(isinstance(x, int) for x in n + d)


@pytest.mark.parametrize("seed", range(6))
def test_field_ops_match_fraction_oracle(seed):
    rng = random.Random(seed)
    for _ in range(40):
        (a, an, ad), (b, bn, bd) = rand_rational(rng), rand_rational(rng)
        results = {
            "add": a + b, "sub": a - b, "mul": a * b, "neg": -a,
            "pow2": a ** 2, "pow3": a ** 3,
        }
        if not b.is_zero:
            results["div"] = a / b
            results["rdiv"] = 5 / b
            results["inv"] = b.inv()
            results["powm2"] = b ** -2
        for s in results.values():
            _check_canonical(s)
        for x in _points(rng, ((an, ad), (bn, bd))):
            av = _dval(an, x) / _dval(ad, x)
            bv = _dval(bn, x) / _dval(bd, x)
            assert a.evaluate(x) == av
            want = {
                "add": av + bv, "sub": av - bv, "mul": av * bv, "neg": -av,
                "pow2": av ** 2, "pow3": av ** 3,
            }
            if bv:
                want.update(div=av / bv, rdiv=5 / bv, inv=1 / bv,
                            powm2=bv ** -2)
            for op, s in results.items():
                if op in want:
                    assert s.evaluate(x) == want[op], op


def test_equal_values_by_different_routes_are_identical():
    rng = random.Random(41)
    for _ in range(60):
        a, b, c = (rand_rational(rng)[0] for _ in range(3))
        routes = [a + b - b, (a - c) + c, b + a - b]
        if not b.is_zero:
            routes.append(a * b / b)
            routes.append(a / b * b)
        if not c.is_zero and not b.is_zero:
            routes.append((a * c) / (b * c) * b)
        for r in routes:
            assert r == a
            assert hash(r) == hash(a)
            assert r.canon_str() == a.canon_str()
        s1, s2 = (a + b) + c, a + (b + c)
        assert s1 == s2 and hash(s1) == hash(s2)


def test_integer_content_is_canonical():
    # the same value with a denominator of content 1, 6 and -6
    x = laurent_v({0: 1, 1: 2}) / laurent_v({0: 1, 2: 1})
    y = laurent_v({0: 6, 1: 12}) / laurent_v({0: 6, 2: 6})
    z = laurent_v({0: -3, 1: -6}) / laurent_v({0: -3, 2: -3})
    assert x == y == z
    assert hash(x) == hash(y) == hash(z)
    assert (x._n, x._d, x._s) == ((1, 2), (1, 0, 1), 0)
    w = scalar(Fraction(6, 4))
    assert w == laurent_v({0: 3}) / laurent_v({0: 2})
    assert (w._n, w._d, w._s) == ((3,), (2,), 0)
    # content shared by n and d, on either side of a product, is divided out
    h = laurent_v({0: 2, 4: 2}) / laurent_v({0: 3, 1: 3})
    assert (h._n, h._d) == ((2, 0, 0, 0, 2), (3, 3))
    assert (h * scalar(Fraction(3, 2)))._d == (1, 1)
    assert (h / laurent_v({0: 4}))._n == (1, 0, 0, 0, 1)
    # the sign of lc(num) is the sign field; constant terms keep their signs
    m = laurent_v({0: 3, 2: -6}) / laurent_v({0: -2, 1: 4})
    assert (m._n, m._d, m._s, m._g) == ((-3, 0, 6), (-2, 4), 0, -1)
    assert (-m)._g == 1 and (-m)._n is m._n


def test_sign_and_unit_factors_build_no_tuple():
    # negation, inverse and a product with +-v^k move the fields of the
    # canonical operand into the result as they are
    rng = random.Random(32)
    checked = 0
    while checked < 60:
        x = rand_rational(rng)[0]
        if x.is_zero or not _general(x):
            continue
        checked += 1
        for y in (-x, x.inv(), x * v_power(-3), x * -v_power(5),
                  -v_power(2) * x, x * scalar(-1)):
            _check_canonical(y)
            assert {id(y._n), id(y._d)} == {id(x._n), id(x._d)}
        assert (-x)._g == -x._g and (-(-x)) == x
        assert x.inv()._g == x._g
    # both factors c v^k: the +-v^k one shifts the other, on either side
    c = laurent_v({5: 3})
    for y in (-v_power(2) * c, c * -v_power(2)):
        _check_canonical(y)
        assert y._n is c._n and y._d is c._d and y == -laurent_v({7: 3})


def test_evaluate_pole_and_zero_point():
    with pytest.raises(ZeroDivisionError):
        (ONE / Q_SC).evaluate(Fraction(1))
    assert v_power(3).evaluate(0) == 0
    with pytest.raises(ZeroDivisionError):
        v_power(-1).evaluate(0)
    assert ZERO.evaluate(Fraction(2, 3)) == 0


def test_inexact_division_raises_typed_error():
    assert issubclass(InexactDivisionError, ArithmeticError)
    assert _pexquo((3, 3), (1, 1)) == (3,)
    with pytest.raises(InexactDivisionError):
        _pexquo((1, 0, 1), (1, 1))      # 1 + v^2 by 1 + v
    with pytest.raises(InexactDivisionError):
        _pexquo((1, 2), (2,))           # not divisible over Z
    with pytest.raises(InexactDivisionError):
        _pexquo((1,), (1, 1))           # degree too small


# c * v^k factors as (c, k); built through laurent_v, not the constant
# factories, so the operands are canonical before any product
MONOMIALS = [(1, 0), (-1, 0), (3, 0), (Fraction(-2, 9), 0), (1, -5),
             (Fraction(-4, 3), 7)]
# +-v^k, which Scalar.__mul__ short-cuts to a sign and a shift
MONOMIALS += [(c, k) for c in (1, -1) for k in range(-6, 7)
              if (c, k) not in MONOMIALS]


@pytest.mark.parametrize("c,k", MONOMIALS)
def test_monomial_factor_products(c, k):
    m = laurent_v({k: c})
    # m * (1 + v), built as a polynomial, so the route below is not monomial
    p, mp = laurent_v({0: 1, 1: 1}), laurent_v({k: c, k + 1: c})
    assert ZERO * m is ZERO and m * ZERO is ZERO
    rng = random.Random(k * 10 + 3)
    for _ in range(40):
        x, xn, xd = rand_rational(rng)
        route = (x * mp) / p
        for prod in (x * m, m * x):
            _check_canonical(prod)
            assert prod == route and hash(prod) == hash(route)
            for pt in _points(rng, ((xn, xd),)):
                assert prod.evaluate(pt) == _dval(xn, pt) / _dval(xd, pt) * c * pt ** k
        if (c, k) == (1, 0):
            # a factor equal to ONE returns the other operand itself
            assert x * m is x and m * x is x and x * ONE is x and ONE * x is x


# --- _cancel and its memo against a gcd over Q on Fraction coefficients -------

def _tmul(a, b):
    """Product of two coefficient tuples, index = exponent."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _qgcd(a, b):
    """A gcd of two nonzero coefficient tuples over Q, as a Fraction list, by
    Euclid's algorithm."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    while b:
        a, b = b, _qdivmod(a, b)[1]
    return a


def _qdivmod(a, b):
    """Quotient and remainder of a by b over Q, as Fraction lists."""
    r = [Fraction(x) for x in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while r and len(r) >= len(b):
        k = len(r) - len(b)
        q[k] = f = r[-1] / b[-1]
        for i, x in enumerate(b):
            r[k + i] -= f * x
        while r and not r[-1]:
            r.pop()
    return q, r


def _oracle_cancel(n, d):
    """n and d divided by their gcd, taken primitive over Z with lc > 0;
    unchanged when either is a monomial, as in the kernel."""
    if len(n) == 1 or len(d) == 1:
        return n, d
    a = _qgcd(n, d)
    g = [x * lcm(*(y.denominator for y in a)) for x in a]
    k = gcd(*(int(x) for x in g)) * (1 if g[-1] > 0 else -1)
    g = [x / k for x in g]
    out = []
    for p in (n, d):
        q, r = _qdivmod(p, g)
        assert not r and all(x.denominator == 1 for x in q)
        out.append(tuple(int(x) for x in q))
    return tuple(out)


# factors of the denominators the checks produce: v^4 - 1, v^4 + 1, v^2 + 1,
# 1 - v^4 + v^8 and v^8 - 1, whose products give (v^4 - 1)^2 and the rest
_DEN_FACTORS = ((-1, 0, 0, 0, 1), (1, 0, 0, 0, 1), (1, 0, 1),
                (1, 0, 0, 0, -1, 0, 0, 0, 1), (-1, 0, 0, 0, 0, 0, 0, 0, 1))


def _cancel_corpus(seed, n):
    """(num, den) pairs as _cancel receives them: den a product of one to
    three factors above, num a random polynomial with nonzero end terms
    times zero to two of them."""
    rng = random.Random(seed)
    ends = [x for x in range(-4, 5) if x]
    out = []
    for _ in range(n):
        d = (1,)
        for f in rng.choices(_DEN_FACTORS, k=rng.randint(1, 3)):
            d = _tmul(d, f)
        num = (rng.choice(ends),)
        if rng.random() < 0.9:
            num += tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 5)))
            num += (rng.choice(ends),)
        for f in rng.choices(_DEN_FACTORS, k=rng.randint(0, 2)):
            num = _tmul(num, f)
        out.append((num, d))
    return out


def test_cancel_matches_gcd_oracle_cold_and_warm():
    corpus = _cancel_corpus(1207, 300)
    want = [_oracle_cancel(n, d) for n, d in corpus]
    # most pairs share a factor, so the division is exercised
    assert sum(w != p for w, p in zip(want, corpus)) > 150
    with memos.cold():
        cold = [_cancel(n, d) for n, d in corpus]
        warm = [_cancel(n, d) for n, d in corpus]
        # only the gcd-bearing case is memoised
        assert set(_CANCEL_CACHE) == {(n, d) for n, d in corpus
                                      if len(n) > 1 and len(d) > 1}
    assert cold == want
    assert warm == want


# --- the three-field kernel without memos: the oracle of the sections below --
#
# A value is a triple (n, d, s) = v**s n/d, canonical when n and d have
# nonzero end terms, lc(d) > 0 and gcd(n, d) = 1 in Z[v]; lc(n) has either
# sign.  This is the kernel Scalar had before its sign field and its memos.

def _three(x):
    """The triple of a Scalar: its sign field moved into n."""
    return (_pneg(x._n) if x._g < 0 else x._n), x._d, x._s


def _make3(num, den, shift, reduce=False):
    """The canonical triple of v**shift num/den, as Scalar._make built it:
    den has lc > 0 and a nonzero constant term."""
    num = list(num)
    while num and not num[-1]:
        num.pop()
    if not num:
        return (), (1,), 0
    i = 0
    while not num[i]:
        i += 1
    num = tuple(num[i:])
    if reduce and len(num) > 1 and len(den) > 1:
        g = _pgcd(num, den)
        num, den = _pexquo(num, g), _pexquo(den, g)
    c = gcd(*num, *den)
    return (tuple(x // c for x in num), tuple(x // c for x in den), shift + i)


def _plain_cancel(n, d):
    if len(n) > 1 and len(d) > 1:
        g = _pgcd(n, d)
        return _pexquo(n, g), _pexquo(d, g)
    return n, d


def _aligned(x, y):
    """The numerators of two triples over v**min(s1, s2), and that shift."""
    s = min(x[2], y[2])
    return (0,) * (x[2] - s) + x[0], (0,) * (y[2] - s) + y[0], s


def _plain_add(x, y):
    """x + y of two triples, as Scalar.__add__ computed it before its memo and
    its sign field."""
    if not x[0]:
        return y
    if not y[0]:
        return x
    n1, n2, s = _aligned(x, y)
    d1, d2 = x[1], y[1]
    if d1 == d2:
        return _make3(_padd(n1, n2), d1, s, True)
    if len(d1) > 1 and len(d2) > 1:
        g = _pgcd(d1, d2)
        u1, u2 = _pexquo(d2, g), _pexquo(d1, g)
        return _make3(_padd(_pmul(n1, u1), _pmul(n2, u2)), _pmul(d1, u1), s, True)
    return _make3(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2), s)


def _plain_mul(x, y):
    """x * y of two nonzero triples by the general path of Scalar.__mul__
    before its memo and its sign field; canonical for a c v^k factor too."""
    n1, d2 = _plain_cancel(x[0], y[1])
    n2, d1 = _plain_cancel(y[0], x[1])
    return _make3(_pmul(n1, n2), _pmul(d1, d2), x[2] + y[2])


# --- the lcm branch of Scalar.__add__ against the product formula ------------

def _product_add(x, y):
    """x + y of two triples over the product d1 d2 of the denominators,
    reduced after: the formula Scalar.__add__ used for two denominators of
    degree >= 1 before it went over their lcm."""
    n1, n2, s = _aligned(x, y)
    num = _padd(_pmul(n1, y[1]), _pmul(n2, x[1]))
    return _make3(num, _pmul(x[1], y[1]), s, True)


# v^4 - 1, v^4 + 1, v^8 - 1 and (v^4 - 1)^2: pairs that share cyclotomic
# factors, so lcm(d1, d2) is a proper divisor of d1 d2
_V4M1 = {0: -1, 4: 1}
_LCM_PAIRS = {
    "v4-1,v8-1": (_V4M1, {0: -1, 8: 1}),
    "v4+1,v8-1": ({0: 1, 4: 1}, {0: -1, 8: 1}),
    "(v4-1)^2,v4-1": (_dmul(_V4M1, _V4M1), _V4M1),
}


def _over(rng, den):
    """(Scalar, num dict, den dict): a random numerator over den, drawn again
    until it shares no polynomial factor with den, so the Scalar keeps den up
    to an integer factor."""
    inv = ONE / laurent_v(den)
    while True:
        num = _rand_laurent(rng, rng.randint(1, 4))
        if rng.random() < 0.5:
            num = {e: c * rng.choice((2, 3, Fraction(1, 6))) for e, c in num.items()}
        x = laurent_v(num) * inv
        if num and tuple(c // gcd(*x._d) for c in x._d) == inv._d:
            return x, num, den


@pytest.mark.parametrize("name", sorted(_LCM_PAIRS))
def test_lcm_sums_match_the_product_formula(name):
    dens = _LCM_PAIRS[name]
    rng = random.Random(sum(map(ord, name)))
    pairs = set()
    with memos.cold():
        for _ in range(30):
            for (x, xn, xd), (y, yn, yd) in itertools.permutations(
                    [_over(rng, dens[0]), _over(rng, dens[1])]):
                assert x._d != y._d and len(x._d) > 1 and len(y._d) > 1
                got, want = x + y, _product_add(_three(x), _three(y))
                _check_canonical(got)
                assert _three(got) == want
                for pt in _points(rng, ((xn, xd), (yn, yd))):
                    assert got.evaluate(pt) == (
                        _dval(xn, pt) / _dval(xd, pt) + _dval(yn, pt) / _dval(yd, pt))
                pairs.add((x._d, y._d))
        # both orders of each pair of denominators are memoised, and some
        # denominators carry an integer content
        assert set(_LCM_CACHE) == pairs
        assert {(d2, d1) for d1, d2 in pairs} == pairs
        assert any(gcd(*d) > 1 for d, _ in pairs)


# --- the sum and product memos against the kernel without them ---------------

def _fields(s):
    return s._n, s._d, s._s, s._g


def _free(s):
    """The shift-free and sign-free fields of s: its part of a memo key."""
    return s._n, s._d


def _general(s):
    """True unless s is c v^k, which Scalar.__mul__ multiplies without its memo."""
    return not (len(s._n) == 1 and len(s._d) == 1)


def _memo_corpus():
    """Shift-free operands of the kind the checks repeat: the crossing-row
    coefficients of the PBW product loop, q-numbers, BR2 and 1/Q_SC, two of
    them halved (a denominator of content 2), and sums of them."""
    exps = list(itertools.product(range(2), repeat=4))
    rows = {}
    for e, f in itertools.product(exps, repeat=2):
        if sum(e) + sum(f) <= 3:
            for row in pbw._cross(e, f):
                rows.setdefault(_fields(row[4].shift(-row[4]._s)), row[4])
    crossing = sorted(rows.values(), key=lambda s: s.canon_str())[:12]
    named = [q_number(2, 2), q_number(3), q_number(4), BR2, ONE / Q_SC, ONE / BR2]
    halves = [x * scalar(Fraction(1, 2)) for x in (q_number(3), ONE / Q_SC)]
    sums = [a + b for a, b in zip(crossing[:4], named)]
    twins = [-x for x in crossing[:3] + named[:3]]
    out = {}
    for x in crossing + named + halves + sums + twins:
        if x:
            x = x.shift(-x._s)
            out.setdefault(_fields(x), x)
    return list(out.values())


# (s1, s2): (0, 0) and (4, 4) share s1 - s2, as do (3, -2) and (1, -4)
_SHIFTS = ((0, 0), (4, 4), (3, -2), (1, -4), (-5, 2))


def test_result_memos_match_the_plain_kernel_cold_and_warm():
    corpus = _memo_corpus()
    assert len(corpus) >= 20
    assert any(gcd(*x._d) == 2 for x in corpus) and sum(map(_general, corpus)) >= 15
    cases = [(x.shift(s1), y.shift(s2)) for x, y in itertools.product(corpus, repeat=2)
             for s1, s2 in _SHIFTS]
    want = [(_plain_add(_three(x), _three(y)), _plain_mul(_three(x), _three(y)))
            for x, y in cases]
    with memos.cold():
        cold = [(x + y, x * y) for x, y in cases]
        assert [(_three(s), _three(p)) for s, p in cold] == want
        # _check_canonical reads the shift of zero only: each distinct
        # (n, d, g) form, and each zero, is checked once
        forms = {(s._n, s._d, s._g, 0 if s._n else s._s): s for r in cold for s in r}
        for s in forms.values():
            _check_canonical(s)
        # the warm pass reads the memos; it is compared field by field,
        # since _three folds the sign into n
        warm = [(x + y, x * y) for x, y in cases]
        assert [(_fields(s), _fields(p)) for s, p in warm] == \
            [(_fields(s), _fields(p)) for s, p in cold]
        # one entry per shift-free and sign-free pair, and for a sum per
        # relative shift and relative sign; none per shift or per sign
        pairs = list(itertools.product(corpus, repeat=2))
        muls = {(_free(x), _free(y)) for x, y in pairs if _general(x) and _general(y)}
        adds = {(_free(x), _free(y), s1 - s2, x._g * y._g)
                for x, y in pairs for s1, s2 in _SHIFTS}
        assert len(_MUL_CACHE) == len(muls) < sum(
            _general(x) and _general(y) for x, y in pairs)
        assert len(_ADD_CACHE) == len(adds) < len(pairs) * len(
            {s1 - s2 for s1, s2 in _SHIFTS})
        # every product entry is sign-free
        assert all(got._g == 1 for got in _MUL_CACHE.values())


def test_sign_twins_share_one_memo_entry():
    # x + y and (-x) + (-y) read one sum entry, x - y another, and x y,
    # (-x) y, x (-y) and (-x) (-y) one product entry
    corpus = {}
    for x in _memo_corpus():
        if _general(x):
            corpus.setdefault(_free(x), x if x._g > 0 else -x)
    corpus = list(corpus.values())
    assert len(corpus) >= 15
    with memos.cold():
        for x, y in itertools.product(corpus, repeat=2):
            for j in (0, 3, -2):
                xj = x.shift(j)
                # a product entry is shift-free, so only j = 0 adds one
                sizes = len(_ADD_CACHE) + 1, len(_MUL_CACHE) + (j == 0)
                total, prod = xj + y, xj * y
                assert (len(_ADD_CACHE), len(_MUL_CACHE)) == sizes
                assert _fields((-xj) + (-y)) == _fields(-total)
                assert _fields((-xj) * y) == _fields(xj * (-y)) == _fields(-prod)
                assert _fields((-xj) * (-y)) == _fields(prod)
                assert (len(_ADD_CACHE), len(_MUL_CACHE)) == sizes
                diff = xj - y
                assert _fields((-xj) + y) == _fields(-diff)
                assert (len(_ADD_CACHE), len(_MUL_CACHE)) == (sizes[0] + 1, sizes[1])
                assert _three(total) == _plain_add(_three(xj), _three(y))
                assert _three(diff) == _plain_add(_three(xj), _three(-y))
                assert _three(prod) == _plain_mul(_three(xj), _three(y))


def test_shifted_operands_share_one_memo_entry():
    corpus = [x for x in _memo_corpus() if _general(x)]
    with memos.cold():
        for x, y in itertools.product(corpus, repeat=2):
            for j in (0, 3, -2):
                xj = x.shift(j)
                prod, total = xj * y, xj + y
                sizes = len(_MUL_CACHE), len(_ADD_CACHE)
                for k in (-7, 1, 4):
                    assert _fields(xj.shift(k) * y) == _fields(prod.shift(k))
                    assert _fields(xj * y.shift(k)) == _fields(prod.shift(k))
                    assert _fields(xj.shift(k) + y.shift(k)) == _fields(total.shift(k))
                    assert (len(_MUL_CACHE), len(_ADD_CACHE)) == sizes
                    assert prod.shift(k) == prod * v_power(k)
                    assert total.shift(k) == total * v_power(k)


def test_a_sum_with_its_negative_is_zero_cold_and_warm():
    corpus = _memo_corpus()
    with memos.cold():
        for _pass in ("cold", "warm"):
            for x in corpus:
                for s in (0, 5, -3):
                    assert x.shift(s) + (-x).shift(s) is ZERO
                    assert (-x).shift(s) + x.shift(s) is ZERO
        # a zero sum is stored as ZERO, so a repeat at any shift returns it
        assert _ADD_CACHE and all(got is ZERO for got in _ADD_CACHE.values())


# (x, y, the shift of x + y): the low coefficients cancel, so the sum's shift
# is above min(s1, s2)
_CANCELLING = [
    (laurent_v({0: 1, 1: 1}), laurent_v({0: -1, 3: 1}), 1),
    (laurent_v({-2: 1, 0: 1}), laurent_v({-2: -1}), 0),
    (laurent_v({0: 1, 1: 1, 3: 1}) / laurent_v({0: 1, 4: 1}),
     laurent_v({0: -1, 2: 1}) / laurent_v({0: 1, 4: 1}), 1),
    (q_number(3) / Q_SC, -(v_power(-4) / Q_SC), 2),
]


@pytest.mark.parametrize("x,y,low", _CANCELLING,
                         ids=["laurent", "negative-shift", "over-v4+1", "over-Q"])
def test_a_cancelling_sum_keeps_its_relative_shift(x, y, low):
    with memos.cold():
        for _pass in ("cold", "warm"):
            for s in (0, 5, -3):
                got = x.shift(s) + y.shift(s)
                assert _three(got) == _plain_add(_three(x.shift(s)), _three(y.shift(s)))
                assert got._s == s + low > s + min(x._s, y._s)
                assert _three(x.shift(s + 2) + y.shift(s)) == _plain_add(
                    _three(x.shift(s + 2)), _three(y.shift(s)))


def test_kscalar_products_match_the_plain_kernel():
    corpus = _memo_corpus()
    monos = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    rng = random.Random(25)
    elements = []
    for _ in range(24):
        terms = {m: rng.choice(corpus).shift(rng.randint(-4, 4))
                 for m in rng.sample(monos, rng.randint(1, 3))}
        elements.append(KScalar(terms))
    with memos.cold():
        for _pass in ("cold", "warm"):
            for a, b in itertools.product(elements, repeat=2):
                want = {}
                for (m1, c1), (m2, c2) in itertools.product(a.terms.items(),
                                                            b.terms.items()):
                    m = tuple(i + j for i, j in zip(m1, m2))
                    c = _plain_mul(_three(c1), _three(c2))
                    want[m] = _plain_add(want[m], c) if m in want else c
                want = {m: c for m, c in want.items() if c[0]}
                got = (a * b).terms
                assert {m: _three(c) for m, c in got.items()} == want


# --- the four Scalar memos left by a default-seed verify, entry by entry -----

def _laurent(cs, shift=0):
    """{exponent: coefficient} of v**shift * cs(v)."""
    return {e + shift: c for e, c in enumerate(cs) if c}


def _dadd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _memo_faults(adds, muls, cancels, lcms):
    """The entries of the four Scalar memos whose defining identity fails,
    cross-multiplied with the schoolbook _dmul, and the stored values that
    are not canonical."""
    faults = []
    for key, got in muls.items():
        # n1/d1 * n2/d2 = g v^s n/d
        n1, d1, n2, d2 = map(_laurent, key)
        if (_dmul(_dmul(n1, n2), _laurent(got._d))
                != _dmul(_laurent(_three(got)[0], got._s), _dmul(d1, d2))):
            faults.append(("mul", key))
    for key, got in adds.items():
        # (v^k n1/d1 + h n2/d2) / v^min(0, k) = g v^s n/d
        n1, d1, n2, d2 = map(_laurent, key[:4])
        k, h = key[4:]
        total = _dadd(_dmul({e + k: c for e, c in n1.items()}, d2),
                      _dmul({e: h * c for e, c in n2.items()}, d1))
        if (_dmul(total, _laurent(got._d))
                != _dmul(_laurent(_three(got)[0], got._s + min(0, k)),
                         _dmul(d1, d2))):
            faults.append(("add", key))
    for (n, d), (n2, d2) in cancels.items():
        # n/d = n2/d2, with no common factor of degree >= 1 left
        if _tmul(n, d2) != _tmul(n2, d) or len(_qgcd(n2, d2)) > 1 or d2[-1] < 0:
            faults.append(("cancel", (n, d)))
    for (d1, d2), (u1, u2, big) in lcms.items():
        # d1 u1 = L = d2 u2, with cofactors that share no factor
        if not _tmul(d1, u1) == big == _tmul(d2, u2) or len(_qgcd(u1, u2)) > 1:
            faults.append(("lcm", (d1, d2)))
    for s in {*adds.values(), *muls.values()}:
        try:
            _check_canonical(s)
        except AssertionError:
            faults.append(("value", s))
    return faults


def test_scalar_memos_left_by_verify_hold_entry_by_entry(tmp_path):
    with memos.cold():
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--check", "all", "--report", "json",
                         "--out", str(out)]) == cli.EXIT_PASS
        tables = [dict(t) for t in (_ADD_CACHE, _MUL_CACHE, _CANCEL_CACHE, _LCM_CACHE)]
    adds, muls, cancels, lcms = tables
    assert all(tables) and len(adds) > 1000 and len(muls) > 300
    # both relative signs occur in the sum keys
    assert {key[5] for key in adds} == {1, -1}
    assert not _memo_faults(adds, muls, cancels, lcms)
    # the check is entry by entry, and finds a wrong product, a sum of the
    # other relative sign, and right values in a non-canonical form
    key, got = next(iter(muls.items()))
    wrong = got * scalar(2)
    unreduced = Scalar(_pscale(got._n, 3), _pscale(got._d, 3), got._s, got._g)
    unsigned = Scalar(_pneg(got._n), got._d, got._s, -got._g)
    assert _memo_faults({}, {key: wrong}, {}, {}) == [("mul", key)]
    assert _memo_faults({}, {key: -got}, {}, {}) == [("mul", key)]
    assert _memo_faults({}, {key: unreduced}, {}, {}) == [("value", unreduced)]
    assert _memo_faults({}, {key: unsigned}, {}, {}) == [("value", unsigned)]
    key, got = next((k, x) for k, x in adds.items() if x and k[4] and k[5] < 0)
    other = adds.get(key[:5] + (1,)) or Scalar._sum(*key[:5], 1)
    assert _memo_faults({key: other}, {}, {}, {}) == [("add", key)]


# canon_str of values recorded from the Fraction-coefficient kernel; report
# digests hash these strings
PINNED = [
    (lambda: q_number(3), "v^-4 + 1 + v^4"),
    (lambda: ONE / (Q_SC * Q_SC), "(v^4) / (1 - 2*v^4 + v^8)"),
    (lambda: scalar(Fraction(-3, 4)) * v_power(-5), "-3/4*v^-5"),
    (lambda: q_binomial(4, 2, 2), "v^-16 + v^-8 + 2 + v^8 + v^16"),
    (lambda: laurent_v({0: 2, 1: 3}) / laurent_v({0: 4, 2: -6}),
     "(-1/3 - 1/2*v^1) / (-2/3 + v^2)"),
    (lambda: (laurent_v({-1: Fraction(1, 2), 3: Fraction(-5, 3)})
              / laurent_v({0: 3, 1: -9, 2: 6})),
     "(1/12*v^-1 - 5/18*v^3) / (1/2 - 3/2*v^1 + v^2)"),
    (lambda: BR2 / q_number(3, base=2), "(v^6 + v^10) / (1 + v^8 + v^16)"),
    (lambda: q_factorial(4) / q_factorial(2, base=2),
     "v^-8 + 3*v^-4 + 4 + 3*v^4 + v^8"),
    (lambda: (Q_SC * Q_SC + scalar(2)) / (BR2 * v_power(3)),
     "(v^-5 + v^3) / (1 + v^4)"),
    (lambda: ONE / laurent_v({0: -2, 1: 0, 2: 4}), "(1/4) / (-1/2 + v^2)"),
    (lambda: scalar(Fraction(7, 6)) / Q_SC - v_power(-2),
     "(v^-2 + 1/6*v^2) / (-1 + v^4)"),
    (lambda: -(laurent_q({1: 3, -1: 3}) / laurent_q({2: 6, 0: -6})),
     "(-1/2*v^-2 - 1/2*v^2) / (-1 + v^4)"),
]


@pytest.mark.parametrize("build,text", PINNED)
def test_canon_str_pinned(build, text):
    s = build()
    assert isinstance(s, Scalar)
    assert s.canon_str() == text
