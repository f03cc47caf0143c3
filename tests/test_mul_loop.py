"""The fused PBW product loop `pbw._mul_terms` against the plain loop it
replaced: every pair of single letters and K tokens, seeded random element
pairs, and the same products on cold and on warm memo tables."""

import itertools
import random

from qlg2 import pbw
from qlg2.linalg import accumulate
from qlg2.pbw import (
    _EXPAND_E, _EXPAND_F, _QBR2, _SIMPLE_CROSS, _ZEXP, _acc, _bump, _e_letters,
    _f_letters, _wt_e, _wt_f,
)
from qlg2.scalar import ONE, Q_SC, q_power, scalar
from qlg2.weights import ALPHA1, ALPHA2, OMEGA1, OMEGA2, W_ZERO, Weight

import memos
from test_rewrite_and_elimination import _straighten_e, _straighten_f


# --- the plain loop: one _emit call and one accumulate per term, through the
# old block straighteners ------------------------------------------------------

def _emit(out, fseq, lam, eseq, coeff):
    etab = _straighten_e(eseq)
    for fexp, cf in _straighten_f(fseq).items():
        cwf = coeff * cf
        for eexp, ce in etab.items():
            accumulate(out, (fexp, lam, eexp), cwf * ce)


def _plain_cross(eexp, fexp, memo):
    """The crossing recursion of pbw._cross, multiplying through the plain
    loop and memoised in `memo` only."""
    if eexp == _ZEXP:
        return {(fexp, W_ZERO, _ZEXP): ONE}
    if fexp == _ZEXP:
        return {(_ZEXP, W_ZERO, eexp): ONE}
    got = memo.get((eexp, fexp))
    if got is not None:
        return got
    last = max(k for k in range(4) if eexp[k])
    first = min(k for k in range(4) if fexp[k])
    e_one, f_one = _bump(_ZEXP, last, 1), _bump(_ZEXP, first, 1)
    i, j = last + 1, 4 - first
    if sum(eexp) > 1:
        got = _plain_mul({(_ZEXP, W_ZERO, _bump(eexp, last, -1)): ONE},
                         _plain_cross(e_one, fexp, memo), memo)
    elif sum(fexp) > 1:
        got = _plain_mul(_plain_cross(eexp, f_one, memo),
                         {(_bump(fexp, first, -1), W_ZERO, _ZEXP): ONE}, memo)
    elif i in _EXPAND_E:
        got = {}
        for c, letters in _EXPAND_E[i]:
            t = {(fexp, W_ZERO, _ZEXP): ONE}
            for x in reversed(letters):
                t = _plain_mul({(_ZEXP, W_ZERO, _bump(_ZEXP, x - 1, 1)): ONE}, t, memo)
            _acc(got, t, c)
    elif j in _EXPAND_F:
        got = {}
        for c, letters in _EXPAND_F[j]:
            t = {(_ZEXP, W_ZERO, eexp): ONE}
            for x in letters:
                t = _plain_mul(t, {(_bump(_ZEXP, 4 - x, 1), W_ZERO, _ZEXP): ONE}, memo)
            _acc(got, t, c)
    else:
        got = {(fexp, W_ZERO, eexp): ONE}
        if i == j:
            alpha, c = _SIMPLE_CROSS[i]
            got[(_ZEXP, alpha, _ZEXP)] = c
            got[(_ZEXP, -alpha, _ZEXP)] = -c
    memo[(eexp, fexp)] = got
    return got


def _plain_mul(t1, t2, memo):
    out = {}
    for (A1, lam, B1), c1 in t1.items():
        for (A2, mu, B2), c2 in t2.items():
            c12 = c1 * c2
            for (A3, nu, B3), c3 in _plain_cross(B1, A2, memo).items():
                c = c12 * c3
                if not (lam == W_ZERO and mu == W_ZERO):
                    c = c * q_power(-(lam.pair(_wt_f(A3)) + mu.pair(_wt_e(B3))))
                _emit(out, _f_letters(A1) + _f_letters(A3), lam + nu + mu,
                      _e_letters(B3) + _e_letters(B2), c)
    return out


def _assert_same_product(t1, t2, memo):
    got = pbw._mul_terms(t1, t2)
    want = _plain_mul(t1, t2, memo)
    # the same terms, in the same insertion order
    assert list(got) == list(want)
    assert got == want


# --- inputs -------------------------------------------------------------------

def _letters_and_k():
    unit = [{(_ZEXP, W_ZERO, _ZEXP): ONE}]
    letters = [{(_ZEXP, W_ZERO, _bump(_ZEXP, k, 1)): ONE} for k in range(4)]
    letters += [{(_bump(_ZEXP, k, 1), W_ZERO, _ZEXP): ONE} for k in range(4)]
    ks = [{(_ZEXP, lam, _ZEXP): ONE}
          for lam in (ALPHA1, -ALPHA1, ALPHA2, -ALPHA2, OMEGA1, OMEGA2)]
    return unit + letters + ks


# the last two have distinct denominators q - q^-1 and q^2 - q^-2 that share
# a factor, so sums of their products meet the lcm branch of Scalar.__add__
_COEFFS = (ONE, -ONE, scalar(3), scalar(-2) / 5, q_power(1), q_power(-2),
           q_power(1) + q_power(-1), ONE / Q_SC, ONE / _QBR2)

# the K parts of the tokens the associativity probe of eq-comm-rel-uqg draws
_PROBE_K = (Weight(1, 0), Weight(-1, 1), Weight(0, -1))


def _random_terms(rng):
    """One to three words of at most four letters, with K parts in -2..2
    (every third one a probe token's) and random coefficients."""
    out = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * 8
        for _ in range(rng.randint(0, 4)):
            exps[rng.randrange(8)] += 1
        lam = (rng.choice(_PROBE_K) if rng.random() < 1 / 3
               else Weight(rng.randint(-2, 2), rng.randint(-2, 2)))
        accumulate(out, (tuple(exps[:4]), lam, tuple(exps[4:])), rng.choice(_COEFFS))
    return out


def _random_pairs(n, seed):
    rng = random.Random(seed)
    return [(_random_terms(rng), _random_terms(rng)) for _ in range(n)]


# --- tests ----------------------------------------------------------------------

def test_letter_and_k_pairs_match_the_plain_loop():
    memo = {}
    for t1, t2 in itertools.product(_letters_and_k(), repeat=2):
        _assert_same_product(t1, t2, memo)


def test_cancelling_products_match_the_plain_loop():
    # (a + b)(a - b) = a^2 - ab + ba - b^2: the crossing of ab leaves a word
    # of ba that cancels
    memo = {}
    singles = _letters_and_k()
    for a, b in itertools.combinations(singles, 2):
        (wa, ca), (wb, cb) = *a.items(), *b.items()
        _assert_same_product({wa: ca, wb: cb}, {wa: ca, wb: -cb}, memo)


def test_random_element_pairs_match_the_plain_loop():
    memo = {}
    for t1, t2 in _random_pairs(500, 20240801):
        _assert_same_product(t1, t2, memo)


def test_cold_tables_give_the_warm_products():
    pairs = list(itertools.product(_letters_and_k(), repeat=2)) + _random_pairs(100, 97)
    warm = [pbw._mul_terms(t1, t2) for t1, t2 in pairs]
    tables = memos.tables()
    assert {f"qlg2.pbw.{name}" for name in (
        "_F_PAIR_CACHE", "_E_PAIR_CACHE", "_F_STR_CACHE", "_E_STR_CACHE",
        "_CROSS_CACHE")} <= set(tables)
    assert {f"qlg2.scalar.{name}" for name in (
        "_CANCEL_CACHE", "_LCM_CACHE", "_ADD_CACHE", "_MUL_CACHE")} <= set(tables)
    with memos.cold():
        cold = [pbw._mul_terms(t1, t2) for t1, t2 in pairs]
    for got, want in zip(cold, warm):
        assert list(got) == list(want)
        assert got == want


def test_pair_tables_hold_the_straightener_memos():
    # one dict per straightened block: the pair table entry is the memo entry
    # of the block's letter word, not a converted copy of it; the F table is
    # keyed A1 then A3 for F^A1 F^A3, the E table B2 then B3 for E^B3 E^B2
    for t1, t2 in _random_pairs(100, 5):
        pbw._mul_terms(t1, t2)
    for table, memo, word in (
            (pbw._F_PAIR_CACHE, pbw._F_STR_CACHE,
             lambda a1, a3: _f_letters(a1) + _f_letters(a3)),
            (pbw._E_PAIR_CACHE, pbw._E_STR_CACHE,
             lambda b2, b3: _e_letters(b3) + _e_letters(b2))):
        assert sum(map(len, table.values())) > 50
        for x, row in table.items():
            for y, tab in row.items():
                assert tab is memo[word(x, y)]


def test_pair_table_rows_are_never_mutated():
    # a row gains an entry as a new dict, so a shallow copy of a table, as
    # memos.snapshot() takes it, keeps the rows it saw as they were
    with memos.cold():
        for t1, t2 in _random_pairs(30, 11):
            pbw._mul_terms(t1, t2)
        tables = (pbw._F_PAIR_CACHE, pbw._E_PAIR_CACHE)
        seen = [{x: (row, dict(row)) for x, row in table.items()} for table in tables]
        for t1, t2 in _random_pairs(100, 5):
            pbw._mul_terms(t1, t2)
        grown = 0
        for table, rows in zip(tables, seen):
            for x, (row, items) in rows.items():
                assert row == items
                grown += table[x] is not row
        assert grown > 10


def _height(eexp, fexp):
    """Sum of the root heights 1, 3, 2, 1 of beta_1..beta_4 over the letters
    of E^eexp . F^fexp."""
    return sum(h * (b + a) for h, b, a in zip((1, 3, 2, 1), eexp, fexp[::-1]))


def test_cold_crossing_rows_give_the_plain_crossings():
    # each row holds a term of the crossing and the covectors of its Cartan
    # exponent: (lam, wt F^A3) = lam1 g1 + lam2 g2, (mu, wt E^B3) = mu1 h1 + mu2 h2
    exps = list(itertools.product(range(5), repeat=4))
    pairs = [(e, f) for e in exps for f in exps if _height(e, f) <= 4]
    assert len(pairs) == 113
    memo = {}
    with memos.cold():
        for eexp, fexp in pairs:
            rows = pbw._cross(eexp, fexp)
            got = {(A3, Weight(n1, n2), B3): c3 for A3, n1, n2, B3, c3, *_ in rows}
            want = _plain_cross(eexp, fexp, memo)
            assert list(got.items()) == list(want.items()), (eexp, fexp)
            for A3, _n1, _n2, B3, _c3, g1, g2, h1, h2 in rows:
                assert (g1, g2) == (OMEGA1.pair(_wt_f(A3)), OMEGA2.pair(_wt_f(A3)))
                assert (h1, h2) == (OMEGA1.pair(_wt_e(B3)), OMEGA2.pair(_wt_e(B3)))
            terms = pbw._mul_terms(pbw._e_word(eexp), pbw._f_word(fexp))
            assert terms == want and all(type(lam) is Weight for _A, lam, _B in terms)
