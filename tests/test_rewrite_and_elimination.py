"""The one word rewriter `linalg.rewrite` and the one elimination behind
`linalg.nullspace` and `linalg.minv`, against the implementations they
replaced, kept here as oracles: the PBW block straighteners `_straighten`
(`_straighten_e`, `_straighten_f`), the wedge rewriter `_wedge_word`, and
the two separate row reductions."""

import itertools
import random
from fractions import Fraction

from qlg2.linalg import accumulate, minv, nullspace, rewrite
from qlg2.modules import _WEDGE_RULES, BASIS_INDEX
from qlg2.pbw import _E_RULES, _F_RULES, _acc, _e_exps, _f_exps
from qlg2.scalar import ONE, ZERO

from test_sparse_kernels import _scalar


# --- the old rewriters ------------------------------------------------------------

def _straighten(seq, rules, ascending, cache):
    """The block straightener: {exponents: coefficient}, with exponents
    (b1, b2, b3, b4) of an E block or (a4, a3, a2, a1) of an F block."""
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


_E_ORACLE_MEMO = {}
_F_ORACLE_MEMO = {}


def _straighten_e(seq):
    return _straighten(seq, _E_RULES, True, _E_ORACLE_MEMO)


def _straighten_f(seq):
    return _straighten(seq, _F_RULES, False, _F_ORACLE_MEMO)


def _wedge_word(word, cache):
    got = cache.get(word)
    if got is not None:
        return got
    pos = -1
    for i in range(len(word) - 1):
        if word[i] <= word[i + 1]:
            pos = i
            break
    if pos < 0:
        out = {word: ONE} if word in BASIS_INDEX else {}
        cache[word] = out
        return out
    out = {}
    for c, repl in _WEDGE_RULES[(word[pos], word[pos + 1])]:
        for w, v in _wedge_word(word[:pos] + repl + word[pos + 2:], cache).items():
            accumulate(out, w, c * v)
    cache[word] = out
    return out


# --- the old row reductions -------------------------------------------------------

def _nullspace(rows, one):
    if not rows:
        return []
    ncols = len(rows[0])
    nrows = len(rows)
    piv_col_of_row = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_col_of_row.append(c)
        r += 1
    pivots = set(piv_col_of_row)
    basis = []
    zero = one - one
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for i, pc in enumerate(piv_col_of_row):
            vec[pc] = -rows[i][free]
        basis.append(vec)
    return basis


def _minv(a, one):
    n = len(a)
    rows = [list(r) + [one if i == j else one - one for j in range(n)]
            for i, r in enumerate(a)]
    for c in range(n):
        sel = next((i for i in range(c, n) if rows[i][c]), None)
        if sel is None:
            return None
        piv = rows.pop(sel)
        rows.insert(c, [x / piv[c] for x in piv])
        for i in range(n):
            if i != c and rows[i][c]:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[c])]
    return [r[n:] for r in rows]


# --- rewriting ----------------------------------------------------------------------

def _words(letters, longest):
    return [w for n in range(longest + 1) for w in itertools.product(letters, repeat=n)]


def test_rewrite_matches_the_block_straighteners():
    """Every letter word of length <= 5 over 1..4 under the E and the F
    table: the same terms in the same order, cold and then warm."""
    words = _words((1, 2, 3, 4), 5)
    assert len(words) == 1365
    for rules, ascending, key in ((_E_RULES, True, _e_exps), (_F_RULES, False, _f_exps)):
        memo, oracle = {}, {}
        for _ in range(2):
            for word in words:
                got = rewrite(word, rules, memo, ONE, key)
                want = _straighten(word, rules, ascending, oracle)
                assert list(got.items()) == list(want.items()), word
        assert len(memo) == len(oracle) >= len(words)


def test_rewrite_matches_the_wedge_rewriter():
    """Every word of length <= 4 over 1..3, keyed by basis index; each
    normal word is one of BASIS_WORDS."""
    words = _words((1, 2, 3), 4)
    assert len(words) == 121
    memo, oracle = {}, {}
    for word in words:
        got = rewrite(word, _WEDGE_RULES, memo, ONE, BASIS_INDEX.__getitem__)
        want = [(BASIS_INDEX[w], c) for w, c in _wedge_word(word, oracle).items()]
        assert list(got.items()) == want, word
        assert set(got) <= set(BASIS_INDEX.values())
    assert len(memo) == len(oracle)


def test_every_out_of_order_pair_is_a_rule():
    pairs = set(itertools.product((1, 2, 3, 4), repeat=2))
    assert set(_E_RULES) == {(i, j) for i, j in pairs if i > j}
    assert set(_F_RULES) == {(i, j) for i, j in pairs if i < j}
    assert set(_WEDGE_RULES) == {(i, j) for i, j in itertools.product((1, 2, 3), repeat=2)
                                 if i <= j}


# --- elimination --------------------------------------------------------------------

def _fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _matrix(rng, n, m, entry, zero):
    """An n x m matrix, often with dependent rows or zero columns: the
    deficient ones copy a combination of earlier rows into later ones."""
    rows = [[entry(rng) if rng.random() < 0.7 else zero for _ in range(m)]
            for _ in range(n)]
    if n > 1 and rng.random() < 0.5:
        a, b = entry(rng), entry(rng)
        for k in range(1, n):
            if rng.random() < 0.5:
                rows[k] = [a * x + b * y for x, y in zip(rows[0], rows[k - 1])]
    if m and rng.random() < 0.3:
        col = rng.randrange(m)
        for row in rows:
            row[col] = zero
    return rows


def _compare(rng, entry, zero, one, count):
    """`count` random n x m matrices (n in 0..5, so some row lists are
    empty) through both nullspaces, and as many square ones through both
    inverses; returns the numbers of rank-deficient and of singular ones."""
    deficient = singular = 0
    for _ in range(count):
        n, m = rng.randint(0, 5), rng.randint(1, 5)
        a = _matrix(rng, n, m, entry, zero)
        rows, old_rows = [list(r) for r in a], [list(r) for r in a]
        got = nullspace(rows, one)
        assert got == _nullspace(old_rows, one)
        assert rows == old_rows
        deficient += n > 0 and len(got) > m - n
        sq = _matrix(rng, n, n, entry, zero)
        got = minv(sq, one)
        assert got == _minv(sq, one)
        singular += got is None
    return deficient, singular


def test_elimination_matches_the_old_row_reductions_over_fractions():
    deficient, singular = _compare(random.Random(23), _fraction, Fraction(0),
                                   Fraction(1), 400)
    assert deficient > 40 and singular > 40


def test_elimination_matches_the_old_row_reductions_over_q_of_v():
    deficient, singular = _compare(random.Random(24), _scalar, ZERO, ONE, 60)
    assert deficient > 5 and singular > 5


def test_elimination_of_no_rows():
    assert nullspace([], ONE) == _nullspace([], ONE) == []
    assert minv([], ONE) == _minv([], ONE) == []
