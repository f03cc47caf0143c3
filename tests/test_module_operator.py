"""The sparse ModuleOperator against the dense 8x8 representation it
replaced, kept here as the oracle: KZERO-padded lists of lists run through
the dense kernels that linalg once held (the copies in
test_sparse_kernels), and the old adjoint and entries_str bodies
transcribed onto those lists."""

import random

import pytest

from qlg2.modules import BASIS_NAMES, DEGREES, EXT, ModuleOperator
from qlg2.pbw import normal_form, star
from qlg2.scalar import KONE, KZERO, ONE, ZERO, KScalar

from test_sparse_kernels import _madd, _mmul, _mscale, _msub, _mzeros, _scalar


# --- the dense oracles --------------------------------------------------------

def _dense(op):
    m = _mzeros(8, 8, KZERO)
    for (r, c), x in op.terms.items():
        m[r][c] = x
    return m


def _dense_adjoint(mat):
    """The Gram adjoint of the dense operator, as the old body wrote it."""
    gh = EXT._gram_hat
    m = _mzeros(8, 8, KZERO)
    for r in range(8):
        for c in range(8):
            x = mat[c][r]
            if not x:
                continue
            src, dst = DEGREES[c], DEGREES[r]
            val = x * (gh[c] / gh[r])
            if src > dst:
                mono = [0, 0, 0]
                for k in range(dst + 1, src + 1):
                    mono[k - 1] += 1
                val = val * KScalar({tuple(mono): ONE})
            elif dst > src:
                mono = [0, 0, 0]
                for k in range(src + 1, dst + 1):
                    mono[k - 1] += 1
                val = val.div_kappa(tuple(mono))
            m[r][c] = val
    return m


def _dense_entries_str(mat):
    rows = []
    for r in range(8):
        for c in range(8):
            if mat[r][c]:
                rows.append(f"[{BASIS_NAMES[r]},{BASIS_NAMES[c]}] {mat[r][c].canon_str()}")
    return "; ".join(rows) if rows else "0"


def _same(op, mat):
    """op stores exactly the nonzero entries of the dense matrix, all
    KScalars."""
    assert type(op) is ModuleOperator
    assert all(type(x) is KScalar and x for x in op.terms.values())
    assert _dense(op) == mat


# --- random sparse operators --------------------------------------------------

def _kscalar(rng, monos):
    return KScalar({m: _scalar(rng) for m in rng.sample(monos, rng.randint(1, len(monos)))})


# kappa degree <= 1, so that a product stays within the cap of 2
_LINEAR = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def _operator(rng, monos=_LINEAR, allowed=lambda r, c: True):
    density = rng.choice((0.05, 0.15, 0.4))
    return ModuleOperator({(r, c): _kscalar(rng, monos)
                           for r in range(8) for c in range(8)
                           if allowed(r, c) and rng.random() < density})


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_arithmetic_matches_the_dense_kernels(seed):
    rng = random.Random(f"module-operator-{seed}")
    ops = [_operator(rng) for _ in range(3)] + [EXT.gamma(1 + seed % 3),
                                                 EXT.gamma_star(1 + seed // 4 % 3)]
    for a in ops:
        for b in ops:
            _same(a @ b, _mmul(_dense(a), _dense(b), KZERO))
            _same(a + b, _madd(_dense(a), _dense(b)))
            _same(a - b, _msub(_dense(a), _dense(b)))
        for c in (_scalar(rng), _kscalar(rng, _LINEAR), ZERO, KZERO):
            k = c if isinstance(c, KScalar) else KScalar.from_scalar(c)
            _same(a.scale(c), _mscale(k, _dense(a)))
        _same(-a, _mscale(-KONE, _dense(a)))
        assert a.entries_str() == _dense_entries_str(_dense(a))


@pytest.mark.parametrize("seed", SEEDS)
def test_adjoint_matches_the_dense_body(seed):
    rng = random.Random(f"module-operator-adjoint-{seed}")
    # entries raising the degree by 0, 1 or 2 with Scalar coefficients, so
    # the adjoint's kappa factor stays within the cap; its adjoint then
    # divides those factors back out
    op = _operator(rng, [(0, 0, 0)], lambda r, c: 0 <= DEGREES[r] - DEGREES[c] <= 2)
    adj = EXT.adjoint_wrt_gram(op)
    _same(adj, _dense_adjoint(_dense(op)))
    _same(EXT.adjoint_wrt_gram(adj), _dense_adjoint(_dense_adjoint(_dense(op))))
    assert EXT.adjoint_wrt_gram(adj) == op
    for i in (1, 2, 3):
        for g in (EXT.gamma(i), EXT.gamma_star(i)):
            _same(EXT.adjoint_wrt_gram(g), _dense_adjoint(_dense(g)))


def test_no_zero_entry_is_stored():
    rng = random.Random("module-operator-zeros")
    a = _operator(rng)
    assert a.terms
    for zero in (a - a, a + (-a), a.scale(ZERO), a.scale(KZERO),
                 ModuleOperator.zero().scale(ONE)):
        assert zero.terms == {} and zero.is_zero and not zero
        assert zero.entries_str() == "0"
    # (0, 1) and (0, 2) meet rows 1 and 2 of b, whose column-3 entries cancel
    a = ModuleOperator({(0, 1): KONE, (0, 2): KONE, (4, 2): KONE})
    b = ModuleOperator({(1, 3): KONE, (2, 3): -KONE})
    prod = a @ b
    assert prod.terms == {(4, 3): -KONE}
    assert (0, 3) not in prod.terms
    _same(prod, _mmul(_dense(a), _dense(b), KZERO))


def test_rho_and_identity_match_the_dense_forms():
    # rho converts the nonzero Scalar entries of rep, a generator's and a
    # starred generator's alike
    for x in (normal_form(("E1",)), normal_form(("F1",)), star(normal_form(("E1",)))):
        m = EXT.rep(x)
        _same(EXT.rho(x), [[KScalar.from_scalar(m.terms[r, c]) if (r, c) in m.terms
                            else KZERO for c in range(8)] for r in range(8)])
    _same(ModuleOperator.identity(),
          [[KONE if r == c else KZERO for c in range(8)] for r in range(8)])
    assert ModuleOperator.zero().terms == {}
