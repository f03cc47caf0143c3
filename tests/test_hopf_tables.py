"""Differential tests for the derived Hopf tables.

The F-side PBW tables, the wedge relation vectors, the root-vector
matrices on V and the Sweedler-sum actions are computed from one source
each (the E-side tables, the wedge rules, the simple-letter expansions of
`pbw`, `pbw.coproduct`).  The literals and hand-branched formulas below are
the written-out forms they replace; each derived table must agree with them
exactly.  `Scalar.bar` (v -> v^-1) is tested on its own.
"""

import random
from fractions import Fraction

import pytest

from qlg2 import pbw
from qlg2.modules import EXT, FUND, ModuleOperator, _pair_index, wedge_relation_vectors
from qlg2.parthasarathy import _ad_tilde_S
from qlg2.pbw import E1, E2, F1, F2, K, antipode, normal_form, star
from qlg2.scalar import (
    BR2, ONE, Q_SC, ZERO, KScalar, PoleError, laurent_v, q_power as _qp,
)
from qlg2.weights import ALPHA1, ALPHA2

from test_scalar import is_polynomial

# --- written-out tables ----------------------------------------------------

F_RULES_LITERAL = {
    (1, 2): ((_qp(2), (2, 1)),),
    (1, 3): ((ONE, (3, 1)), (-BR2, (2,))),
    (1, 4): ((_qp(-2), (4, 1)), (-_qp(-2), (3,))),
    (2, 3): ((_qp(2), (3, 2)),),
    (2, 4): ((ONE, (4, 2)), (Q_SC * _qp(-1) / BR2, (3, 3))),
    (3, 4): ((_qp(2), (4, 3)),),
}

EXPAND_F_LITERAL = {
    2: ((ONE / BR2, (4, 1, 1)),
        (-_qp(1), (1, 4, 1)),
        (_qp(2) / BR2, (1, 1, 4))),
    3: ((ONE, (4, 1)),
        (-_qp(2), (1, 4))),
}


def fundamental_root_matrices_literal():
    """E_beta_j and F_beta_j on V, the composite ones written out in the
    generator matrices."""
    e1, e2, f1, f2 = FUND.E1, FUND.E2, FUND.F1, FUND.F2
    inv2 = ONE / BR2
    root_e = {
        1: e1, 4: e2,
        3: e1 @ e2 - (e2 @ e1).scale(_qp(-2)),
        2: ((e1 @ e1 @ e2).scale(inv2) - (e1 @ e2 @ e1).scale(_qp(-1))
            + (e2 @ e1 @ e1).scale(_qp(-2) * inv2))}
    root_f = {
        1: f1, 4: f2,
        3: f2 @ f1 - (f1 @ f2).scale(_qp(2)),
        2: ((f2 @ f1 @ f1).scale(inv2) - (f1 @ f2 @ f1).scale(_qp(1))
            + (f1 @ f1 @ f2).scale(_qp(2) * inv2))}
    return root_e, root_f


def wedge_relation_vectors_literal():
    out = []
    for entries in (
            {(1, 1): ONE},
            {(3, 3): ONE},
            {(2, 2): ONE, (1, 3): -(Q_SC * _qp(1) / BR2)},
            {(1, 2): ONE, (2, 1): _qp(2)},
            {(1, 3): ONE, (3, 1): ONE},
            {(2, 3): ONE, (3, 2): _qp(2)}):
        g = [ZERO] * 9
        for (i, j), c in entries.items():
            g[_pair_index(i, j)] = c
        out.append(g)
    return out


def test_f_rules_are_the_omega_image_of_the_e_rules():
    assert pbw._F_RULES == F_RULES_LITERAL
    assert list(pbw._F_RULES) == list(F_RULES_LITERAL)


def test_f_expansions_are_the_omega_image_of_the_e_expansions():
    assert pbw._EXPAND_F == EXPAND_F_LITERAL


def test_fundamental_root_matrices_multiply_out_the_expansions():
    root_e, root_f = fundamental_root_matrices_literal()
    assert FUND._roots == {"E": root_e, "F": root_f}
    assert all(not m.is_zero for m in (*root_e.values(), *root_f.values()))


def test_wedge_relation_vectors_read_off_the_wedge_rules():
    assert wedge_relation_vectors() == wedge_relation_vectors_literal()


# --- hand-branched actions -------------------------------------------------

_K1, _K1I, _K2, _K2I = K(ALPHA1), K(-ALPHA1), K(ALPHA2), K(-ALPHA2)


def ad_token_oracle(tok, y):
    lam = pbw.token_weight(tok)
    if lam is not None:
        return K(lam) * y * K(-lam)
    return {
        "E1": lambda: E1() * y - _K1 * y * _K1I * E1(),
        "E2": lambda: E2() * y - _K2 * y * _K2I * E2(),
        "F1": lambda: F1() * y * _K1 - y * F1() * _K1,
        "F2": lambda: F2() * y * _K2 - y * F2() * _K2,
    }[tok]()


def _op(m):
    """The operator on Lambda of a Scalar matrix."""
    return ModuleOperator({rc: KScalar.from_scalar(x) for rc, x in m.terms.items()})


def ad_tilde_s_oracle(tok, op):
    lam = pbw.token_weight(tok)
    if lam is not None:
        return _op(EXT.K(-lam)) @ op @ _op(EXT.K(lam))
    e1, f1 = normal_form(("E1",)), normal_form(("F1",))
    if tok == "E1":
        return (EXT.rho(antipode(e1)) @ op
                + EXT.rho(K(-2, 1)) @ op @ EXT.rho(e1))
    return (EXT.rho(antipode(f1)) @ op @ EXT.rho(K(-2, 1))
            + op @ EXT.rho(f1))


GENERATOR_TOKENS = ("E1", "E2", "F1", "F2", ("K", *ALPHA1), ("K", *ALPHA2))
LEVI_TOKENS = ("E1", "F1", ("K", 2, -1), ("K", -2, 2))


def _random_normal_forms(n, seed):
    rng = random.Random(seed)
    toks = ["E1", "E2", "F1", "F2", ("K", 1, 0), ("K", 0, -1)]
    return [normal_form(tuple(rng.choice(toks) for _ in range(rng.randint(0, 3))),
                        laurent_v({rng.randint(-2, 2): rng.randint(1, 4)}))
            for _ in range(n)]


@pytest.mark.parametrize("tok", GENERATOR_TOKENS, ids=pbw.token_name)
def test_ad_token_matches_hand_branches(tok):
    for y in _random_normal_forms(50, 61):
        assert pbw.adjoint_action(tok, y) == ad_token_oracle(tok, y)


def test_ad_tilde_s_matches_hand_branches():
    ops = [EXT.gamma(i) for i in (1, 2, 3)] + [EXT.gamma_star(i) for i in (1, 2, 3)]
    ops.append(ModuleOperator.identity())
    for tok in LEVI_TOKENS:
        assert _ad_tilde_S(tok, ops) == [ad_tilde_s_oracle(tok, op) for op in ops]


def test_inverse_antipode_through_star():
    def s_inv(x):
        return star(antipode(star(x)))

    e1, f1 = normal_form(("E1",)), normal_form(("F1",))
    assert s_inv(e1) == -(e1 * _K1I)
    assert s_inv(f1) == -(_K1 * f1)
    for y in _random_normal_forms(10, 62):
        assert antipode(s_inv(y)) == y


def test_token_matrices_match_hand_branches():
    for tok, m, m_star in (
            ("E1", EXT.E1, EXT.F1 @ EXT.K(ALPHA1)),
            ("F1", EXT.F1, EXT.K(-ALPHA1) @ EXT.E1),
            (("K", 2, -1), EXT.K((2, -1)), EXT.K((2, -1)))):
        assert EXT.rep_token(tok) == m
        assert EXT.rep(star(normal_form((tok,)))) == m_star


# --- Scalar.bar ------------------------------------------------------------

def _scalars(n, seed):
    """Non-zero rational functions num/den with signed integer coefficients,
    den of degree 1 to 3."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        num = laurent_v({rng.randint(-4, 4): rng.randint(-6, 6) for _ in range(3)})
        den = laurent_v({e: rng.randint(-5, 5) for e in range(rng.randint(2, 4))})
        if not num.is_zero and not den.is_zero:
            out.append(num / den)
    return out


def test_bar_inputs_are_rich():
    # most denominators survive cancellation; both sign cases of the reversed
    # numerator's and denominator's leading coefficients (the constant
    # terms) occur, and so do values with a negative leading coefficient,
    # which the sign field carries
    xs = _scalars(60, 71)
    assert sum(not is_polynomial(x) for x in xs) >= 40
    assert any(x._d[0] < 0 for x in xs) and any(x._d[0] > 0 for x in xs)
    assert any(x._n[0] < 0 for x in xs) and any(x._n[0] > 0 for x in xs)
    assert any(x._g < 0 for x in xs)


def test_bar_is_an_involution():
    for x in _scalars(60, 72):
        assert x.bar().bar() == x


def test_bar_evaluates_at_the_inverse_point():
    checked = 0
    for x in _scalars(60, 73):
        for v0 in (Fraction(2), Fraction(3, 5), Fraction(-7, 4)):
            try:
                want = x.evaluate(1 / v0)
            except PoleError:
                continue
            assert x.bar().evaluate(v0) == want
            checked += 1
    assert checked >= 170


def test_bar_is_a_field_automorphism():
    xs = _scalars(40, 74)
    for x, y in zip(xs, xs[1:]):
        assert (x + y).bar() == x.bar() + y.bar()
        assert (x * y).bar() == x.bar() * y.bar()
        assert (x / y).bar() == x.bar() / y.bar()
    assert ZERO.bar() == ZERO and ONE.bar() == ONE
    assert _qp(3).bar() == _qp(-3) and BR2.bar() == BR2 and Q_SC.bar() == -Q_SC


def test_bar_is_canonical():
    # the barred value built directly from the mirrored pieces is the same
    # four fields: equal, equally hashed, equally printed
    rng = random.Random(75)
    for _ in range(40):
        n = {rng.randint(-4, 4): rng.randint(-6, 6) for _ in range(3)}
        d = {e: rng.randint(-5, 5) for e in range(rng.randint(2, 4))}
        if not any(n.values()) or not any(d.values()):
            continue
        x = laurent_v(n) / laurent_v(d)
        mirrored = (laurent_v({-e: c for e, c in n.items()})
                    / laurent_v({-e: c for e, c in d.items()}))
        assert x.bar() == mirrored
        assert hash(x.bar()) == hash(mirrored)
        assert x.bar().canon_str() == mirrored.canon_str()
