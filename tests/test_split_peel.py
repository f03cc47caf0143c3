"""The mod-Levi split as a triangular peel: the leading-word order behind
stage 1, the block structure behind stage 2, exact round trips against the
uniqueness of the decomposition, and the guards."""

import itertools

import pytest

from qlg2 import pbw
from qlg2.pbw import (
    AE_ZERO, EngineError, F1, E1, K, NotInSpanError, levi_right_split,
    radical_monomial, root_E, root_F, unit, xi_E, xi_E_star,
)
from qlg2.scalar import BR2, Q_SC, q_power
from qlg2.weights import W_ZERO

import memos
from test_pbw import weight_components


def _triples(max_deg):
    return [e for e in itertools.product(range(max_deg + 1), repeat=3)
            if sum(e) <= max_deg]


def _order_key(word):
    """Letter count, then (a2, a3, a4, b2, b3, b4, a1, b1)."""
    (a4, a3, a2, a1), _lam, (b1, b2, b3, b4) = word
    return (a4 + a3 + a2 + a1 + b1 + b2 + b3 + b4,
            a2, a3, a4, b2, b3, b4, a1, b1)


def test_letter_columns_are_led_by_their_predicted_word():
    n = 0
    for s in _triples(2):
        for t in _triples(2):
            for a1, b1 in itertools.product(range(3), repeat=2):
                col = unit()
                for j, e in ((4, s[2]), (3, s[1]), (2, s[0])):
                    col = col * root_F(j) ** e
                for j, e in ((2, t[0]), (3, t[1]), (4, t[2])):
                    col = col * root_E(j) ** e
                col = col * root_F(1) ** a1 * root_E(1) ** b1
                lead = ((s[2], s[1], s[0], a1), W_ZERO, (b1, t[0], t[1], t[2]))
                assert lead in col.terms
                top = _order_key(lead)
                assert all(_order_key(w) < top for w in col.terms if w != lead)
                n += 1
    assert n == 900


CLASS_2 = [(0, 2, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0)]
CLASS_4 = [(0, 2, 0, 0, 2, 0), (0, 2, 0, 1, 0, 1),
           (1, 0, 1, 0, 2, 0), (1, 0, 1, 1, 0, 1)]


@pytest.mark.parametrize("members", [CLASS_2, CLASS_4])
def test_split_classes_are_real_blocks(members):
    kappa = pbw._split_class(members[0])
    assert sorted(pbw._class_members(kappa)) == members
    # every starred monomial and some other member of its class reach each
    # other in letters, so no order on single monomials is triangular
    for u in members:
        assert any(u in pbw._starred_letters(v) and v in pbw._starred_letters(u)
                   for v in members if v != u)


def _levi_samples():
    return [
        F1() * K(0, 1) * E1() + q_power(3) * unit(),
        K(1, -1) - Q_SC * (F1() * F1()),
        BR2 * (K(0, 1) * E1()) + F1() * K(-1, 0),
        q_power(-2) * (F1() * E1() * E1()) + K(2, -1),
    ]


def _round_trip(cofactors):
    x = AE_ZERO
    for u, levi in cofactors.items():
        x = x + radical_monomial(u[:3], u[3:]) * levi
    got = dict(levi_right_split(x))
    assert got == cofactors


@pytest.mark.parametrize("members", [CLASS_2, CLASS_4])
def test_round_trip_through_a_class_block(members):
    _round_trip(dict(zip(members, _levi_samples())))


def test_round_trip_with_several_weight_components():
    cofactors = {
        (0, 0, 0, 0, 0, 0): F1() * E1() - unit(),
        (1, 0, 0, 0, 0, 0): K(0, 1),
        (0, 1, 0, 0, 0, 1): q_power(2) * F1() + E1(),
        (0, 0, 1, 1, 0, 0): BR2 * K(1, 0) * E1(),
        (1, 0, 1, 0, 0, 0): F1() * F1(),
        (0, 2, 0, 0, 0, 0): K(-1, 1),
        (0, 0, 0, 0, 1, 1): Q_SC * unit(),
    }
    x = AE_ZERO
    for u, levi in cofactors.items():
        x = x + radical_monomial(u[:3], u[3:]) * levi
    assert len(weight_components(x)) >= 4
    assert dict(levi_right_split(x)) == cofactors


def test_split_output_is_sorted_and_recomposes():
    x = xi_E(1) * xi_E_star(2) * xi_E(3) + q_power(1) * (xi_E_star(1) * xi_E(2))
    parts = levi_right_split(x)
    assert [u for u, _ in parts] == sorted(u for u, _ in parts)
    total = AE_ZERO
    for u, levi in parts:
        assert levi.is_levi()
        total = total + radical_monomial(u[:3], u[3:]) * levi
    assert total == x


def test_starred_monomial_memo_holds_one_peeled_form_per_u():
    # _U_CACHE is the one memo of the starred monomials: keyed by u, it holds
    # radical_monomial(u) in the letter basis, which the split solves against
    us = [s + t for s in _triples(3) for t in _triples(3)]
    assert len(us) == 400 and len({pbw._split_class(u) for u in us}) == 256
    with memos.cold():
        for u in us:
            got = pbw._starred_letters(u)
            assert got == pbw._peel(radical_monomial(u[:3], u[3:]).terms)
            assert pbw._starred_letters(u) is got
        assert len(pbw._U_CACHE) == len(us) and set(pbw._U_CACHE) == set(us)


def test_degree_cap_gate_raises_value_error():
    x = xi_E(1) * xi_E(2)
    with pytest.raises(ValueError, match="exceeds degree cap 1"):
        levi_right_split(x, degree_cap=1)
    assert levi_right_split(x, degree_cap=2)


def test_column_not_led_by_its_word_raises(monkeypatch):
    fexp, eexp = (0, 0, 1, 0), (0, 1, 0, 0)
    col = pbw._letter_column(fexp, eexp)
    lead = (fexp, W_ZERO, eexp)
    monkeypatch.delitem(pbw._BASE_CACHE, (fexp, eexp))
    # a word outranking the predicted one: one more F_b2 letter
    monkeypatch.setattr(pbw, "_mul_terms",
                        lambda a, b: {**col, ((0, 0, 2, 0), W_ZERO, eexp): col[lead]})
    with pytest.raises(EngineError, match="not led by its own word"):
        pbw._letter_column(fexp, eexp)


def test_singular_class_block_raises(monkeypatch):
    u = (1, 0, 0, 0, 0, 0)
    letters = dict(pbw._starred_letters(u))
    letters.pop(u)
    monkeypatch.setitem(pbw._U_CACHE, u, letters)
    with pytest.raises(NotInSpanError, match="singular split block"):
        levi_right_split(xi_E_star(1))
