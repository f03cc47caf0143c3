"""PBW engine tests: normal forms, Hopf structure, root vectors, the
mod-Levi decomposition."""

import itertools
import random

import pytest

from qlg2 import pbw
from qlg2.scalar import BR2, ONE, Q_SC, q_power
from qlg2.weights import ALPHA1, ALPHA2, BETA, W_ZERO, Weight, pair
from qlg2.pbw import (
    AE_ONE, AE_ZERO, E1, E2, F1, F2, K, _wt_e, _wt_f, adjoint_action, antipode,
    coproduct, coproduct_word, counit, defining_relator_words, is_levi,
    levi_right_split, normal_form, root_E, root_F, serre_relator_words,
    serre_relators, star, token_name, unit, word_weight, xi_E, xi_E_star,
)

Q = Q_SC


# --- weights ---------------------------------------------------------------

def _beta_sum(exp, roots):
    """Weight of the exponent vector `exp` over the roots beta_j, j in
    `roots`, summed coordinate by coordinate."""
    return Weight(sum(a * BETA[j][0] for a, j in zip(exp, roots)),
                  sum(a * BETA[j][1] for a, j in zip(exp, roots)))


def test_beta_weight_memo_matches_direct_sum():
    vecs = list(itertools.product(range(4), repeat=4))
    # the direct sums once per vector, in E and F order, off the memo
    on_e = {e: _beta_sum(e, (1, 2, 3, 4)) for e in vecs}
    on_f = {f: _beta_sum(f, (4, 3, 2, 1)) for f in vecs}
    pbw._WT_CACHE.clear()
    for _memo in ("cold", "warm"):
        for e in vecs:
            assert _wt_e(e) == on_e[e]
            assert _wt_f(e) == on_f[e]
        for f, e in itertools.product(vecs, repeat=2):
            assert word_weight((f, W_ZERO, e)) == on_e[e] - on_f[f]
    # one entry per exponent vector, shared by the E and F sides
    assert len(pbw._WT_CACHE) == len(vecs)

def test_gram_matrix():
    assert pair((1, 0), (1, 0)) == 1
    assert pair((1, 0), (0, 1)) == 1
    assert pair((0, 1), (0, 1)) == 2
    assert ALPHA1.pair(ALPHA1) == 2
    assert ALPHA1.pair(ALPHA2) == -2
    assert ALPHA2.pair(ALPHA2) == 4


def test_two_rho_pairings():
    from qlg2.weights import LAMBDA_V, RHO
    two_rho = 2 * RHO
    assert [two_rho.pair(l) for l in LAMBDA_V] == [4, 2, -2, -4]


# --- defining relations ----------------------------------------------------

def test_serre_relators_vanish():
    for r in serre_relators():
        assert r.is_zero


def test_defining_relators_vanish():
    for rel in defining_relator_words():
        total = AE_ZERO
        for c, w in rel:
            total = total + normal_form(w, c)
        assert total.is_zero


def test_commutator_e1_f1():
    lhs = E1() * F1()
    rhs = F1() * E1() + (K(ALPHA1) - K(-ALPHA1)) * (ONE / Q)
    assert lhs == rhs


def test_cartan_moves():
    assert K(ALPHA1) * E2() == q_power(-2) * (E2() * K(ALPHA1))
    assert K(ALPHA1) * K(-ALPHA1) == unit()
    assert K(ALPHA1) * F1() == q_power(-2) * (F1() * K(ALPHA1))


def test_normal_form_idempotent_and_linear():
    x = normal_form(("E1", "F1", "E2", ("K", 1, 0)))
    # re-reducing each PBW word of x returns x itself
    rebuilt = AE_ZERO
    for (fexp, lam, eexp), c in x.terms.items():
        w = []
        for idx, j in ((0, 4), (1, 3), (2, 2), (3, 1)):
            w += [("F", j)] * fexp[idx]
        mono = root_F(4) ** fexp[0] * root_F(3) ** fexp[1] * root_F(2) ** fexp[2] \
            * root_F(1) ** fexp[3] * K(lam) * root_E(1) ** eexp[0] \
            * root_E(2) ** eexp[1] * root_E(3) ** eexp[2] * root_E(4) ** eexp[3]
        rebuilt = rebuilt + c * mono
    assert rebuilt == x


# --- root vectors ----------------------------------------------------------

def test_root_vector_closed_forms():
    e2 = (ONE / BR2) * (E1() * E1() * E2()) - q_power(-1) * (E1() * E2() * E1()) \
        + (q_power(-2) / BR2) * (E2() * E1() * E1())
    assert e2 == root_E(2)
    e3 = E1() * E2() - q_power(-2) * (E2() * E1())
    assert e3 == root_E(3)
    f2 = (ONE / BR2) * (F2() * F1() * F1()) - q_power(1) * (F1() * F2() * F1()) \
        + (q_power(2) / BR2) * (F1() * F1() * F2())
    assert f2 == root_F(2)
    f3 = F2() * F1() - q_power(2) * (F1() * F2())
    assert f3 == root_F(3)


def test_root_vector_weights():
    for j in range(1, 5):
        (w,) = root_E(j).terms
        assert word_weight(w) == BETA[j]
        (w,) = root_F(j).terms
        assert word_weight(w) == -BETA[j]


def _root_from_generators(j):
    from qlg2.scalar import ONE as one
    if j == 1:
        return normal_form(("E1",))
    if j == 4:
        return normal_form(("E2",))
    if j == 3:
        return normal_form(("E1", "E2")) - q_power(-2) * normal_form(("E2", "E1"))
    return (one / BR2) * normal_form(("E1", "E1", "E2")) \
        - q_power(-1) * normal_form(("E1", "E2", "E1")) \
        + (q_power(-2) / BR2) * normal_form(("E2", "E1", "E1"))


def test_structure_constants_recovered_from_generators():
    # the six root-vector commutators, recomputed through products of pure
    # generator words, agree with the middle-term closed forms
    pairings = {(1, 2): 2, (1, 3): 0, (1, 4): -2, (2, 3): 2, (2, 4): 0, (3, 4): 2}
    middle = {
        (1, 2): AE_ZERO,
        (1, 3): BR2 * root_E(2),
        (1, 4): root_E(3),
        (2, 3): AE_ZERO,
        (2, 4): (Q * q_power(1) / BR2) * (root_E(3) * root_E(3)),
        (3, 4): AE_ZERO,
    }
    gens = {j: _root_from_generators(j) for j in (1, 2, 3, 4)}
    for (j, k), p in pairings.items():
        lhs = gens[j] * gens[k] - q_power(p) * (gens[k] * gens[j])
        assert lhs == middle[(j, k)], (j, k)


def test_sq_uplus_relations():
    assert xi_E(1) * xi_E(2) == q_power(2) * (xi_E(2) * xi_E(1))
    assert xi_E(2) * xi_E(3) == q_power(2) * (xi_E(3) * xi_E(2))
    rhs = xi_E(3) * xi_E(1) + (Q * q_power(1) / BR2) * (xi_E(2) * xi_E(2))
    assert xi_E(1) * xi_E(3) == rhs


# --- Hopf structure --------------------------------------------------------

def test_coproduct_generators():
    assert coproduct(("K", 1, 0)) == [(K(1, 0), K(1, 0))]
    pairs = coproduct("E1")
    assert pairs == [(E1(), AE_ONE), (K(ALPHA1), E1())]
    pairs = coproduct_word(())
    assert pairs == [(AE_ONE, AE_ONE)]


def test_hopf_antipode_axiom_on_generators():
    # m (S x id) Delta = counit . 1
    for tok in ("E1", "E2", "F1", "F2", ("K", 1, -1)):
        total = AE_ZERO
        for a, b in coproduct(tok):
            total = total + antipode(a) * b
        expected = counit(normal_form((tok,))) * unit()
        assert total == expected


def test_hopf_antipode_axiom_on_words():
    # the multiplicative extension satisfies the same axiom
    for word in (("E1", "F1"), ("E2", "E1"), (("K", 1, 0), "F2", "E1")):
        total = AE_ZERO
        for a, b in coproduct_word(word):
            total = total + antipode(a) * b
        expected = counit(normal_form(word)) * unit()
        assert total == expected


def test_antipode_antihomomorphism():
    rng = random.Random(5)
    toks = ["E1", "E2", "F1", "F2", ("K", 1, 0), ("K", 0, -1)]
    for _ in range(12):
        w1 = tuple(rng.choice(toks) for _ in range(2))
        w2 = tuple(rng.choice(toks) for _ in range(2))
        x, y = normal_form(w1), normal_form(w2)
        assert antipode(x * y) == antipode(y) * antipode(x)


def test_star_structure():
    assert star(E1()) == F1() * K(ALPHA1)
    assert star(E2()) == F2() * K(ALPHA2)
    assert star(F1()) == K(-ALPHA1) * E1()
    assert star(K(2, -1)) == K(2, -1)
    # star of the long-root radical letter
    assert star(root_E(4)) == F2() * K(ALPHA2)


def test_star_involution_and_antimultiplicativity():
    rng = random.Random(6)
    toks = ["E1", "E2", "F1", "F2", ("K", 1, 0)]
    for _ in range(12):
        w1 = tuple(rng.choice(toks) for _ in range(2))
        w2 = tuple(rng.choice(toks) for _ in range(2))
        x, y = normal_form(w1), normal_form(w2)
        assert star(star(x)) == x
        assert star(x * y) == star(y) * star(x)


# --- adjoint action --------------------------------------------------------

LEVI_UP_TABLE = [
    (("K", 2, -1), 1, q_power(2)), (("K", 2, -1), 2, ONE), (("K", 2, -1), 3, q_power(-2)),
    (("K", -2, 2), 1, ONE), (("K", -2, 2), 2, q_power(2)), (("K", -2, 2), 3, q_power(4)),
]


def test_levi_up_cartan_rows():
    for tok, i, c in LEVI_UP_TABLE:
        assert adjoint_action(tok, xi_E(i)) == c * xi_E(i)


def test_levi_up_e1_f1_rows():
    assert adjoint_action("E1", xi_E(1)).is_zero
    assert adjoint_action("E1", xi_E(2)) == BR2 * xi_E(1)
    assert adjoint_action("E1", xi_E(3)) == xi_E(2)
    assert adjoint_action("F1", xi_E(1)) == xi_E(2)
    assert adjoint_action("F1", xi_E(2)) == BR2 * xi_E(3)
    assert adjoint_action("F1", xi_E(3)).is_zero


def test_adjoint_action_is_algebra_action():
    rng = random.Random(9)
    toks = ["E1", "F1", ("K", 1, 0)]
    for _ in range(8):
        g1, g2 = rng.choice(toks), rng.choice(toks)
        y = normal_form(tuple(rng.choice(["E2", "F2", "E1"]) for _ in range(2)))
        assert adjoint_action((g1, g2), y) == adjoint_action(g1, adjoint_action(g2, y))


# --- Levi membership and the right split -----------------------------------

def test_is_levi():
    assert is_levi(F1() * K(0, 1) * E1())
    assert not is_levi(xi_E(2))
    x = xi_E(3) * star(xi_E(3)) - q_power(-4) * (star(xi_E(3)) * xi_E(3))
    assert is_levi(x)


def test_split_levi_letter_already_right():
    x = xi_E_star(2) * xi_E(1) * E1()
    parts = dict(levi_right_split(x))
    assert set(parts) == {(0, 1, 0, 1, 0, 0)}
    assert parts[(0, 1, 0, 1, 0, 0)] == E1()


def test_split_levi_star_letter():
    # Eb1* Eb4 = q^-2 Eb4 Eb1*
    x = star(root_E(1)) * root_E(4)
    parts = dict(levi_right_split(x))
    assert set(parts) == {(0, 0, 0, 0, 0, 1)}
    assert parts[(0, 0, 0, 0, 0, 1)] == q_power(-2) * star(root_E(1))


REL_XI_XIS = {
    (1, 1): {(1, 0, 0, 1, 0, 0): q_power(-4),
             (0, 1, 0, 0, 1, 0): -(Q * q_power(-2)),
             (0, 0, 1, 0, 0, 1): Q * Q * BR2 * q_power(-3)},
    (2, 2): {(0, 1, 0, 0, 1, 0): q_power(-2),
             (0, 0, 1, 0, 0, 1): -(Q * BR2 * BR2 * q_power(-4))},
    (3, 3): {(0, 0, 1, 0, 0, 1): q_power(-4)},
    (1, 2): {(0, 1, 0, 1, 0, 0): q_power(-2),
             (0, 0, 1, 0, 1, 0): -(Q * BR2 * q_power(-2))},
    (1, 3): {(0, 0, 1, 1, 0, 0): ONE},
    (2, 3): {(0, 0, 1, 0, 1, 0): q_power(-2)},
}


@pytest.mark.parametrize("ij", sorted(REL_XI_XIS))
def test_mod_levi_commutation_table(ij):
    i, j = ij
    x = xi_E(i) * xi_E_star(j)
    parts = dict(levi_right_split(x))
    expected = REL_XI_XIS[ij]
    radical = {u: l for u, l in parts.items() if u != (0, 0, 0, 0, 0, 0)}
    assert set(radical) == set(expected)
    for u, c in expected.items():
        assert radical[u] == c * unit()
    # everything else is a pure Levi remainder
    for u, l in parts.items():
        if u == (0, 0, 0, 0, 0, 0):
            assert is_levi(l)


def test_split_recomposes_exactly():
    from qlg2.pbw import radical_monomial
    x = xi_E(1) * xi_E_star(1) + q_power(3) * (xi_E(2) * xi_E_star(3))
    total = AE_ZERO
    for u, l in levi_right_split(x):
        total = total + radical_monomial(u[:3], u[3:]) * l
    assert total == x


# --- randomized probes ------------------------------------------------------

TOKENS = ["E1", "E2", "F1", "F2", ("K", 1, 0), ("K", -1, 1), ("K", 0, -1)]


def rand_word(rng, n):
    return tuple(rng.choice(TOKENS) for _ in range(n))


def test_associativity_probe():
    rng = random.Random(20240801)
    for _ in range(60):
        a = normal_form(rand_word(rng, 3))
        b = normal_form(rand_word(rng, 3))
        c = normal_form(rand_word(rng, 2))
        assert (a * b) * c == a * (b * c)


def test_relator_insertion_probe():
    # a relator's words inserted between two random words: the sum of
    # c normal_form(a + u + b) over its terms (c, u) vanishes.  The product
    # with a reduced relator from serre_relators() is zero before any
    # rewriting, so it would test nothing.
    rng = random.Random(77)
    rels = serre_relator_words() + defining_relator_words()
    assert len(rels) == 16
    for _ in range(10):
        a, b = rand_word(rng, 2), rand_word(rng, 2)
        for rel in rels:
            total = sum((normal_form(a + u + b, c) for c, u in rel), AE_ZERO)
            assert total.is_zero, (a, rel, b)


def test_unknown_token_rejected():
    with pytest.raises(ValueError):
        normal_form(("E3",))
    with pytest.raises(ValueError):
        coproduct("X1")


@pytest.mark.parametrize("tok", [
    ("K", 1.9, -0.5), ("K", 1), ("K", (1, 0, 7)), ("K",), ("K", True, 0),
    ("K", (1, False)), ("K", "1", 0), ("K", 1, 0, 0), ("K", [1, 0]),
], ids=repr)
def test_malformed_cartan_token_rejected(tok):
    for call in (lambda: normal_form((tok,)), lambda: coproduct(tok),
                 lambda: adjoint_action(tok, E1())):
        with pytest.raises(ValueError, match="malformed Cartan token"):
            call()


@pytest.mark.parametrize("tok", [("K", True, 0), ("K", 1.0, 0), ("K", [1, 0])],
                         ids=repr)
def test_malformed_cartan_token_rejected_on_a_warm_memo(tok):
    # ("K", True, 0) and ("K", 1.0, 0) equal the warm key ("K", 1, 0), and
    # ("K", [1, 0]) is unhashable: each is checked before the memo lookup
    normal_form((("K", 1, 0),))
    keys = set(pbw._NF_CACHE)
    with pytest.raises(ValueError, match="malformed Cartan token"):
        normal_form((tok,))
    with pytest.raises(ValueError, match="malformed Cartan token"):
        normal_form(("E1", tok))
    assert set(pbw._NF_CACHE) == keys
    assert normal_form((("K", (1, 0)),)) == K(1, 0)


def test_cartan_token_forms():
    assert normal_form((("K", 2, -1),)) == normal_form((("K", (2, -1)),)) == K(ALPHA1)
    assert token_name(("K", (1, 0))) == token_name(("K", 1, 0)) == "K(1, 0)"


def test_weight_additivity():
    rng = random.Random(13)
    for _ in range(20):
        x = normal_form(rand_word(rng, 3))
        y = normal_form(rand_word(rng, 3))
        wx = x.weight_components()
        wy = y.weight_components()
        for mx, cx in wx.items():
            for my, cy in wy.items():
                prod = cx * cy
                for w in prod.terms:
                    assert word_weight(w) == mx + my
