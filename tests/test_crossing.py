"""The letter-level crossing recursion `pbw._cross`: a digest of the old
implementation's crossings, the crossings it could not finish, and the
structural invariant that makes the recursion terminate."""

import hashlib
import importlib
import itertools

from qlg2.pbw import (
    AE_ZERO, AlgebraElement, F1, _ZEXP, _cross, levi_right_split, radical_monomial,
    root_E, root_F,
)

EXPS = [e for e in itertools.product(range(3), repeat=4) if 0 < sum(e) <= 2]


def test_crossing_digest_matches_generator_expansion():
    # recorded from the generator-word reducer that expanded every composite
    # letter; its three step-budget failures (E_b2 E_b3 F_b2^2, E_b2^2 F_b2^2,
    # E_b2^2 F_b3 F_b2) were computed there as E_b2 . (E^B' . F^A)
    h = hashlib.sha256()
    for eexp in EXPS:
        for fexp in EXPS:
            text = AlgebraElement(_cross(eexp, fexp)).canon_str()
            h.update(f"{eexp}{fexp}:{text}\n".encode())
    assert h.hexdigest()[:16] == "36ba807720012a0d"


def test_simple_e_letter_keeps_its_e_part():
    # a simple E letter crossed with any F word leaves E part empty or itself
    for eexp in ((1, 0, 0, 0), (0, 0, 0, 1)):
        for fexp in EXPS:
            assert {B for (_A, _lam, B) in _cross(eexp, fexp)} <= {_ZEXP, eexp}


def test_crossings_that_exhausted_the_step_budget():
    # each product against its right fold and its left fold, which cross
    # through different (E word, F word) pairs
    eb2, eb3, fb2, fb3 = root_E(2), root_E(3), root_F(2), root_F(3)
    for e, e_last, f_first, f in ((eb2, eb2, fb2, fb2), (eb2, eb3, fb2, fb2),
                                  (eb2, eb2, fb3, fb2)):
        product = (e * e_last) * (f_first * f)
        assert not product.is_zero
        assert product == e * (e_last * (f_first * f))
        assert product == ((e * e_last) * f_first) * f


def test_degree_three_split_recomposes():
    x = radical_monomial((1, 2, 0), (3, 0, 0)) * F1()
    parts = levi_right_split(x)
    total = AE_ZERO
    for u, levi in parts:
        total = total + radical_monomial(u[:3], u[3:]) * levi
    assert parts and total == x


def test_scalar_submodule_is_not_shadowed():
    sc = importlib.import_module("qlg2.scalar")
    import qlg2.scalar as by_statement
    assert by_statement is sc
    assert by_statement.KScalar.__module__ == "qlg2.scalar"
