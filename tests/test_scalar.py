"""Exact-field tests: canonical forms, q-integers, the kappa extension."""

import random
from fractions import Fraction

import pytest

from qlg2.scalar import (
    KONE, KZERO, ONE, ZERO, KScalar, KappaDegreeError, PoleError, kappa, laurent_q, laurent_v, q_binomial, q_factorial, q_number, q_power,
    scalar, v_power,
)


def is_polynomial(s):
    """True when the denominator of s is trivial (value in Z[v, v^-1] over Q)."""
    return s._d == (1,)


def substitute(x, k1, k2, k3):
    """Full substitution kappa_i -> k_i in the KScalar x; a ring homomorphism."""
    out = ZERO
    for (e1, e2, e3), c in x.terms.items():
        out = out + c * k1 ** e1 * k2 ** e2 * k3 ** e3
    return out


def rand_scalar(rng, deg=4):
    num = laurent_v({rng.randint(-deg, deg): rng.randint(-5, 5) for _ in range(3)})
    den = ZERO
    while den.is_zero:
        den = laurent_v({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(2)})
    return num / den


def test_q_number_values():
    assert q_number(1) == ONE
    assert q_number(2) == laurent_q({1: 1, -1: 1})
    assert q_number(0) == ZERO
    assert q_number(3) == laurent_q({2: 1, 0: 1, -2: 1})


def test_q_number_is_laurent_polynomial():
    for n in range(-6, 7):
        assert is_polynomial(q_number(n))


def test_q_number_antisymmetry():
    for n in range(0, 9):
        assert q_number(-n) == -q_number(n)


def test_q_factorial():
    assert q_factorial(0) == ONE
    assert q_factorial(1) == ONE
    # direct expansion oracles
    assert q_factorial(2) == laurent_q({1: 1, -1: 1})
    two = laurent_q({1: 1, -1: 1})
    three = laurent_q({2: 1, 0: 1, -2: 1})
    assert q_factorial(3) == two * three
    with pytest.raises(ValueError):
        q_factorial(-1)


def test_q_binomial():
    assert q_binomial(3, 1) == q_number(3)
    assert q_binomial(3, 2) == q_number(3)
    assert q_binomial(2, 1, base=2) == q_number(2, base=2)
    assert q_binomial(4, 2) == q_number(4) * q_number(3) / q_number(2)


def test_evaluate():
    assert q_number(2).evaluate(Fraction(1)) == 2
    assert (q_power(1) - q_power(-1)).evaluate(Fraction(1)) == 0
    assert q_power(2).evaluate(Fraction(1, 2)) == Fraction(1, 16)
    with pytest.raises(PoleError):
        (ONE / (q_power(1) - q_power(-1))).evaluate(Fraction(1))


def test_exact_roundtrips():
    rng = random.Random(7)
    for _ in range(200):
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        assert a + b - b == a
        if not b.is_zero:
            assert a * b / b == a
    assert (v_power(3) * v_power(-3)) == ONE


def test_field_axioms_randomized():
    rng = random.Random(11)
    for _ in range(100):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero:
            assert a * a.inv() == ONE


def test_canonical_form_equality():
    # same value built two different ways is structurally identical
    x = (q_power(2) - q_power(-2)) / (q_power(1) - q_power(-1))
    assert x == q_number(2)
    assert hash(x) == hash(q_number(2))
    assert x.canon_str() == q_number(2).canon_str()


def test_pow_and_division():
    q = q_power(1)
    assert q ** 3 == q_power(3)
    assert q ** -2 == q_power(-2)
    assert (scalar(Fraction(3, 4)) * scalar(Fraction(4, 3))) == ONE


def test_kappa_ring():
    k1, k2, k3 = kappa(1), kappa(2), kappa(3)
    x = k1 * q_number(2) + k2
    y = k3 - scalar(5)
    assert (x + y) - y == x
    assert x * KONE == x
    assert x * KZERO == KZERO
    with pytest.raises(KappaDegreeError):
        (k1 * k2) * k3


def test_kappa_substitution_homomorphism():
    rng = random.Random(3)
    vals = [rand_scalar(rng, deg=2) for _ in range(3)]
    for _ in range(25):
        a = KScalar.from_scalar(rand_scalar(rng, deg=2)) + rand_scalar(rng, 2) * kappa(rng.randint(1, 3))
        b = KScalar.from_scalar(rand_scalar(rng, deg=2)) + rand_scalar(rng, 2) * kappa(rng.randint(1, 3))
        sa = substitute(a, *vals)
        sb = substitute(b, *vals)
        assert substitute(a * b, *vals) == sa * sb
        assert substitute(a + b, *vals) == sa + sb


def test_kappa_ratio_substitution():
    k1, k2, k3 = kappa(1), kappa(2), kappa(3)
    s2, s3 = q_power(-2), q_power(-4)
    x = k2 * q_number(2) + k3 + k1
    y = x.substitute_ratios(s2, s3)
    assert y == k1 * (q_number(2) * s2 + s3 + 1)


def test_kappa_division():
    k1 = kappa(1)
    x = k1 * q_number(2)
    assert x.div_kappa((1, 0, 0)) == KScalar.from_scalar(q_number(2))
    with pytest.raises(ValueError):
        (k1 + KONE).div_kappa((1, 0, 0))
