"""The mod-Levi split on a whole bounded domain: every word F^A K_lam E^B
with at most two radical letters on each side, Levi exponents a1, b1 <= 1
and lam in {0, alpha1, alpha2}, split at the default degree cap.

The decomposition x = sum_u W(u) L_u with Levi cofactors L_u is unique, so
the right split of any element in the domain's span is the sum of its
words' splits.  The monomials pin those splits; the seeded sums of two or
three domain words test the joint peel, which handles their terms
together, against them."""

import itertools
import random

from qlg2.linalg import accumulate
from qlg2.pbw import AlgebraElement, levi_right_split, radical_monomial
from qlg2.scalar import ONE, q_power, scalar
from qlg2.weights import ALPHA1, ALPHA2, W_ZERO

_RADICAL = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]


def _domain():
    """The 1,200 words: (a4, a3, a2) and (b2, b3, b4) with at most two
    letters each, a1, b1 in {0, 1}, and three Cartan parts."""
    return [((*f, a1), lam, (b1, *e))
            for f in _RADICAL for a1 in (0, 1)
            for lam in (W_ZERO, ALPHA1, ALPHA2)
            for e in _RADICAL for b1 in (0, 1)]


def _recomposes(x, parts, monomials):
    """Do the Levi cofactors recompose x, sum_u W(u) L_u == x?  `monomials`
    holds the W(u) built so far."""
    total = {}
    for u, levi in parts:
        assert levi.is_levi(), (x, u)
        if u not in monomials:
            monomials[u] = radical_monomial(u[:3], u[3:])
        for w, c in (monomials[u] * levi).terms.items():
            accumulate(total, w, c)
    return total == x.terms


def test_split_of_every_domain_word_and_of_seeded_sums():
    words = _domain()
    assert len(words) == 1200 and len(set(words)) == 1200
    splits, monomials = {}, {}
    for w in words:
        x = AlgebraElement({w: ONE})
        parts = levi_right_split(x)
        assert parts and _recomposes(x, parts, monomials), w
        splits[w] = parts

    rng = random.Random(20240801)
    coeffs = [ONE, -ONE, scalar(2), q_power(1), -q_power(-2), scalar(3) / 4]
    for _ in range(60):
        picked = rng.sample(words, rng.choice((2, 3)))
        terms = {w: rng.choice(coeffs) for w in picked}
        x = AlgebraElement(terms)
        want = {}
        for w, c in terms.items():
            for u, levi in splits[w]:
                accumulate(want, u, levi * c)
        parts = levi_right_split(x)
        assert dict(parts) == want, terms
        assert _recomposes(x, parts, monomials), terms
