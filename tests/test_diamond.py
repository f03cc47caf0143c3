"""The diamond lemma for the PBW engine: its product is associative on all
words, not only on the seeded triples of `eq-comm-rel-uqg`.

Bergman's diamond lemma (G. M. Bergman, "The diamond lemma for ring
theory", Adv. Math. 29 (1978) 178-218, Theorem 1.2).  Let S be a reduction
system on the free algebra k<X>, each rule sending a word W to a linear
combination f of words, and let <= be a semigroup partial order on words
with the descending chain condition, compatible with S (every word of f is
< W).  If every ambiguity of S resolves, then every element has one normal
form, the irreducible words are a k-basis of k<X>/I, where I is the ideal
of the W - f, and the product of that algebra is the normal form of the
concatenation.

Here k = Q(v), and the letters are the eight root-vector letters F_b4 ..
F_b1, E_b1 .. E_b4 and the Cartan letters K_lam.  A pair xy is reducible
when x comes after y in the order F_b4 ... F_b1 K E_b1 ... E_b4, or when
both are K letters (K_lam K_mu = K_(lam+mu)); its rule is the engine's
product x.y, which is the Cartan move, crossing or straightening rule of
the `pbw` docstring.  Every rule has a word of length two on its left, so
there are no inclusion ambiguities, and an overlap ambiguity is a word xyz
with xy and yz both reducible.  The Cartan letters are K_lam for lam in
{+-(1,0), +-(0,1)}, the generators of the weight lattice and their
inverses; every rule in which a K letter appears is multiplicative in lam.

The tests below assert, over these letters:
  * each of the 360 overlap ambiguities resolves: (x.y).z == x.(y.z);
  * each of the 76 rules lowers the order that compares words by total
    root height (K letters count 0), then by length, then by the sequence
    of letter ranks (F_b4 .. F_b1 = 0 .. 3, every K = 4, E_b1 .. E_b4 =
    5 .. 8) lexicographically.  The first two add under concatenation and
    the third compares words of one length position by position, so this is
    a semigroup partial order, and there are finitely many rank sequences of
    each length, so it has the descending chain condition;
  * each rule preserves weight, which is what lets the Cartan moves commute
    with the other rules.

So the PBW words are a basis of the algebra the rules present, and its
product is associative on all words.  The one remaining premise is that
`_mul_terms` applies these reductions, that is, that the engine's product
of two normal forms is a normal form of their concatenation under S; the
seeded probes of `eq-comm-rel-uqg` and the representation tests test it.
"""

import itertools

from qlg2.pbw import K, root_E, root_F
from qlg2.weights import ALPHA1, ALPHA2, BETA, W_ZERO

# beta_j = a alpha_1 + b alpha_2, of height a + b
ROOT_COORDS = {1: (1, 0), 2: (2, 1), 3: (1, 1), 4: (0, 1)}
HEIGHT = {j: a + b for j, (a, b) in ROOT_COORDS.items()}

# (name, rank, letter as a one-word PBW element) in the order of the PBW words
LETTERS = (
    [(f"Fb{j}", 4 - j, root_F(j)) for j in (4, 3, 2, 1)]
    + [(f"K{lam}", 4, K(lam)) for lam in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    + [(f"Eb{j}", 4 + j, root_E(j)) for j in (1, 2, 3, 4)]
)


def _reducible(x, y):
    return x[1] > y[1] or x[1] == y[1] == 4


PAIRS = [(x, y) for x, y in itertools.product(LETTERS, repeat=2) if _reducible(x, y)]
AMBIGUITIES = [(x, y, z) for x, y, z in itertools.product(LETTERS, repeat=3)
               if _reducible(x, y) and _reducible(y, z)]


def _key(word):
    """(total root height, length, letter ranks) of a PBW word F^A K_lam E^B."""
    fexp, lam, eexp = word
    ranks = tuple(r for r, n in enumerate(fexp) for _ in range(n))
    ranks += (4,) * (lam != W_ZERO)
    ranks += tuple(4 + j for j, n in enumerate(eexp, 1) for _ in range(n))
    height = sum(HEIGHT[4 - r] * n for r, n in enumerate(fexp)) \
        + sum(HEIGHT[j] * n for j, n in enumerate(eexp, 1))
    return height, len(ranks), ranks


def _weight(word):
    fexp, _lam, eexp = word
    out = W_ZERO
    for r, n in enumerate(fexp):
        out = out - n * BETA[4 - r]
    for j, n in enumerate(eexp, 1):
        out = out + n * BETA[j]
    return out


def _word(letter):
    (word,) = letter[2].terms
    return word


def test_root_heights():
    for j, (a, b) in ROOT_COORDS.items():
        assert BETA[j] == a * ALPHA1 + b * ALPHA2


def test_every_overlap_ambiguity_resolves():
    unresolved = [x[0] + y[0] + z[0] for x, y, z in AMBIGUITIES
                  if (x[2] * y[2]) * z[2] != x[2] * (y[2] * z[2])]
    assert len(AMBIGUITIES) == 360
    assert unresolved == []


def test_every_rule_lowers_the_order():
    assert len(PAIRS) == 76
    for x, y in PAIRS:
        kx, ky = _key(_word(x)), _key(_word(y))
        left = (kx[0] + ky[0], 2, kx[2] + ky[2])
        lower = [_key(w) < left for w in (x[2] * y[2]).terms]
        assert lower and all(lower), x[0] + y[0]


def test_every_rule_preserves_weight():
    for x, y in PAIRS:
        want = _weight(_word(x)) + _weight(_word(y))
        assert {_weight(w) for w in (x[2] * y[2]).terms} == {want}, x[0] + y[0]
