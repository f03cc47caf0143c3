"""Weight lattice of sp4 in the fundamental-weight basis.

Root data for C2 with alpha_1 short and alpha_2 long, normalized so that
(alpha_1, alpha_1) = 2:

    (alpha_1, alpha_1) = 2,  (alpha_1, alpha_2) = -2,  (alpha_2, alpha_2) = 4.

A Weight stores integer coordinates (n1, n2) with respect to (omega_1,
omega_2); in this basis the invariant form has Gram matrix [[1, 1], [1, 2]].

The reduced word w0 = s1 s2 s1 s2 for the longest Weyl element orders the
positive roots as

    beta_1 = alpha_1, beta_2 = 2 alpha_1 + alpha_2,
    beta_3 = alpha_1 + alpha_2, beta_4 = alpha_2,

and the radical roots of the parabolic with S = {alpha_1} are xi_i =
beta_{i+1}.  LAMBDA_V lists the weights of the 4-dimensional fundamental
module in its standard basis order.
"""

from __future__ import annotations


class Weight(tuple):
    __slots__ = ()

    def __new__(cls, n1, n2):
        return tuple.__new__(cls, (int(n1), int(n2)))

    def __add__(self, other):
        return Weight(self[0] + other[0], self[1] + other[1])

    def __sub__(self, other):
        return Weight(self[0] - other[0], self[1] - other[1])

    def __neg__(self):
        return Weight(-self[0], -self[1])

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return Weight(k * self[0], k * self[1])

    def pair(self, other):
        """Invariant bilinear form; Gram matrix [[1, 1], [1, 2]]."""
        a1, a2 = self
        b1, b2 = other
        return a1 * (b1 + b2) + a2 * (b1 + 2 * b2)

    @property
    def is_zero(self):
        return self[0] == 0 and self[1] == 0

    def __repr__(self):
        return f"({self[0]},{self[1]})"


def pair(a, b):
    return Weight(*a).pair(Weight(*b))


W_ZERO = Weight(0, 0)
OMEGA1 = Weight(1, 0)
OMEGA2 = Weight(0, 1)
ALPHA1 = Weight(2, -1)
ALPHA2 = Weight(-2, 2)
RHO = OMEGA1 + OMEGA2

# positive roots in the order produced by w0 = s1 s2 s1 s2 (1-indexed)
BETA = {
    1: ALPHA1,
    2: Weight(2, 0),     # 2 alpha_1 + alpha_2
    3: Weight(0, 1),     # alpha_1 + alpha_2
    4: ALPHA2,
}

# radical roots xi_i = beta_{i+1}
XI = {1: BETA[2], 2: BETA[3], 3: BETA[4]}

# weights of the fundamental module basis v_1..v_4
LAMBDA_V = (
    OMEGA1,                  # lambda_1
    Weight(-1, 1),           # lambda_2 = -omega_1 + omega_2
    Weight(1, -1),           # lambda_3 = -lambda_2
    Weight(-1, 0),           # lambda_4 = -lambda_1
)

SIMPLE = {1: ALPHA1, 2: ALPHA2}
