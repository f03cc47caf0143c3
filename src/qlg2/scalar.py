"""Exact arithmetic in the deformation field Q(v), with v = q^(1/2).

All downstream computations are exact identities of rational functions in a
single deformation variable.  The base variable is v = q^(1/2) rather than q
itself, because the fundamental representation involves half-integer powers
of q; every formula written in q embeds via q = v**2.

A Scalar is a reduced fraction of integer Laurent polynomials,

    value = v**shift * num(v) / (cont * den(v)),

kept canonical at all times: num and den are tuples of int with nonzero
constant and leading terms; den is primitive (its coefficients have gcd 1)
with a positive leading coefficient; cont >= 1 is an int coprime to the
content of num; and gcd(num, den) = 1 in Q[v].  Zero is represented as
num = ().  This form is unique, so equality of values is structural equality
of the four fields, and "x == y" and "x - y is zero" agree bit for bit.

Reduction uses the primitive polynomial remainder sequence over Z (Collins,
J. ACM 14, 1967) and exact integer division, so no rational number appears
in the inner loops.  `canon_str` prints the same monic-over-Q form as a
Fraction-coefficient representation would: numerator and denominator
divided by the leading coefficient of cont * den.

Four exact short-cuts serve the sums and products the checks repeat.
Nearly every Scalar the checks build is v^s times a rational function of
v^4, so the same operands recur at many shifts.  Sums and general products
are therefore memoised by their shift-free fields: `_MUL_CACHE` maps
(n1, c1, d1, n2, c2, d2) to the product of the operands at shift 0, and
`_ADD_CACHE` maps the same six fields and k = s1 - s2 to their sum at
relative shift k, taken with min(s1, s2) = 0.  The result is the entry
shifted by s1 + s2 or by min(s1, s2) respectively.  These keys are exact
because v^k is a unit: multiplying an operand by it multiplies the result
by it and leaves num, cont and den as they are; an entry keeps the shift
`_make` gives a sum whose low terms cancel.  Below them, `_cancel`
memoises its gcd-bearing case (both polynomials of degree >= 1) in
`_CANCEL_CACHE`, keyed by the pair (num, den), and a sum over two
different denominators of degree >= 1 goes over their lcm L, not their
product, with L and the cofactors L/d1, L/d2 memoised in `_LCM_CACHE`; the
canonical form is unique, so the sum is the same.  A product with a factor
c v^k (den = 1) skips the product memo and needs no gcd, and one with a
factor +-v^k (cont = 1) is a sign and a shift of the other factor, already
canonical, so it skips `_make`; `shift` multiplies by v^k with no product
at all.

KScalar extends Scalar by three commuting symbols kappa_1, kappa_2, kappa_3
(the formal ratios of the graded inner-product constants) truncated at total
degree two, which is all the Dirac-square computation ever produces.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .linalg import Combination, accumulate


class PoleError(ZeroDivisionError):
    """Denominator vanishes at the requested evaluation point."""


class KappaDegreeError(ValueError):
    """Total degree in the kappa symbols exceeds the structural cap of 2."""


class InexactDivisionError(ArithmeticError):
    """An exact division in Z[v] left a nonzero remainder."""


# ---------------------------------------------------------------------------
# dense polynomials over Z: tuples of int, index = exponent, no trailing
# zeros, () is the zero polynomial
# ---------------------------------------------------------------------------

def _trim(cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pscale(a, k):
    return a if k == 1 else tuple(k * c for c in a)


def _pmul(a, b):
    # a, b nonzero with nonzero leading terms, so the product needs no trim
    if len(a) == 1:
        return _pscale(b, a[0])
    if len(b) == 1:
        return _pscale(a, b[0])
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def _prim(a):
    """Primitive part of nonzero a, with a positive leading coefficient."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else tuple(c // g for c in a)


def _prem(a, b):
    """A nonzero rational multiple of the remainder of a by b, in Z[v].

    Each step scales the running remainder by lc(b)/gcd(lead, lc(b)) only,
    which is 1 whenever lc(b) divides the leading coefficient.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) > db:
        c = r.pop()
        if not c:
            continue
        i = len(r) - db
        q, m = divmod(c, lb)
        if m:
            g = gcd(c, lb)
            k = lb // g
            r = [k * x for x in r]
            q = c // g
        for j in range(db):
            r[i + j] -= q * b[j]
    return _trim(r)


def _pgcd(a, b):
    """gcd of a and b in Z[v], primitive with a positive leading coefficient.

    Both arguments have degree >= 1.  Primitive remainder sequence: every
    remainder is replaced by its primitive part, which keeps coefficients
    from growing across steps.
    """
    if len(a) < len(b):
        a, b = b, a
    a, b = _prim(a), _prim(b)
    while True:
        r = _prem(a, b)
        if not r:
            return b
        if len(r) == 1:
            return (1,)
        a, b = b, _prim(r)


def _pexquo(a, b):
    """a / b in Z[v]; raises InexactDivisionError unless b divides a.

    Exact over Z whenever b is primitive and divides a in Q[v] (Gauss).
    """
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c, m = divmod(r[i + db], lb)
        if m:
            raise InexactDivisionError("inexact polynomial division")
        if c:
            q[i] = c
            for j in range(db):
                r[i + j] -= c * b[j]
    if not q or any(r[:db]):
        raise InexactDivisionError("inexact polynomial division")
    return tuple(q)


# cancelled pairs keyed by (n, d), for the gcd-bearing case only
_CANCEL_CACHE = {}


def _cancel(n, d):
    """Divide n and d by their gcd; d stays primitive with lc > 0."""
    if len(n) > 1 and len(d) > 1:
        key = (n, d)
        got = _CANCEL_CACHE.get(key)
        if got is None:
            g = _pgcd(n, d)
            got = _CANCEL_CACHE[key] = (
                (_pexquo(n, g), _pexquo(d, g)) if len(g) > 1 else key)
        return got
    return n, d


# (L/d1, L/d2, L) for L = lcm(d1, d2), keyed by the pair (d1, d2)
_LCM_CACHE = {}


def _lcm(d1, d2):
    """Cofactors and lcm of two primitive denominators of degree >= 1."""
    g = _pgcd(d1, d2)
    u1 = _pexquo(d2, g)
    got = _LCM_CACHE[(d1, d2)] = (u1, _pexquo(d1, g), _pmul(d1, u1))
    return got


# sums at relative shift k = s1 - s2, keyed by (n1, c1, d1, n2, c2, d2, k);
# see Scalar._sum
_ADD_CACHE = {}

# products of two operands at shift 0, keyed by (n1, c1, d1, n2, c2, d2)
_MUL_CACHE = {}


class Scalar:
    __slots__ = ("_n", "_c", "_d", "_s")

    def __init__(self, n, c, d, s):
        # trusted canonical inputs only; use the factory functions below
        self._n = n
        self._c = c
        self._d = d
        self._s = s

    # -- construction -------------------------------------------------------

    @staticmethod
    def _make(num, c, den, shift, reduce=False):
        """Canonical v**shift * num / (c * den).

        den is primitive with lc > 0 and a nonzero constant term, and c >= 1;
        unless `reduce` is set, gcd(num, den) = 1 already.
        """
        num = _trim(num)
        if not num:
            return ZERO
        i = 0
        while not num[i]:
            i += 1
        if i:
            shift += i
            num = num[i:]
        if reduce:
            num, den = _cancel(num, den)
        if c != 1:
            g = gcd(c, *num)
            if g != 1:
                c //= g
                num = tuple(x // g for x in num)
        return Scalar(num, c, den, shift)

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self._n

    def __bool__(self):
        return bool(self._n)

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return scalar(other)
        return None

    def __add__(self, other):
        o = other if type(other) is Scalar else Scalar._coerce(other)
        if o is None:
            return NotImplemented
        if not self._n:
            return o
        if not o._n:
            return self
        k = self._s - o._s
        key = (self._n, self._c, self._d, o._n, o._c, o._d, k)
        got = _ADD_CACHE.get(key)
        if got is None:
            got = _ADD_CACHE[key] = Scalar._sum(*key)
        return got.shift(o._s if k > 0 else self._s)

    __radd__ = __add__

    @staticmethod
    def _sum(n1, c1, d1, n2, c2, d2, k):
        """(v**k x1 + x2) / v**min(0, k) for x1 = n1/(c1 d1), x2 = n2/(c2 d2),
        canonical: x1 v**s1 + x2 v**s2 with s1 - s2 = k is this sum shifted
        by min(s1, s2)."""
        if k > 0:
            n1 = (0,) * k + n1
        elif k < 0:
            n2 = (0,) * -k + n2
        if c1 == c2:
            c = c1
        else:
            g = gcd(c1, c2)
            c = c1 // g * c2
            n1 = _pscale(n1, c2 // g)
            n2 = _pscale(n2, c1 // g)
        if d1 == d2:
            return Scalar._make(_padd(n1, n2), c, d1, 0, True)
        if len(d1) > 1 and len(d2) > 1:
            u1, u2, den = _LCM_CACHE.get((d1, d2)) or _lcm(d1, d2)
            return Scalar._make(_padd(_pmul(n1, u1), _pmul(n2, u2)), c, den, 0, True)
        # a sum with a Laurent polynomial is already reduced
        return Scalar._make(_padd(_pmul(n1, d2), _pmul(n2, d1)), c, _pmul(d1, d2), 0)

    def __neg__(self):
        if not self._n:
            return self
        return Scalar(_pneg(self._n), self._c, self._d, self._s)

    def __sub__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = other if type(other) is Scalar else Scalar._coerce(other)
        if o is None:
            return NotImplemented
        if not self._n or not o._n:
            return ZERO
        a, m = (self, o) if len(o._n) == 1 and o._d == (1,) else (o, self)
        if len(m._n) == 1 and m._d == (1,):
            # m = c v^k needs no gcd, and ONE leaves the other factor as it is
            k = m._n[0]
            if k == 1 and m._c == 1 and not m._s:
                return a
            if a._n == (1,) and a._c == 1 and not a._s and a._d == (1,):
                return m
            if m._c == 1 and (k == 1 or k == -1):
                # m = +-v^k: a sign and a shift of a canonical a are canonical
                return Scalar(a._n if k == 1 else _pneg(a._n), a._c, a._d,
                              a._s + m._s)
            return Scalar._make(_pscale(a._n, k), a._c * m._c, a._d, a._s + m._s)
        key = (self._n, self._c, self._d, o._n, o._c, o._d)
        got = _MUL_CACHE.get(key)
        if got is None:
            # cross-reduce so the product of reduced fractions is reduced
            n1, d2 = _cancel(self._n, o._d)
            n2, d1 = _cancel(o._n, self._d)
            got = _MUL_CACHE[key] = Scalar._make(_pmul(n1, n2), self._c * o._c,
                                                 _pmul(d1, d2), 0)
        return got.shift(self._s + o._s)

    __rmul__ = __mul__

    def shift(self, k):
        """v**k * self: a shift of a canonical Scalar is canonical."""
        return Scalar(self._n, self._c, self._d, self._s + k) if self._n else self

    def inv(self):
        if not self._n:
            raise ZeroDivisionError("inverse of zero scalar")
        # num = k * den' with den' primitive, lc > 0; k is coprime to c
        n = self._n
        k = gcd(*n)
        if n[-1] < 0:
            k = -k
        num = _pscale(self._d, self._c if k > 0 else -self._c)
        den = n if k == 1 else tuple(x // k for x in n)
        return Scalar(num, abs(k), den, -self._s)

    def bar(self):
        """Image under the field automorphism v -> v^-1, canonical without a
        gcd: reversing n and d keeps them coprime with nonzero end terms."""
        if not self._n:
            return self
        n, d = self._n[::-1], self._d[::-1]
        if d[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        return Scalar(n, self._c, d, len(self._d) - len(self._n) - self._s)

    def __truediv__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return (self._n == o._n and self._d == o._d and self._c == o._c
                and self._s == o._s)

    def __hash__(self):
        return hash((self._n, self._c, self._d, self._s))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, v0):
        """Exact value at v = v0 (a Fraction); raises PoleError at poles."""
        v0 = Fraction(v0)
        if not self._n:
            return Fraction(0)
        p, q = v0.numerator, v0.denominator

        def horner(cs):
            # q**deg * cs(p/q)
            acc, qk = 0, 1
            for c in reversed(cs):
                acc = acc * p + c * qk
                qk *= q
            return acc

        den = horner(self._d)
        if not den:
            raise PoleError(f"denominator vanishes at v = {v0}")
        num = horner(self._n)
        den *= self._c
        # v0**s * q**(deg d - deg n) moves to whichever side keeps exponents >= 0
        e = len(self._d) - len(self._n)
        for base, k in ((p, self._s), (q, e - self._s)):
            if k > 0:
                num *= base ** k
            elif k < 0:
                den *= base ** -k
        if not den:
            raise PoleError(f"v^{self._s} has a pole at v = {v0}")
        return Fraction(num, den)

    # -- formatting ---------------------------------------------------------

    def canon_str(self):
        """Canonical string form; equal scalars stringify identically.

        Printed monic over Q: both sides divided by the leading coefficient
        of c * den.
        """
        if not self._n:
            return "0"

        def poly_str(cs, shift, scale):
            parts = []
            for e, x in enumerate(cs):
                if not x:
                    continue
                c = Fraction(x, scale)
                k = e + shift
                if k == 0:
                    parts.append(f"{c}")
                elif c == 1:
                    parts.append(f"v^{k}")
                elif c == -1:
                    parts.append(f"-v^{k}")
                else:
                    parts.append(f"{c}*v^{k}")
            return " + ".join(parts).replace("+ -", "- ")

        lc = self._d[-1]
        num = poly_str(self._n, self._s, self._c * lc)
        if self._d == (1,):
            return num
        return f"({num}) / ({poly_str(self._d, 0, lc)})"

    def __repr__(self):
        return self.canon_str()


ZERO = Scalar((), 1, (1,), 0)
ONE = Scalar((1,), 1, (1,), 0)


def scalar(c):
    """Embed a rational number as a constant Scalar."""
    c = Fraction(c)
    if not c:
        return ZERO
    return Scalar((c.numerator,), c.denominator, (1,), 0)


def v_power(k):
    """v**k."""
    return Scalar((1,), 1, (1,), k)


def q_power(k):
    """q**k = v**(2k)."""
    return Scalar((1,), 1, (1,), 2 * k)


def laurent_v(coeffs):
    """Scalar from a {v-exponent: rational} mapping."""
    if not coeffs:
        return ZERO
    lo = min(coeffs)
    hi = max(coeffs)
    cs = [Fraction(0)] * (hi - lo + 1)
    for e, c in coeffs.items():
        cs[e - lo] += Fraction(c)
    den = lcm(*(c.denominator for c in cs))
    return Scalar._make([c.numerator * (den // c.denominator) for c in cs],
                        den, (1,), lo)


def laurent_q(coeffs):
    """Scalar from a {q-exponent: rational} mapping."""
    return laurent_v({2 * e: c for e, c in coeffs.items()})


def q_number(n, base=1):
    """Quantum integer [n] = (q^n - q^-n)/(q - q^-1), optionally in base q**base."""
    d = base
    num = q_power(d * n) - q_power(-d * n)
    den = q_power(d) - q_power(-d)
    return num / den


def q_factorial(n, base=1):
    """[n]! = [n][n-1]...[1]; the empty product is 1.  Rejects n < 0."""
    if n < 0:
        raise ValueError("q-factorial of a negative integer")
    out = ONE
    for k in range(2, n + 1):
        out = out * q_number(k, base)
    return out


def q_binomial(m, k, base=1):
    """Quantum binomial coefficient [m choose k] in base q**base."""
    if k < 0 or k > m:
        return ZERO
    return q_factorial(m, base) / (q_factorial(k, base) * q_factorial(m - k, base))


# shared constants
Q_SC = q_power(1) - q_power(-1)      # Q = q - q^-1
BR2 = q_number(2)                    # [2]_q


# ---------------------------------------------------------------------------
# kappa extension
# ---------------------------------------------------------------------------

_K_CAP = 2


class KScalar(Combination):
    """Polynomial of total degree <= 2 in kappa_1..kappa_3 over Scalar:
    terms {(e1, e2, e3): Scalar}."""

    __slots__ = ()

    @staticmethod
    def from_scalar(s):
        if isinstance(s, (int, Fraction)):
            s = scalar(s)
        if s.is_zero:
            return KZERO
        return KScalar({(0, 0, 0): s})

    @staticmethod
    def _coerce(other):
        if isinstance(other, KScalar):
            return other
        if isinstance(other, (Scalar, int, Fraction)):
            return KScalar.from_scalar(other)
        return None

    def __mul__(self, other):
        o = KScalar._coerce(other)
        if o is None:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                if sum(m) > _K_CAP:
                    raise KappaDegreeError(
                        f"kappa monomial {m} exceeds total degree {_K_CAP}")
                accumulate(out, m, c1 * c2)
        return KScalar(out)

    __rmul__ = __mul__

    def substitute_ratios(self, s2, s3):
        """Impose kappa_2 = s2*kappa_1 and kappa_3 = s3*kappa_1."""
        out = KZERO
        for (e1, e2, e3), c in self.terms.items():
            mono = KScalar({(e1 + e2 + e3, 0, 0): c * s2 ** e2 * s3 ** e3})
            out = out + mono
        return out

    def div_kappa(self, mono):
        """Exact division by a kappa monomial; raises if not divisible."""
        out = {}
        for m, c in self.terms.items():
            r = tuple(a - b for a, b in zip(m, mono))
            if any(e < 0 for e in r):
                raise ValueError("KScalar not divisible by requested kappa monomial")
            out[r] = c
        return KScalar(out)

    def canon_str(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            c = self.terms[m]
            sym = "*".join(
                f"k{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(m) if e)
            bits.append(f"({c.canon_str()})" + (f"*{sym}" if sym else ""))
        return " + ".join(bits)

    def __repr__(self):
        return self.canon_str()


KZERO = KScalar({})
KONE = KScalar({(0, 0, 0): ONE})


def kappa(i):
    """The symbol kappa_i, i in {1, 2, 3}."""
    if i not in (1, 2, 3):
        raise ValueError("kappa index must be 1, 2 or 3")
    m = [0, 0, 0]
    m[i - 1] = 1
    return KScalar({tuple(m): ONE})
