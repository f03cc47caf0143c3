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

KScalar extends Scalar by three commuting symbols kappa_1, kappa_2, kappa_3
(the formal ratios of the graded inner-product constants) truncated at total
degree two, which is all the Dirac-square computation ever produces.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .linalg import accumulate


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


def _cancel(n, d):
    """Divide n and d by their gcd; d stays primitive with lc > 0."""
    if len(n) > 1 and len(d) > 1:
        g = _pgcd(n, d)
        if len(g) > 1:
            return _pexquo(n, g), _pexquo(d, g)
    return n, d


class Scalar:
    __slots__ = ("_n", "_c", "_d", "_s", "_h")

    def __init__(self, n, c, d, s):
        # trusted canonical inputs only; use the factory functions below
        self._n = n
        self._c = c
        self._d = d
        self._s = s
        self._h = None

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

    @property
    def is_polynomial(self):
        """True when the denominator is trivial (value in Z[v, v^-1] over Q)."""
        return self._d == (1,)

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
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        if not self._n:
            return o
        if not o._n:
            return self
        s = min(self._s, o._s)
        n1 = (0,) * (self._s - s) + self._n
        n2 = (0,) * (o._s - s) + o._n
        c1, c2 = self._c, o._c
        if c1 == c2:
            c = c1
        else:
            g = gcd(c1, c2)
            c = c1 // g * c2
            n1 = _pscale(n1, c2 // g)
            n2 = _pscale(n2, c1 // g)
        d1, d2 = self._d, o._d
        if d1 == d2:
            return Scalar._make(_padd(n1, n2), c, d1, s, True)
        num = _padd(_pmul(n1, d2), _pmul(n2, d1))
        # a sum with a Laurent polynomial is already reduced
        return Scalar._make(num, c, _pmul(d1, d2), s,
                            len(d1) > 1 and len(d2) > 1)

    __radd__ = __add__

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
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        if not self._n or not o._n:
            return ZERO
        # cross-reduce so the product of reduced fractions is reduced
        n1, d2 = _cancel(self._n, o._d)
        n2, d1 = _cancel(o._n, self._d)
        return Scalar._make(_pmul(n1, n2), self._c * o._c, _pmul(d1, d2),
                            self._s + o._s)

    __rmul__ = __mul__

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
        if self._h is None:
            self._h = hash((self._n, self._c, self._d, self._s))
        return self._h

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


def evaluate(s, v0):
    """Exact rational value of the scalar s at v = v0."""
    return s.evaluate(v0)


# shared constants
Q_SC = q_power(1) - q_power(-1)      # Q = q - q^-1
BR2 = q_number(2)                    # [2]_q


# ---------------------------------------------------------------------------
# kappa extension
# ---------------------------------------------------------------------------

_K_CAP = 2


class KScalar:
    """Polynomial of total degree <= 2 in kappa_1..kappa_3 over Scalar."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        # trusted: dict {(e1, e2, e3): Scalar}, zero values pruned
        self.terms = terms

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

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def __add__(self, other):
        o = KScalar._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in o.terms.items():
            accumulate(out, m, c)
        return KScalar(out)

    __radd__ = __add__

    def __neg__(self):
        return KScalar({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = KScalar._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = KScalar._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

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

    def __eq__(self, other):
        o = KScalar._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def substitute(self, k1, k2, k3):
        """Full substitution kappa_i -> Scalar; a ring homomorphism."""
        out = ZERO
        for (e1, e2, e3), c in self.terms.items():
            out = out + c * k1 ** e1 * k2 ** e2 * k3 ** e3
        return out

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
