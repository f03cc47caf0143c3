"""Small exact linear algebra over any field-like coefficient type.

Sparse vectors are dicts without zero values, kept so by `accumulate`;
`Combination` is the linear-combination type built on them, shared by
AlgebraElement, KScalar, Matrix, TensorOperator and MElement.  `Matrix` is
the one matrix type: a Combination over (row, column) that carries its
shape, for the Scalar matrices on V, V (x) V and Lambda, the KScalar
operators on Lambda (its subclass ModuleOperator) and the PBW-valued
R-matrix; `mmul` is its product.  `nullspace` and `minv` are dense row
reduction on lists of lists that their callers build.
"""

from __future__ import annotations


def accumulate(out, key, value):
    """out[key] += value on a sparse dict, deleting the key when the sum is
    zero; values need `+` and `is_zero` (Scalar, KScalar, AlgebraElement,
    Matrix)."""
    cur = out.get(key)
    if cur is not None:
        value = cur + value
    if value.is_zero:
        out.pop(key, None)
    else:
        out[key] = value


class Combination:
    """Linear combination {key: coefficient} without zero coefficients.

    The vector-space operations live here; a subclass adds its products and
    constructors.  `_coerce` maps an operand to the subclass, or to None for
    NotImplemented.  Treat instances as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    @classmethod
    def _coerce(cls, x):
        return x if isinstance(x, cls) else None

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            accumulate(out, k, c)
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class Matrix(Combination):
    """Sparse matrix {(row, column): nonzero entry} of a fixed `shape`.

    Entries are Scalar, KScalar or AlgebraElement.  Their rings have no zero
    divisors, so `scale` and `kron` store products of nonzero entries
    without a zero test.  `+`, `-` and `@` raise ValueError on operands of
    mismatched shape; matrices of different shapes are unequal.
    """

    __slots__ = ("shape",)

    def __init__(self, terms, shape):
        self.terms = terms
        self.shape = shape

    @classmethod
    def diagonal(cls, entries):
        return cls({(i, i): x for i, x in enumerate(entries) if x},
                   (len(entries), len(entries)))

    @classmethod
    def identity(cls, n, one):
        return cls.diagonal([one] * n)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.shape != self.shape:
            raise ValueError(f"matrix sum of shapes {self.shape} and {other.shape}")
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return type(self)(out, self.shape)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()}, self.shape)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.terms == other.terms

    __hash__ = Combination.__hash__

    def __matmul__(self, other):
        return mmul(self, other)

    def scale(self, c):
        if not c:
            return type(self)({}, self.shape)
        return type(self)({rc: c * x for rc, x in self.terms.items()}, self.shape)

    def kron(self, other):
        """Kronecker product: entry (i, j) times entry (k, l) of `other`, of
        shape (n, m), sits at (i * n + k, j * m + l)."""
        n, m = other.shape
        return Matrix({(i * n + k, j * m + l): x * y
                       for (i, j), x in self.terms.items()
                       for (k, l), y in other.terms.items()},
                      (self.shape[0] * n, self.shape[1] * m))

    @property
    def T(self):
        return type(self)({(c, r): x for (r, c), x in self.terms.items()},
                      self.shape[::-1])

    def block(self, rows, cols):
        """The submatrix on the given row and column indices, renumbered."""
        ri = {r: i for i, r in enumerate(rows)}
        ci = {c: j for j, c in enumerate(cols)}
        return Matrix({(ri[r], ci[c]): x for (r, c), x in self.terms.items()
                       if r in ri and c in ci}, (len(rows), len(cols)))

    def entries_str(self):
        return "; ".join(f"[{r},{c}] {self.terms[r, c].canon_str()}"
                         for r, c in sorted(self.terms)) or "0"

    def __repr__(self):
        return f"{type(self).__name__}({self.entries_str()})"


def mmul(a, b):
    """The product a b, of a's type, grouped by the rows of b (Gustavson,
    ACM TOMS 4(3), 1978): each nonzero a[r, t] meets the nonzero entries of
    row t of b once."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matrix product of shapes {a.shape} and {b.shape}")
    rows = {}
    for (t, c), y in b.terms.items():
        rows.setdefault(t, []).append((c, y))
    out = {}
    for (r, t), x in a.terms.items():
        for c, y in rows.get(t, ()):
            accumulate(out, (r, c), x * y)
    return type(a)(out, (a.shape[0], b.shape[1]))


def nullspace(rows, one):
    """Basis of the right nullspace of a matrix over a field.

    Returns a list of coefficient vectors; destructive on `rows`.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    nrows = len(rows)
    piv_col_of_row = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_col_of_row.append(c)
        r += 1
    pivots = set(piv_col_of_row)
    basis = []
    zero = one - one
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for i, pc in enumerate(piv_col_of_row):
            vec[pc] = -rows[i][free]
        basis.append(vec)
    return basis


def minv(a, one):
    """Inverse of a square matrix over a field, or None when it is singular."""
    n = len(a)
    rows = [list(r) + [one if i == j else one - one for j in range(n)]
            for i, r in enumerate(a)]
    for c in range(n):
        sel = next((i for i in range(c, n) if rows[i][c]), None)
        if sel is None:
            return None
        piv = rows.pop(sel)
        rows.insert(c, [x / piv[c] for x in piv])
        for i in range(n):
            if i != c and rows[i][c]:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[c])]
    return [r[n:] for r in rows]
