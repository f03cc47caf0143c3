"""Small exact linear algebra over any field-like coefficient type.

Sparse vectors are dicts without zero values, kept so by `accumulate`;
`Combination` is the linear-combination type built on them, shared by
AlgebraElement, KScalar, Matrix, TensorOperator and MElement.  `Matrix` is
the one matrix type: a Combination over (row, column) that carries its
shape, for the Scalar matrices on V, V (x) V and Lambda, the KScalar
operators on Lambda (its subclass ModuleOperator) and the PBW-valued
R-matrix; `mmul` is its product.  `nullspace` and `minv` share one dense
Gauss-Jordan elimination on lists of lists; `rewrite` is the one word
rewriter, for the PBW blocks and the wedge.
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
    NotImplemented; `_new` makes a result of self's kind from its terms.
    Treat instances as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    @classmethod
    def _coerce(cls, x):
        return x if isinstance(x, cls) else None

    def _new(self, terms):
        return type(self)(terms)

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
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

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

    def _new(self, terms):
        return type(self)(terms, self.shape)

    def _coerce(self, x):
        if isinstance(x, Matrix) and x.shape != self.shape:
            raise ValueError(f"matrix sum of shapes {self.shape} and {x.shape}")
        return x if isinstance(x, Matrix) else None

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.terms == other.terms

    __hash__ = Combination.__hash__

    def __matmul__(self, other):
        return mmul(self, other)

    def scale(self, c):
        if not c:
            return self._new({})
        return self._new({rc: c * x for rc, x in self.terms.items()})

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


def rewrite(word, rules, cache, one, key):
    """{key(normal word): coefficient} of a letter word, memoised in `cache`;
    treat results as read only.  The first adjacent pair that is a key of
    `rules` is replaced by each (coefficient, letters) of its rule, until no
    such pair is left: every out-of-order pair must be a key."""
    got = cache.get(word)
    if got is None:
        for i in range(len(word) - 1):
            rule = rules.get(word[i:i + 2])
            if rule is not None:
                got = {}
                for c, repl in rule:
                    for w, x in rewrite(word[:i] + repl + word[i + 2:], rules,
                                        cache, one, key).items():
                        accumulate(got, w, c * x)
                break
        else:
            got = {key(word): one}
        cache[word] = got
    return got


def _row_reduce(rows, one):
    """Gauss-Jordan elimination of equal-length rows in place, to reduced row
    echelon form; returns the pivot column of each leading row."""
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return pivots


def nullspace(rows, one):
    """Basis of the right nullspace of a matrix over a field, as a list of
    coefficient vectors; destructive on `rows`."""
    pivots = _row_reduce(rows, one)
    ncols = len(rows[0]) if rows else 0
    zero = one - one
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [zero] * ncols
        vec[free] = one
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[free]
        basis.append(vec)
    return basis


def minv(a, one):
    """Inverse of a square matrix over a field, or None when it is singular,
    that is when the pivots of [a | I] are not the columns of a."""
    n = len(a)
    rows = [list(r) + [one if i == j else one - one for j in range(n)]
            for i, r in enumerate(a)]
    if _row_reduce(rows, one) != list(range(n)):
        return None
    return [r[n:] for r in rows]
