"""Small exact linear algebra over any field-like coefficient type.

Matrices are plain lists of lists: the Scalar matrices of the two modules
and of the Levi-split and invariant-form solves, and the PBW-valued
R-matrix.  Entries only need the arithmetic dunders and truthiness (zero is
falsy); `madd`/`msub` take two matrices whose entries share one type.
The matrices are mostly zero, so the kernels skip sums of two zeros,
multiples of a zero and products with a zero factor.
Sparse vectors are dicts without zero values, kept so by `accumulate`;
`Combination` is the linear-combination type built on them, shared by
AlgebraElement, KScalar, ModuleOperator, TensorOperator and MElement.
"""

from __future__ import annotations


def accumulate(out, key, value):
    """out[key] += value on a sparse dict, deleting the key when the sum is
    zero; values need `+` and `is_zero` (Scalar, KScalar, ModuleOperator)."""
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


def mzeros(n, m, zero):
    return [[zero] * m for _ in range(n)]


def meye(n, one, zero):
    out = mzeros(n, n, zero)
    for i in range(n):
        out[i][i] = one
    return out


def _same_shape(a, b):
    return len(a) == len(b) and all(len(ra) == len(rb) for ra, rb in zip(a, b))


def madd(a, b):
    """Entrywise a + b; a pair of zeros gives the first back."""
    if not _same_shape(a, b):
        raise ValueError("madd: the matrices differ in shape")
    return [[x + y if x or y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def msub(a, b):
    """Entrywise a - b; a pair of zeros gives the first back."""
    if not _same_shape(a, b):
        raise ValueError("msub: the matrices differ in shape")
    return [[x - y if x or y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mscale(c, a):
    """c * a; zero entries stay as they are."""
    return [[c * x if x else x for x in row] for row in a]


def mmul(a, b, zero):
    """Product a b.  Row t of b is read as its nonzero (column, entry)
    pairs, so each nonzero a[i][t] costs one product per nonzero entry of
    that row; empty output entries are `zero`."""
    if any(len(ra) != len(b) for ra in a):
        raise ValueError("mmul: the columns of a do not match the rows of b")
    brows = [[(j, y) for j, y in enumerate(rb) if y] for rb in b]
    out = []
    for ra in a:
        oi = [zero] * len(b[0])
        for c, bt in zip(ra, brows):
            if c:
                for j, y in bt:
                    oi[j] = oi[j] + c * y
        out.append(oi)
    return out


def kron(a, b, zero):
    """Kronecker product: entry (i, j) of a times entry (k, l) of b sits at
    row i * len(b) + k, column j * len(b[0]) + l."""
    n, m = len(b), len(b[0])
    out = mzeros(len(a) * n, len(a[0]) * m, zero)
    for i, ra in enumerate(a):
        for j, x in enumerate(ra):
            if not x:
                continue
            for k, rb in enumerate(b):
                row = out[i * n + k]
                for l, y in enumerate(rb):
                    if y:
                        row[j * m + l] = x * y
    return out


def mT(a):
    return [list(col) for col in zip(*a)]


def meq(a, b):
    return _same_shape(a, b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def miszero(a):
    return all(not x for row in a for x in row)


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
