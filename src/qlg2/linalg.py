"""Small dense exact linear algebra over any field-like coefficient type.

Matrices are plain lists of lists.  Entries only need the arithmetic dunders
and truthiness (zero is falsy); this covers Fraction, Scalar and KScalar.
Sparse vectors are dicts without zero values, kept so by `accumulate`.
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


def mzeros(n, m, zero):
    return [[zero] * m for _ in range(n)]


def meye(n, one, zero):
    out = mzeros(n, n, zero)
    for i in range(n):
        out[i][i] = one
    return out


def madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def msub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mscale(c, a):
    return [[c * x for x in row] for row in a]


def mmul(a, b, zero):
    n, k, m = len(a), len(b), len(b[0])
    out = mzeros(n, m, zero)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if not c:
                continue
            bt = b[t]
            for j in range(m):
                if bt[j]:
                    oi[j] = oi[j] + c * bt[j]
    return out


def mT(a):
    return [list(col) for col in zip(*a)]


def meq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


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
