"""Small dense exact linear algebra over Q(i).

Matrices are lists of row lists of GaussianRational.  Ranks and kernels come
from one fraction-free Gauss-Jordan elimination over the Gaussian integers
Z[i], run on plain Python ints after each row is cleared of denominators;
only the kernel entries are turned back into scalars.  Everything is exact:
there are no tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .exactkernel import (
    GR_ONE,
    GR_ZERO,
    DensePolynomial,
    GaussianRational,
    _clear_denominators,
)


def zeros(rows: int, cols: int) -> list[list[GaussianRational]]:
    return [[GR_ZERO] * cols for _ in range(rows)]


def identity(n: int) -> list[list[GaussianRational]]:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = GR_ONE
    return out


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        row = a[i]
        acc = out[i]
        for l in range(k):
            c = row[l]
            if not c:
                continue
            brow = b[l]
            for j in range(m):
                if brow[j]:
                    acc[j] = acc[j] + c * brow[j]
    return out

def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def mat_eq(a, b) -> bool:
    return all(ra == rb for ra, rb in zip(a, b)) and len(a) == len(b)


def poly_at_matrix(p: DensePolynomial, m) -> list[list[GaussianRational]]:
    """Evaluate a polynomial at a square matrix (Horner)."""
    n = len(m)
    acc = zeros(n, n)
    for c in reversed(p.coeffs):
        acc = mat_mul(acc, m)
        for i in range(n):
            acc[i][i] = acc[i][i] + c
    return acc


def _exact_quotients(values, d):
    """values // d, raising ArithmeticError unless d divides every value."""
    out = []
    for v in values:
        q, rem = divmod(v, d)
        if rem:
            raise ArithmeticError("inexact division in fraction-free elimination")
        out.append(q)
    return out


def _bareiss_update(row, pivot_row, c, p, prev, real):
    """(p * row - row[c] * pivot_row) / prev over Z[i], the division exact."""
    xre, xim = row
    yre, yim = pivot_row
    pa, pb = p
    fa, fb = xre[c], xim[c]
    if real:
        if fa:
            new = [pa * x - fa * y for x, y in zip(xre, yre)]
        else:
            new = [pa * x for x in xre]
        return (_exact_quotients(new, prev[0]) if prev[0] != 1 else new), xim
    new_re = [
        pa * xa - pb * xb - fa * ya + fb * yb
        for xa, xb, ya, yb in zip(xre, xim, yre, yim)
    ]
    new_im = [
        pa * xb + pb * xa - fa * yb - fb * ya
        for xa, xb, ya, yb in zip(xre, xim, yre, yim)
    ]
    ca, cb = prev
    if cb:
        norm = ca * ca + cb * cb
        new_re, new_im = (
            [a * ca + b * cb for a, b in zip(new_re, new_im)],
            [b * ca - a * cb for a, b in zip(new_re, new_im)],
        )
        ca = norm
    if ca == 1:
        return new_re, new_im
    return _exact_quotients(new_re, ca), _exact_quotients(new_im, ca)


def _gauss_jordan(matrix):
    """Fraction-free Gauss-Jordan elimination over Z[i] (Bareiss 1968).

    Rows are first cleared of denominators.  Each step replaces every other
    row by (p * row - row[c] * pivot row) / previous pivot; the division is
    exact because every entry stays a minor of the cleared matrix, and a
    remainder raises ArithmeticError.  Returns (rows, pivots): rows[k] is an
    (re, im) pair of integer lists, and for k < len(pivots) row k has its
    pivot in column pivots[k] and zeros in every other pivot column.
    """
    rows = [_clear_denominators(row)[:2] for row in matrix]
    n = len(rows)
    cols = len(matrix[0]) if n else 0
    real = not any(any(im) for _, im in rows)
    pivots = []
    prev = (1, 0)
    for c in range(cols):
        r = len(pivots)
        for i in range(r, n):
            if rows[i][0][c] or rows[i][1][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pivot_row = rows[r]
        p = (pivot_row[0][c], pivot_row[1][c])
        for i in range(n):
            if i != r:
                rows[i] = _bareiss_update(rows[i], pivot_row, c, p, prev, real)
        prev = p
        pivots.append(c)
        if len(pivots) == n:
            break
    return rows, pivots


def _quotient(xa, xb, ya, yb) -> GaussianRational:
    """(xa + xb i) / (ya + yb i) for Gaussian integers, ya + yb i != 0."""
    norm = ya * ya + yb * yb
    return GaussianRational(
        Fraction(xa * ya + xb * yb, norm), Fraction(xb * ya - xa * yb, norm)
    )


def rank(matrix) -> int:
    if not matrix:
        return 0
    return len(_gauss_jordan(matrix)[1])


def kernel_basis(matrix, cols: int | None = None):
    """Basis of the right kernel, one vector per free column.

    Each basis vector sets its free variable to 1 and the other free
    variables to 0, so the result is deterministic.  A reduced row is zero
    left of its pivot, so the vector of free column c is zero past c: the
    first vector expresses the first dependent column through the ones
    before it.
    """
    if not matrix:
        if cols is None:
            raise ValueError("need column count for an empty system")
        return [
            [GR_ONE if i == j else GR_ZERO for i in range(cols)]
            for j in range(cols)
        ]
    cols = len(matrix[0])
    rows, pivots = _gauss_jordan(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [GR_ZERO] * cols
        vec[fc] = GR_ONE
        for (re, im), pc in zip(rows, pivots):
            # only the free-column entries leave the integers
            vec[pc] = _quotient(-re[fc], -im[fc], re[pc], im[pc])
        basis.append(vec)
    return basis

