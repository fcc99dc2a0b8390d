"""Small dense exact linear algebra over Q(i).

Matrices are lists of row lists of GaussianRational.  Everything here is
fraction-free in spirit but implemented with exact division, so ranks and
kernels are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

from .exactkernel import GR_ONE, GR_ZERO, DensePolynomial, GaussianRational


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


def _rref(matrix):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(matrix) -> int:
    if not matrix:
        return 0
    return len(_rref(matrix)[1])


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
    red, pivots = _rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [GR_ZERO] * cols
        vec[fc] = GR_ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis

