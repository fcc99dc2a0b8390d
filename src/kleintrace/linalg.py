"""Small dense exact linear algebra over Q(i).

Matrices are lists of row lists of GaussianRational.  A rank comes from one
fraction-free forward elimination over the Gaussian integers Z[i], run on
plain Python ints after each row is cleared of denominators.  A product clears
each operand to numerators over one denominator, multiplies them as int
pairs, and builds each entry of the result once.  Everything is exact:
there are no tolerances anywhere.
"""

from __future__ import annotations

from .exactkernel import (
    GR_ZERO,
    GaussianRational,
    _clear_denominators,
    _from_numerators,
)


def zeros(rows: int, cols: int) -> list[list[GaussianRational]]:
    return [[GR_ZERO] * cols for _ in range(rows)]


def _numerators(m):
    """((re, im), den): entry (i, j) of the matrix m is
    (re[i][j] + im[i][j] i) / den, with re and im integer row lists and den
    the least common denominator of every entry."""
    cols = len(m[0]) if m else 0
    re, im, den = _clear_denominators(x for row in m for x in row)
    bounds = [(i * cols, (i + 1) * cols) for i in range(len(m))]
    return ([re[s:e] for s, e in bounds], [im[s:e] for s, e in bounds]), den


def _int_mul(a, b):
    """The product of two Gaussian-integer matrices, each a (re, im) pair
    of integer row lists; zero entries of either are skipped."""
    b_re, b_im = b
    m = len(b_re[0]) if b_re else 0
    # the nonzero entries (j, u, v) of each row of b
    sparse = [
        [(j, u, v) for j, (u, v) in enumerate(zip(ur, vr)) if u or v]
        for ur, vr in zip(b_re, b_im)
    ]
    out_re, out_im = [], []
    for xr, yr in zip(*a):
        acc_re, acc_im = [0] * m, [0] * m
        for x, y, brow in zip(xr, yr, sparse):
            if x or y:
                for j, u, v in brow:
                    acc_re[j] += x * u - y * v
                    acc_im[j] += x * v + y * u
        out_re.append(acc_re)
        out_im.append(acc_im)
    return out_re, out_im


def mat_mul(a, b):
    """a b over Q(i): each operand is cleared to Gaussian-integer numerators
    once, the product runs on ints, and each entry becomes a scalar once."""
    a, da = _numerators(a)
    b, db = _numerators(b)
    den = da * db
    return [
        [_from_numerators(x, y, den) if x or y else GR_ZERO for x, y in zip(xr, yr)]
        for xr, yr in zip(*_int_mul(a, b))
    ]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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


def _forward_elimination(matrix):
    """Fraction-free forward elimination over Z[i] (Bareiss 1968).

    Rows are first cleared of denominators.  Each step replaces every row
    below the pivot row by (p * row - row[c] * pivot row) / previous pivot;
    the division is exact because every entry stays a minor of the cleared
    matrix, and a remainder raises ArithmeticError.  Returns the pivot
    columns, one per pivot row in order.
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
        for i in range(r + 1, n):
            rows[i] = _bareiss_update(rows[i], pivot_row, c, p, prev, real)
        prev = p
        pivots.append(c)
        if len(pivots) == n:
            break
    return pivots


def rank(matrix) -> int:
    return len(_forward_elimination(matrix))
