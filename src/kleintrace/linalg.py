"""Exact rank over Q(i): the one linear-algebra question the package asks.

Matrices are lists of row lists of GaussianRational.  A rank comes from one
fraction-free forward elimination over the Gaussian integers Z[i], run on
plain Python ints after each row is cleared of denominators.  It answers
both rank questions of the paper: a Hankel rank (``tracespace.hankel_rank``,
which also decides coprimality) and the rank of the delta rows.  Everything
is exact: there are no tolerances anywhere.
"""

from __future__ import annotations

from .exactkernel import _clear_denominators


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
