"""Slow reference implementations, kept as oracles for the integer paths.

These are the Fraction-based row reduction, the weight-by-weight moment
recurrences, the scalar series recurrence, the scalar Pade numerator, the
shift-based partial fractions and the polynomial products of root factors
that ``linalg``, ``tracespace``, ``pade`` and ``exactkernel`` used before
their hot loops moved to plain integers.  They share no code with the fast
paths beyond the scalar, polynomial and series types (``test_oracles``
checks the imports).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from kleintrace import DensePolynomial, GaussianRational, TruncatedSeries
from kleintrace.exactkernel import GR_ONE, GR_ZERO


def series_of_rational(R, S, N: int) -> TruncatedSeries:
    """c_0..c_N of R/S = sum c_n x^{-n-1}, deg R < deg S, by matching the
    coefficients of R = S * sum c_n x^{-n-1} one scalar at a time."""
    m = S.degree
    lead = S.coeffs[-1]
    out = []
    for n in range(N + 1):
        acc = R.coefficient(m - 1 - n)
        for r in range(max(0, n - m), n):
            acc = acc - S.coefficient(m - n + r) * out[r]
        out.append(acc if lead == GR_ONE else acc / lead)
    return TruncatedSeries(out)


def pade_numerator(S, moments) -> DensePolynomial:
    """R, the polynomial part of S * F for F = sum mu_m x^{-m-1}."""
    m = S.degree
    r_coeffs = []
    for jj in range(m):
        acc = GR_ZERO
        for i in range(jj + 1, m + 1):
            acc = acc + S.coefficient(i) * moments[i - jj - 1]
        r_coeffs.append(acc)
    return DensePolynomial(r_coeffs)


def root_product(factors) -> DensePolynomial:
    """prod (x - a)^e over the pairs (a, e), one linear factor at a time."""
    out = DensePolynomial((GR_ONE,))
    for a, e in factors:
        for _ in range(e):
            out = out * DensePolynomial((-a, GR_ONE))
    return out


def partial_fractions(R, P) -> dict:
    """{a: (e^(1), ..., e^(m))} for R/P, from the Taylor expansion of
    R / (P / (x - a)^m) after shifting the origin to each root a."""
    entries = {}
    for a, m in P.roots:
        r_loc = R.shift(a)
        b_loc = P.quotient_poly(a, m).shift(a)
        taylor = []
        for i in range(m):
            acc = r_loc.coefficient(i)
            for r in range(i):
                acc = acc - b_loc.coefficient(i - r) * taylor[r]
            taylor.append(acc / b_loc.coefficient(0))
        entries[a] = tuple(reversed(taylor))
    return entries


def rref(matrix):
    """Reduced row echelon form over Q(i); returns (rows, pivot columns)."""
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
    return len(rref(matrix)[1]) if matrix else 0


def kernel_basis(matrix, cols):
    """One kernel vector per free column, free variable 1, other free 0."""
    if not matrix:
        return [[GR_ONE if i == j else GR_ZERO for i in range(cols)] for j in range(cols)]
    red, pivots = rref(matrix)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [GR_ZERO] * cols
        vec[fc] = GR_ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def difference_weight(r: int, m: int, t) -> GaussianRational:
    """Weight of mu_{r-m} in the x^{-r-1} coefficient of F(x+1/2) - t F(x-1/2)."""
    c = GaussianRational(Fraction(comb(r, m), 2**m))
    if m % 2 == 0:
        return c * (GR_ONE - t)
    return -c * (GR_ONE + t)


def solve_moments(spec, N: int) -> TruncatedSeries:
    t = spec.t
    if t != GR_ONE:
        G = series_of_rational(spec.Q, spec.P.expand(), N)
        mu = []
        for r in range(N + 1):
            acc = G[r]
            for m in range(1, r + 1):
                acc = acc - difference_weight(r, m, t) * mu[r - m]
            mu.append(acc / (GR_ONE - t))
        return TruncatedSeries(mu)
    G = series_of_rational(spec.Q, spec.P.expand(), N + 1)
    mu = []
    for r in range(1, N + 2):
        acc = G[r]
        for m in range(3, r + 1, 2):
            acc = acc - difference_weight(r, m, t) * mu[r - m]
        mu.append(acc / GaussianRational(-r))
    return TruncatedSeries(mu)


def difference_series(t, moments) -> list:
    """G_r = sum_m w(r, m) mu_{r-m}: the series of F(x+1/2) - t F(x-1/2)."""
    return [
        sum((difference_weight(r, m, t) * moments[r - m] for m in range(r + 1)), GR_ZERO)
        for r in range(moments.order + 1)
    ]
