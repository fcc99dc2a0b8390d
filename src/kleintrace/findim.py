"""Finite-dimensional modules and the traces they induce.

A module over the algebra of P is a quadruple of matrices (U, V, Z) obeying
the defining relations exactly, plus a twisting matrix alpha; the induced
trace sends a to tr(alpha . a).  String modules (simple z-spectrum strung
between two roots at integer distance) give every degenerate trace whose
transform has only simple poles; Jordan-block modules with a generalized
alpha cover higher pole orders.

The builders check only the roots of P that their modules need and do not
validate; ``module_trace``, where a hand-made rep may arrive, validates
once.  Their lowering entries are Taylor coefficients of P, read off one
truncated root product over the shifted roots (``_taylor``).  Validation
and the moment power loop run on Gaussian-integer numerators of the
matrices (``_numerators``), multiplied by one sparse integer product
(``_int_mul``).  tr(alpha Z^m) is the sum of (Z^m alpha)[l][l] over the c
nonzero columns l of alpha, so the power loop steps only those columns, a
dim x c block C <- Z C (c is one per Jordan block).
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .exactkernel import (
    GR_ONE,
    GR_ZERO,
    FactoredPolynomial,
    GaussianRational,
    TruncatedSeries,
    _HALF,
    _as_scalar,
    _clear_denominators,
    _root_product,
)


class ModuleRep(NamedTuple):
    """dim x dim matrices over Q(i) satisfying, exactly,

    Z U - U Z = U,   Z V - V Z = -V,
    U V = P(Z - I/2), V U = P(Z + I/2).
    """

    dim: int
    U: tuple
    V: tuple
    Z: tuple
    alpha: tuple

    @staticmethod
    def _freeze(m) -> tuple:
        return tuple(tuple(row) for row in m)

    def matrices(self):
        return (
            [list(r) for r in self.U],
            [list(r) for r in self.V],
            [list(r) for r in self.Z],
            [list(r) for r in self.alpha],
        )

    def validate(self, P: FactoredPolynomial):
        """Check the defining relations; raises ValueError on any failure.

        U, V and Z are cleared to Gaussian-integer numerators once, every
        product runs on ints, and x / dx is compared with y / dy as
        x dy = y dx.  P(Z + hI) is the product of the root factors
        (Z - (a - h)I)^m, one integer matrix product per factor.
        """
        n = self.dim
        parts = (self.U, self.V, self.Z, self.alpha)
        if any(len(m) != n or any(len(row) != n for row in m) for m in parts):
            raise ValueError(f"U, V, Z and alpha must be {n} x {n} matrices")
        U, V, Z = map(_numerators, (self.U, self.V, self.Z))
        # ZU - UZ = U is ZU = U(Z + I), and ZV - VZ = -V is ZV = V(Z - I)
        if not _equal(_mul(Z, U), _mul(U, _minus(Z, -GR_ONE))):
            raise ValueError("relation ZU - UZ = U fails")
        if not _equal(_mul(Z, V), _mul(V, _minus(Z, GR_ONE))):
            raise ValueError("relation ZV - VZ = -V fails")
        if not _equal(_mul(U, V), _p_at(P, Z, -_HALF)):
            raise ValueError("relation UV = P(Z - 1/2) fails")
        if not _equal(_mul(V, U), _p_at(P, Z, _HALF)):
            raise ValueError("relation VU = P(Z + 1/2) fails")

    def to_json(self) -> dict:
        def flat(m):
            return [str(c) for row in m for c in row]

        return {
            "dim": self.dim,
            "U": flat(self.U),
            "V": flat(self.V),
            "Z": flat(self.Z),
            "alpha": flat(self.alpha),
        }


def _zeros(n: int) -> list:
    """The n x n zero matrix of scalars, as row lists."""
    return [[GR_ZERO] * n for _ in range(n)]


def _numerators(m):
    """((re, im), den): entry (i, j) of the matrix m is
    (re[i][j] + im[i][j] i) / den, with re and im integer row lists and den
    the least common denominator of every entry."""
    cols = len(m[0]) if m else 0
    re, im, den = _clear_denominators(x for row in m for x in row)
    bounds = [(i * cols, (i + 1) * cols) for i in range(len(m))]
    return ([re[s:e] for s, e in bounds], [im[s:e] for s, e in bounds]), den


def _nonzero(b) -> list:
    """The nonzero entries (j, u, v) of each row of a Gaussian-integer b."""
    pairs = (enumerate(zip(ur, vr)) for ur, vr in zip(*b))
    return [[(j, u, v) for j, (u, v) in row if u or v] for row in pairs]


def _int_mul(a, b, sparse=None):
    """The product of two Gaussian-integer matrices, each a (re, im) pair of
    integer row lists, skipping zero entries; ``sparse`` is b's ``_nonzero``."""
    m = len(b[0][0]) if b[0] else 0
    sparse = _nonzero(b) if sparse is None else sparse
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


# A cleared matrix is (numerators, den): an (re, im) pair of integer row
# lists over one denominator, as ``_numerators`` returns it.


def _mul(x, y):
    """The product of two cleared matrices."""
    return _int_mul(x[0], y[0]), x[1] * y[1]


def _equal(x, y) -> bool:
    """Whether two cleared matrices of one shape are equal, by
    cross-multiplying their denominators."""
    ((x_re, x_im), dx), ((y_re, y_im), dy) = x, y
    return all(
        p * dy == q * dx
        for xr, yr in zip(x_re + x_im, y_re + y_im)
        for p, q in zip(xr, yr)
    )


def _minus(Z, c):
    """Z - cI for a cleared matrix Z and a scalar c."""
    (z_re, z_im), dz = Z
    (c_re,), (c_im,), dc = _clear_denominators([c])
    den = lcm(dz, dc)
    zs, cs = den // dz, den // dc
    re = [[x * zs for x in row] for row in z_re]
    im = [[x * zs for x in row] for row in z_im]
    for i in range(len(re)):
        re[i][i] -= c_re * cs
        im[i][i] -= c_im * cs
    return (re, im), den


def _taylor(P: FactoredPolynomial, h, size: int):
    """P(x + h), a root product, cut to its first ``size`` coefficients."""
    return _root_product(((a - h, m) for a, m in P.roots), size)


def _p_at(P: FactoredPolynomial, Z, h):
    """P(Z + hI) = prod (Z - (a - h)I)^m over the roots a of P of
    multiplicity m, for a cleared matrix Z; each factor is listed sparse once."""
    n = len(Z[0][0])
    one = [[int(i == j) for j in range(n)] for i in range(n)]
    out, den = (one, [[0] * n for _ in range(n)]), 1
    for a, m in P.roots:
        factor, df = _minus(Z, a - h)
        sparse = _nonzero(factor)
        for _ in range(m):
            out, den = _int_mul(out, factor, sparse), den * df
    return out, den


def build_string_module(
    P: FactoredPolynomial, a, j: int, lam, t
) -> ModuleRep:
    """The j-dimensional module with simple z-spectrum a+1/2, ..., a+j-1/2.

    Requires P(a) = 0 and P(a+j) = 0.  The raising generator shifts basis
    vectors up by one step; the lowering generator carries the factor
    P(a+s); alpha is diagonal with eigenvalue lam * t^s, which satisfies the
    twisting identity A.alpha = alpha.g_t(A) on all three generators.

    The two root tests are enough for the relations, so the rep is not
    validated here; ``module_trace`` validates it.
    """
    a = _as_scalar(a)
    lam = _as_scalar(lam)
    t = _as_scalar(t)
    if not t:
        raise ValueError("the twist parameter t must be nonzero")
    if j < 1:
        raise ValueError("string length must be positive")
    if not P.multiplicity(a):
        raise ValueError(f"{a} is not a root of P")
    if not P.multiplicity(a + GaussianRational(j)):
        raise ValueError(f"{a} + {j} is not a root of P")
    U, V, Z, alpha = (_zeros(j) for _ in range(4))
    for s in range(j):
        Z[s][s] = a + GaussianRational(s) + _HALF
        alpha[s][s] = lam * t**s
        if s + 1 < j:
            U[s + 1][s] = GR_ONE
        if s >= 1:
            V[s - 1][s] = _taylor(P, a + GaussianRational(s), 1).coefficient(0)
    return ModuleRep(j, *map(ModuleRep._freeze, (U, V, Z, alpha)))


def build_jordan_module(
    P: FactoredPolynomial, a, n: int, k: int, C, t
) -> ModuleRep:
    """A module of dimension n*k whose z-action has Jordan blocks of size k
    at the eigenvalues a, a+1, ..., a+n-1.

    Requires a - 1/2 and a + n - 1/2 to be roots of P of order >= k.  On
    block j the lowering generator acts by P((a+j-1/2) I + N) with N the
    nilpotent part, and the generalized twisting matrix sends the top
    generalized eigenvector e_j^(k) to C t^j e_j^(1); the induced trace has
    transform C sum_j t^j / (x-a-j)^k.

    The two multiplicity tests are enough for the relations, so the rep is
    not validated here; ``module_trace`` validates it.
    """
    a = _as_scalar(a)
    C = _as_scalar(C)
    t = _as_scalar(t)
    if not t:
        raise ValueError("the twist parameter t must be nonzero")
    if n < 1 or k < 1:
        raise ValueError("block count and block size must be positive")
    if P.multiplicity(a - _HALF) < k:
        raise ValueError(f"{a} - 1/2 is not a root of P of order >= {k}")
    if P.multiplicity(a + GaussianRational(n) - _HALF) < k:
        raise ValueError(f"{a} + {n} - 1/2 is not a root of P of order >= {k}")
    dim = n * k

    def idx(block: int, p: int) -> int:
        # p runs 1..k inside each Jordan block
        return block * k + (p - 1)

    U, V, Z, alpha = (_zeros(dim) for _ in range(4))
    for j in range(n):
        eig = a + GaussianRational(j)
        for p in range(1, k + 1):
            Z[idx(j, p)][idx(j, p)] = eig
            if p < k:
                Z[idx(j, p + 1)][idx(j, p)] = GR_ONE
            if j + 1 < n:
                U[idx(j + 1, p)][idx(j, p)] = GR_ONE
        if j >= 1:
            ladder = _taylor(P, eig - _HALF, k)  # P(a + j - 1/2 + x)
            for p in range(1, k + 1):
                for r in range(k - p + 1):
                    c = ladder.coefficient(r)
                    if c:
                        V[idx(j - 1, p + r)][idx(j, p)] = c
        alpha[idx(j, 1)][idx(j, k)] = C * t**j
    return ModuleRep(dim, *map(ModuleRep._freeze, (U, V, Z, alpha)))


def direct_sum(m1: ModuleRep, m2: ModuleRep) -> ModuleRep:
    """Block-diagonal sum; traces add."""

    def block(a, b):
        right, left = (GR_ZERO,) * len(b), (GR_ZERO,) * len(a)
        return tuple(tuple(r) + right for r in a) + tuple(left + tuple(r) for r in b)

    return ModuleRep(m1.dim + m2.dim, *map(block, m1[1:], m2[1:]))


def module_trace(M: ModuleRep, P: FactoredPolynomial, N: int) -> TruncatedSeries:
    """Moments tr(alpha . z^m) for m = 0..N of the module's induced trace.

    The rep is validated against P first, since a hand-made rep arrives
    here; the twist lives in alpha.  For any Z, the power loop holds the
    nonzero columns l of alpha, multiplied by Z^m, as numerators over
    da dz^m, and moment m is the sum of their entries in rows l.
    """
    if N < 0:
        raise ValueError(f"module trace order N must be nonnegative, got N = {N}")
    M.validate(P)
    Z, dz = _numerators(M.Z)
    (a_re, a_im), da = _numerators(M.alpha)
    cols = [l for l in range(M.dim) if any(row[l] for row in a_re + a_im)]
    c_re = [[row[l] for l in cols] for row in a_re]
    c_im = [[row[l] for l in cols] for row in a_im]
    mu_re, mu_im = [], []
    for m in range(N + 1):
        mu_re.append(sum(c_re[l][c] for c, l in enumerate(cols)))
        mu_im.append(sum(c_im[l][c] for c, l in enumerate(cols)))
        if m < N:
            c_re, c_im = _int_mul(Z, (c_re, c_im))
    return TruncatedSeries._of_numerators(mu_re, mu_im, da, dz)
