"""Finite-dimensional modules and the traces they induce.

A module over the algebra of P is a quadruple of matrices (U, V, Z) obeying
the defining relations exactly, plus a twisting matrix alpha; the induced
trace sends a to tr(alpha . a).  String modules (simple z-spectrum strung
between two roots at integer distance) give every degenerate trace whose
transform has only simple poles; Jordan-block modules with a generalized
alpha cover higher pole orders.
"""

from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .exactkernel import (
    GR_ONE,
    GR_ZERO,
    FactoredPolynomial,
    GaussianRational,
    TruncatedSeries,
    _HALF,
    _as_scalar,
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
        """Check the defining relations; raises ValueError on any failure."""
        U, V, Z, _ = self.matrices()
        pexp = P.expand()
        comm_u = linalg.mat_sub(linalg.mat_mul(Z, U), linalg.mat_mul(U, Z))
        if not linalg.mat_eq(comm_u, U):
            raise ValueError("relation ZU - UZ = U fails")
        comm_v = linalg.mat_sub(linalg.mat_mul(Z, V), linalg.mat_mul(V, Z))
        if not linalg.mat_eq(comm_v, linalg.mat_scale(V, -GR_ONE)):
            raise ValueError("relation ZV - VZ = -V fails")
        if not linalg.mat_eq(
            linalg.mat_mul(U, V), linalg.poly_at_matrix(pexp.shift(-_HALF), Z)
        ):
            raise ValueError("relation UV = P(Z - 1/2) fails")
        if not linalg.mat_eq(
            linalg.mat_mul(V, U), linalg.poly_at_matrix(pexp.shift(_HALF), Z)
        ):
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


def build_string_module(
    P: FactoredPolynomial, a, j: int, lam, t
) -> ModuleRep:
    """The j-dimensional module with simple z-spectrum a+1/2, ..., a+j-1/2.

    Requires P(a) = 0 and P(a+j) = 0.  The raising generator shifts basis
    vectors up by one step; the lowering generator carries the factor
    P(a+s); alpha is diagonal with eigenvalue lam * t^s, which satisfies the
    twisting identity A.alpha = alpha.g_t(A) on all three generators.
    """
    a = _as_scalar(a)
    lam = _as_scalar(lam)
    t = _as_scalar(t)
    if not t:
        raise ValueError("the twist parameter t must be nonzero")
    if j < 1:
        raise ValueError("string length must be positive")
    if P.evaluate(a):
        raise ValueError(f"{a} is not a root of P")
    if P.evaluate(a + GaussianRational(j)):
        raise ValueError(f"{a} + {j} is not a root of P")
    U = linalg.zeros(j, j)
    V = linalg.zeros(j, j)
    Z = linalg.zeros(j, j)
    alpha = linalg.zeros(j, j)
    for s in range(j):
        Z[s][s] = a + GaussianRational(s) + _HALF
        alpha[s][s] = lam * t**s
        if s + 1 < j:
            U[s + 1][s] = GR_ONE
        if s >= 1:
            V[s - 1][s] = P.evaluate(a + GaussianRational(s))
    rep = ModuleRep(
        dim=j,
        U=ModuleRep._freeze(U),
        V=ModuleRep._freeze(V),
        Z=ModuleRep._freeze(Z),
        alpha=ModuleRep._freeze(alpha),
    )
    rep.validate(P)
    return rep


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
    pexp = P.expand()

    def idx(block: int, p: int) -> int:
        # p runs 1..k inside each Jordan block
        return block * k + (p - 1)

    U = linalg.zeros(dim, dim)
    V = linalg.zeros(dim, dim)
    Z = linalg.zeros(dim, dim)
    alpha = linalg.zeros(dim, dim)
    for j in range(n):
        eig = a + GaussianRational(j)
        for p in range(1, k + 1):
            Z[idx(j, p)][idx(j, p)] = eig
            if p < k:
                Z[idx(j, p + 1)][idx(j, p)] = GR_ONE
            if j + 1 < n:
                U[idx(j + 1, p)][idx(j, p)] = GR_ONE
        if j >= 1:
            ladder = pexp.shift(eig - _HALF)  # P(a + j - 1/2 + x)
            for p in range(1, k + 1):
                for r in range(k - p + 1):
                    c = ladder.coefficient(r)
                    if c:
                        V[idx(j - 1, p + r)][idx(j, p)] = c
        alpha[idx(j, 1)][idx(j, k)] = C * t**j
    rep = ModuleRep(
        dim=dim,
        U=ModuleRep._freeze(U),
        V=ModuleRep._freeze(V),
        Z=ModuleRep._freeze(Z),
        alpha=ModuleRep._freeze(alpha),
    )
    rep.validate(P)
    return rep


def direct_sum(m1: ModuleRep, m2: ModuleRep) -> ModuleRep:
    """Block-diagonal sum; traces add."""

    def block(a, b):
        na, nb = len(a), len(b)
        out = linalg.zeros(na + nb, na + nb)
        for i in range(na):
            for jj in range(na):
                out[i][jj] = a[i][jj]
        for i in range(nb):
            for jj in range(nb):
                out[na + i][na + jj] = b[i][jj]
        return ModuleRep._freeze(out)

    return ModuleRep(
        dim=m1.dim + m2.dim,
        U=block(m1.U, m2.U),
        V=block(m1.V, m2.V),
        Z=block(m1.Z, m2.Z),
        alpha=block(m1.alpha, m2.alpha),
    )


def module_trace(
    M: ModuleRep, P: FactoredPolynomial, t, N: int
) -> TruncatedSeries:
    """Moments tr(alpha . z^m) for m = 0..N of the module's induced trace."""
    M.validate(P)
    _, _, Z, alpha = M.matrices()
    dim = M.dim
    power = linalg.identity(dim)
    mu = []
    for _ in range(N + 1):
        acc = GR_ZERO
        for i in range(dim):
            for l in range(dim):
                if alpha[i][l] and power[l][i]:
                    acc = acc + alpha[i][l] * power[l][i]
        mu.append(acc)
        power = linalg.mat_mul(power, Z)
    return TruncatedSeries(mu)
