"""Pade approximants of moment series at infinity and n-degeneracy profiles.

The [n-1/n] approximant R/S of a series F = sum mu_m x^{-m-1} is determined
by the orthogonality conditions T(S(z) z^k) = 0 for k < n: S is the unique
monic polynomial of minimal degree <= n satisfying them, and R is the
polynomial part of S*F.  A trace is n-degenerate exactly when the
denominator degree drops: deg S_{n+1} <= n, equivalently the
(n+1) x (n+1) Hankel block is singular.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .exactkernel import (
    GR_ONE,
    GR_ZERO,
    DensePolynomial,
    TruncatedSeries,
    poly_gcd,
    series_of_rational,
    _HALF,
)
from .tracespace import TraceSpec


@dataclass(frozen=True)
class PadeApproximant:
    """The [n-1/n] approximant: S monic of degree <= n, deg R < deg S."""

    n: int
    S: DensePolynomial
    R: DensePolynomial

    def to_json(self) -> dict:
        return {"n": self.n, "S": self.S.to_json(), "R": self.R.to_json()}


def pade_approximant(moments: TruncatedSeries, n: int) -> PadeApproximant:
    """Compute the [n-1/n] approximant from moments mu_0..mu_{2n-1}.

    Tries denominator degrees m = 0..n in order and keeps the first that
    admits a monic solution of the orthogonality system; that solution is
    unique (two of equal minimal degree would differ by a lower-degree one).
    """
    if n < 0:
        raise ValueError("approximant order must be nonnegative")
    if n and moments.order < 2 * n - 1:
        raise ValueError(
            f"need moments to order {2 * n - 1}, have {moments.order}"
        )
    S = None
    for m in range(n + 1):
        if m == 0:
            if all(not moments[k] for k in range(n)):
                S = DensePolynomial.one()
                break
            continue
        rows = [
            [moments[i + k] for i in range(m)] for k in range(n)
        ]
        rhs = [-moments[m + k] for k in range(n)]
        sol = linalg.solve(rows, rhs)
        if sol is not None:
            S = DensePolynomial(sol + [GR_ONE])
            break
    assert S is not None  # m = n always solves: n conditions, n unknowns
    # polynomial part of S * F
    m = S.degree
    r_coeffs = []
    for jj in range(m):
        acc = GR_ZERO
        for i in range(jj + 1, m + 1):
            acc = acc + S.coefficient(i) * moments[i - jj - 1]
        r_coeffs.append(acc)
    R = DensePolynomial(r_coeffs)
    g = poly_gcd(R, S)
    if g.degree > 0:
        R = R.divmod(g)[0]
        S = S.divmod(g)[0]
    return PadeApproximant(n=n, S=S, R=R)


def is_n_degenerate(moments: TruncatedSeries, n: int) -> bool:
    """Whether some nonzero p of degree <= n kills all q of degree <= n.

    Detected through the denominator-degree drop deg S_{n+1} <= n, which is
    equivalent to singularity of the (n+1) x (n+1) Hankel block.
    """
    return pade_approximant(moments, n + 1).S.degree <= n


def degeneracy_profile(spec: TraceSpec, n_max: int):
    """Denominator degrees and n-degeneracy flags for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("profile needs n_max >= 1")
    moments = spec.moments(2 * (n_max + 1) - 1)
    approximants = {
        n: pade_approximant(moments, n) for n in range(1, n_max + 2)
    }
    out = []
    for n in range(1, n_max + 1):
        out.append(
            (n, approximants[n].S.degree, approximants[n + 1].S.degree <= n)
        )
    return out


def verify_pade_functional(spec: TraceSpec, n: int) -> int:
    """Vanishing order at infinity of the approximant's difference residual.

    Returns the exponent e of the leading x^{-e} term of
    R(x+1/2)/S(x+1/2) - t R(x-1/2)/S(x-1/2) - Q/P as a truncated series;
    a residual that vanishes through the computed depth reports depth + 2,
    a lower bound.  For the true approximant the order is >= 2n+1, and
    >= 2n+2 when t = 1.
    """
    if n < 1:
        raise ValueError("functional verification needs n >= 1")
    depth = 2 * n + spec.P.degree + 4
    moments = spec.moments(max(2 * n - 1, depth))
    approx = pade_approximant(moments, n)
    plus = series_of_rational(
        approx.R.shift(_HALF), approx.S.shift(_HALF), depth
    )
    minus = series_of_rational(
        approx.R.shift(-_HALF), approx.S.shift(-_HALF), depth
    )
    target = series_of_rational(spec.Q, spec.P.expand(), depth)
    residual = plus - minus.scale(spec.t) - target
    lead = residual.first_nonzero()
    if lead is None:
        return depth + 2
    return lead + 1
