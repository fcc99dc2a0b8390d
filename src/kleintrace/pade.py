"""Pade approximants of moment series at infinity and n-degeneracy profiles.

The [n-1/n] approximant R/S of a series F = sum mu_m x^{-m-1} is determined
by the orthogonality conditions T(S(z) z^k) = 0 for k < n, that is
S*F - R = O(x^{-n-1}): S is the unique monic polynomial of minimal degree
<= n satisfying them, read off one elimination of the n x (n+1) Hankel
block, and R is the polynomial part of S*F.  A trace is n-degenerate
exactly when the denominator degree drops: deg S_{n+1} <= n, equivalently
the (n+1) x (n+1) Hankel block is singular.

Minimality alone puts R/S in lowest terms.  If g = gcd(R, S) had degree
e >= 1, then S/g * F - R/g = (S*F - R)/g = O(x^{-n-1-e}), so the monic S/g
would satisfy the same conditions with a lower degree than S.
"""

from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .exactkernel import (
    DensePolynomial,
    TruncatedSeries,
    series_of_rational,
    _HALF,
    _clear_denominators,
    _from_numerators,
)
from .tracespace import TraceSpec


class PadeApproximant(NamedTuple):
    """The [n-1/n] approximant: S monic of degree <= n, deg R < deg S, and
    gcd(R, S) = 1 because S has minimal degree (see the module docstring)."""

    n: int
    S: DensePolynomial
    R: DensePolynomial

    def to_json(self) -> dict:
        return {"n": self.n, "S": self.S.to_json(), "R": self.R.to_json()}


def pade_approximant(moments: TruncatedSeries, n: int) -> PadeApproximant:
    """Compute the [n-1/n] approximant from moments mu_0..mu_{2n-1}.

    The coefficient vectors of the S satisfying the orthogonality system
    are the kernel vectors of the n x (n+1) Hankel block B[k][i] = mu_{i+k}.
    The least-degree monic one belongs to the first column of B that
    depends on the columns before it (n+1 columns in n rows make one
    exist), and is the first vector of ``linalg.kernel_basis``.  It is
    unique: two of equal minimal degree would differ by a lower-degree one.

    R, the polynomial part of S * F, has R_j = sum_{i>j} S_i mu_{i-j-1}.
    S and mu_0..mu_{deg S - 1} are each cleared to Gaussian-integer
    numerators over their own common denominator, so every R_j is one
    integer dot product over the product of the two denominators, turned
    into a scalar once.
    """
    if n < 0:
        raise ValueError("approximant order must be nonnegative")
    if n and moments.order < 2 * n - 1:
        raise ValueError(
            f"need moments to order {2 * n - 1}, have {moments.order}"
        )
    block = [[moments[i + k] for i in range(n + 1)] for k in range(n)]
    S = DensePolynomial(linalg.kernel_basis(block, cols=n + 1)[0])
    m = S.degree
    s_re, s_im, s_den = _clear_denominators(S.coeffs)
    u_re, u_im, u_den = _clear_denominators(moments.coeffs[:m])
    r_coeffs = []
    for j in range(m):
        re = im = 0
        for i in range(j + 1, m + 1):
            a, b = s_re[i], s_im[i]
            c, e = u_re[i - j - 1], u_im[i - j - 1]
            re += a * c - b * e
            im += a * e + b * c
        r_coeffs.append(_from_numerators(re, im, s_den * u_den))
    return PadeApproximant(n=n, S=S, R=DensePolynomial(r_coeffs))


def is_n_degenerate(moments: TruncatedSeries, n: int) -> bool:
    """Whether some nonzero p of degree <= n kills all q of degree <= n.

    Detected through the denominator-degree drop deg S_{n+1} <= n, which is
    equivalent to singularity of the (n+1) x (n+1) Hankel block.
    """
    if n < 0:
        raise ValueError(f"n-degeneracy needs n >= 0, got n = {n}")
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
