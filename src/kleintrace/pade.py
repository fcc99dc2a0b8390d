"""Pade approximants of moment series at infinity and n-degeneracy profiles.

The [n-1/n] approximant R/S of a series F = sum mu_m x^{-m-1} is determined
by the orthogonality conditions T(S(z) z^k) = 0 for k < n, that is
S*F - R = O(x^{-n-1}): S is the unique monic polynomial of minimal degree
<= n satisfying them, and R is the polynomial part of S*F.  A trace is
n-degenerate exactly when the denominator degree drops: deg S_{n+1} <= n,
equivalently the (n+1) x (n+1) Hankel block is singular.

Every S_n of one series comes from one Berlekamp-Massey pass (Massey 1969)
over mu_0, mu_1, ...: after k terms it holds the linear complexity l(k) of
mu_0..mu_{k-1} and a connection polynomial C_k of that length, a linear
recurrence sum_{j<=l} C_j mu_{r-j} = 0 for l <= r < k with C_0 != 0.  The
reading rule:

    deg S_n is the least m <= n with l(m + n) <= m, and
    S_n is C_{m+n} reversed at length m: S_i = C_{m-i} / C_0.

Proof.  Write S_i = C_{m-i}.  Then sum_i S_i mu_{i+k} = sum_j C_j mu_{m+k-j},
so a monic S of degree m meets the n conditions exactly when its reversal
is a recurrence of length m for mu_0..mu_{m+n-1}.  Such a recurrence exists
iff l(m + n) <= m, since a recurrence of length l is one of every length
>= l.  For the least such m even l(m + n) = m: a recurrence of length
l < m for the longer prefix would reverse to a solution of degree l.  As
m <= n, that length is at most half the prefix, and a minimal recurrence
of length <= k/2 is unique up to scale (Massey 1969), so C_{m+n} reverses
to the least-degree Hankel solution, inside singular blocks and runs of
zeros too.

The pass is fraction-free over Z[i].  It reads the series' kept
Gaussian-integer numerators (a common scale changes no recurrence), and
Massey's update C <- C - (d/b) x^g B becomes C <- b C - d x^g B on ints.
After every update C is multiplied by conj(C_0) and divided by the gcd of
all its parts, so that C_0 > 0 and the parts are coprime; without that the
factors b and d pile up in C at every step and the integers blow up.  The
pass lives on the series and resumes where the last read stopped.

Minimality alone puts R/S in lowest terms.  If g = gcd(R, S) had degree
e >= 1, then S/g * F - R/g = (S*F - R)/g = O(x^{-n-1-e}), so the monic S/g
would satisfy the same conditions with a lower degree than S.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .exactkernel import (
    DensePolynomial,
    TruncatedSeries,
    series_of_rational,
    _HALF,
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


class _MasseyPass:
    """The resumable Berlekamp-Massey pass of one series over Z[i].

    ``lengths[k]`` and ``polys[k]`` are l(k) and C_k, an (re, im) pair of
    int lists with C_0 > 0 and coprime parts, after the first k terms.
    """

    __slots__ = ("re", "im", "den", "lengths", "polys", "_b", "_bd", "_gap")

    def __init__(self, moments: TruncatedSeries):
        self.re, self.im, self.den = moments.numerators()
        self.lengths = [0]
        self.polys = [([1], [0])]
        self._b = ([1], [0])  # C before the last length change
        self._bd = (1, 0)  # the discrepancy it had then
        self._gap = 1  # terms since that change

    def run(self, count: int) -> None:
        """Extend the pass over the first ``count`` terms."""
        re, im, lengths, polys = self.re, self.im, self.lengths, self.polys
        c_re, c_im = polys[-1]
        for k in range(len(lengths) - 1, count):
            ell = lengths[-1]
            dr = di = 0
            for j, (a, b) in enumerate(zip(c_re, c_im)):
                x, y = re[k - j], im[k - j]
                dr += a * x - b * y
                di += a * y + b * x
            if not (dr or di):
                self._gap += 1
            else:
                (b_re, b_im), (br, bi), gap = self._b, self._bd, self._gap
                size = max(len(c_re), gap + len(b_re))
                n_re = [br * a - bi * b for a, b in zip(c_re, c_im)]
                n_im = [br * b + bi * a for a, b in zip(c_re, c_im)]
                n_re += [0] * (size - len(n_re))
                n_im += [0] * (size - len(n_im))
                for j, (a, b) in enumerate(zip(b_re, b_im), gap):
                    n_re[j] -= dr * a - di * b
                    n_im[j] -= dr * b + di * a
                while not (n_re[-1] or n_im[-1]):
                    n_re.pop()
                    n_im.pop()
                if 2 * ell <= k:
                    self._b, self._bd, self._gap = (c_re, c_im), (dr, di), 1
                    ell = k + 1 - ell
                else:
                    self._gap += 1
                c_re, c_im = _normalized(n_re, n_im)
            lengths.append(ell)
            polys.append((c_re, c_im))

    def degree(self, n: int) -> int:
        """deg S_n, the least m <= n with l(m + n) <= m."""
        self.run(2 * n)
        lengths = self.lengths
        return next(m for m in range(n + 1) if lengths[m + n] <= m)


def _normalized(c_re, c_im):
    """c * conj(c_0) / g, g the gcd of every part: c_0 > 0, parts coprime.

    The content is divided out first, so the product with conj(c_0) runs on
    the smallest numbers; the result is the same.
    """
    c_re, c_im = _primitive(c_re, c_im)
    a, b = c_re[0], -c_im[0]
    if b:
        return _primitive(
            [x * a - y * b for x, y in zip(c_re, c_im)],
            [x * b + y * a for x, y in zip(c_re, c_im)],
        )
    if a < 0:
        return [-x for x in c_re], [-y for y in c_im]
    return c_re, c_im


def _primitive(c_re, c_im):
    """c over the gcd of every part."""
    g = gcd(*c_re, *c_im)
    if g == 1:
        return c_re, c_im
    return [x // g for x in c_re], [y // g for y in c_im]


def _massey_pass(moments: TruncatedSeries, n: int) -> _MasseyPass:
    """The series' pass, made on first use, after checking it reaches S_n."""
    if n < 0:
        raise ValueError("approximant order must be nonnegative")
    if n and moments.order < 2 * n - 1:
        raise ValueError(
            f"need moments to order {2 * n - 1}, have {moments.order}"
        )
    if moments._massey is None:
        object.__setattr__(moments, "_massey", _MasseyPass(moments))
    return moments._massey


def pade_approximant(moments: TruncatedSeries, n: int) -> PadeApproximant:
    """Compute the [n-1/n] approximant from moments mu_0..mu_{2n-1}.

    S is read off the series' Berlekamp-Massey pass by the rule in the
    module docstring, so S_i = C_{m-i} / C_0 with Gaussian-integer C.  R,
    the polynomial part of S * F, has R_j = sum_{i>j} S_i mu_{i-j-1}; on
    the pass's numerators mu_k = u_k / den every R_j is one integer dot
    product over C_0 den; both are handed over as integers.
    """
    p = _massey_pass(moments, n)
    m = p.degree(n)
    c_re, c_im = p.polys[m + n]
    c_re = c_re + [0] * (m + 1 - len(c_re))
    c_im = c_im + [0] * (m + 1 - len(c_im))
    c0 = c_re[0]
    S = DensePolynomial._of_numerators(c_re[m::-1], c_im[m::-1], c0)
    u_re, u_im = p.re, p.im
    r_re, r_im = [], []
    for j in range(m):
        re = im = 0
        for i in range(j + 1, m + 1):
            a, b = c_re[m - i], c_im[m - i]
            c, e = u_re[i - j - 1], u_im[i - j - 1]
            re += a * c - b * e
            im += a * e + b * c
        r_re.append(re)
        r_im.append(im)
    R = DensePolynomial._of_numerators(r_re, r_im, c0 * p.den)
    return PadeApproximant(n=n, S=S, R=R)


def is_n_degenerate(moments: TruncatedSeries, n: int) -> bool:
    """Whether some nonzero p of degree <= n kills all q of degree <= n.

    Detected through the denominator-degree drop deg S_{n+1} <= n, which is
    equivalent to singularity of the (n+1) x (n+1) Hankel block.  Paper
    surface: the paper's n-degeneracy as a predicate of its own, which no
    package code calls, as ``degeneracy_profile`` reads the same pass for
    every n at once.
    """
    if n < 0:
        raise ValueError(f"n-degeneracy needs n >= 0, got n = {n}")
    return _massey_pass(moments, n + 1).degree(n + 1) <= n


def degeneracy_profile(spec: TraceSpec, n_max: int):
    """Denominator degrees and n-degeneracy flags for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("profile needs n_max >= 1")
    p = _massey_pass(spec.moments(2 * (n_max + 1) - 1), n_max + 1)
    degrees = [p.degree(n) for n in range(n_max + 2)]
    return [(n, degrees[n], degrees[n + 1] <= n) for n in range(1, n_max + 1)]


def verify_pade_functional(spec: TraceSpec, n: int) -> int:
    """Vanishing order at infinity of the approximant's difference residual.

    Returns the exponent e of the leading x^{-e} term of
    R(x+1/2)/S(x+1/2) - t R(x-1/2)/S(x-1/2) - Q/P as a truncated series;
    a residual that vanishes through the computed depth reports depth + 2,
    a lower bound.  For the true approximant with deg S_n = m the order is
    >= n + m + 1, and >= n + m + 2 when t = 1: S F - R = O(x^{-n-1}) gives
    E = R/S - F = O(x^{-n-m-1}), and the residual is
    E(x+1/2) - t E(x-1/2), whose leading terms cancel at t = 1.  With
    m < n (a singular Hankel block) that is less than 2n + 1.
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
