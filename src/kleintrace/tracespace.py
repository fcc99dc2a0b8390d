"""Twisted-trace spaces: parametrization, moments, evaluation, Hankel data.

A twisted trace T (with twist parameter t) on the algebra of P is uniquely
determined by the polynomial

    Q(x) = P(x) * (F(x + 1/2) - t * F(x - 1/2)),

where F(x) = sum_n T(z^n) x^{-n-1} is the formal Stieltjes transform of the
restriction of T to C[z].  The map T -> Q is a linear isomorphism onto the
polynomials of degree <= deg P - 1 (t != 1), resp. <= deg P - 2 (t = 1), so
traces are stored as (P, t, Q) and moments are always derived on demand.
"""

from __future__ import annotations

from math import comb, lcm

from . import linalg
from .algebra import AlgebraElement
from .exactkernel import (
    GR_ONE,
    GR_ZERO,
    DensePolynomial,
    FactoredPolynomial,
    GaussianRational,
    PrincipalParts,
    TruncatedSeries,
    _as_scalar,
    _clear_denominators,
    _from_numerators,
    _series_at_infinity,
    partial_fractions,
)


def trace_dim(P: FactoredPolynomial, t) -> int:
    """Dimension of the space of twisted traces: deg P, or deg P - 1 at t=1."""
    t = _as_scalar(t)
    if not t:
        raise ValueError("the twist parameter t must be nonzero")
    d = P.degree
    if d == 0:
        raise ValueError("the defining polynomial must be nonconstant")
    return d if t != GR_ONE else max(d - 1, 0)


class _CommonDenominator:
    """A growing scalar sequence kept as Gaussian-integer numerators over one
    running least common denominator (re[k] + im[k] i) / den."""

    __slots__ = ("re", "im", "den")

    def __init__(self, values=()):
        self.re, self.im, self.den = _clear_denominators(values)

    def append(self, value: GaussianRational) -> None:
        (re,), (im,), d = _clear_denominators((value,))
        den = lcm(self.den, d)
        if den != self.den:
            k = den // self.den
            self.re = [x * k for x in self.re]
            self.im = [x * k for x in self.im]
            self.den = den
        self.re.append(re * (den // d))
        self.im.append(im * (den // d))


def _difference_sum(r: int, m0: int, t: GaussianRational, seq):
    """sum_{m=m0}^{r} w(r, m) seq[r-m], where w(r, m) is the weight of
    mu_{r-m} in the x^{-r-1} coefficient of F(x+1/2) - t F(x-1/2):
    comb(r, m)/2^m times (1 - t) for even m and times -(1 + t) for odd m.

    ``seq`` is a _CommonDenominator with numerators N.  The sums of
    comb(r, m) 2^(r-m) N_{r-m} over even and over odd m are accumulated as
    integers, and then weighted by the Gaussian integers q(1 - t) and
    -q(1 + t), q the common denominator of t.  Returns (re, im, den): the
    sum is (re + im i) / den with den = q * seq.den * 2^r.
    """
    q = lcm(t.re.denominator, t.im.denominator)
    t_re = t.re.numerator * (q // t.re.denominator)
    t_im = t.im.numerator * (q // t.im.denominator)
    re = im = 0
    # from the least even and the least odd m >= m0: the weights q(1 - t)
    # and -q(1 + t) as Gaussian integers
    for start, wa, wb in (
        (m0 + (m0 & 1), q - t_re, -t_im),
        (m0 + 1 - (m0 & 1), -q - t_re, -t_im),
    ):
        if not (wa or wb):
            continue
        sa = sb = 0
        for m in range(start, r + 1, 2):
            c = comb(r, m) << (r - m)
            sa += c * seq.re[r - m]
            sb += c * seq.im[r - m]
        re += wa * sa - wb * sb
        im += wa * sb + wb * sa
    return re, im, (q * seq.den) << r


class TraceSpec:
    """A twisted trace stored by its coordinate polynomial Q.

    Invariants: t != 0, deg P >= 1 and deg Q < trace_dim(P, t).  Instances
    are immutable; the caches of moments and of the principal parts of Q/P
    hold only what the uncached path would produce identically.
    """

    __slots__ = ("P", "t", "Q", "_mu", "_parts")

    def __init__(self, P: FactoredPolynomial, t, Q: DensePolynomial):
        t = _as_scalar(t)
        if not isinstance(Q, DensePolynomial):
            Q = DensePolynomial(Q)
        bound = trace_dim(P, t) - 1
        if Q.degree > bound:
            raise ValueError(
                f"deg Q = {Q.degree} exceeds the bound {bound} for this (P, t)"
            )
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "_mu", [])
        object.__setattr__(self, "_parts", None)

    def __setattr__(self, name, value):
        raise AttributeError("TraceSpec is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceSpec):
            return (
                self.P == other.P and self.t == other.t and self.Q == other.Q
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.P, self.t, self.Q))

    def __repr__(self) -> str:
        return f"TraceSpec(P={self.P}, t={self.t}, Q=[{self.Q}])"

    def is_zero(self) -> bool:
        return self.Q.is_zero()

    def moments(self, N: int) -> TruncatedSeries:
        """Moments T(z^0..z^N), memoized (identical to the uncached path)."""
        _check_order(N)
        if len(self._mu) <= N:
            fresh = solve_moments(self, N)
            del self._mu[:]
            self._mu.extend(fresh.coeffs)
        return TruncatedSeries(self._mu[: N + 1])

    def difference_parts(self) -> PrincipalParts:
        """D, the principal parts of Q/P, expanded on first use."""
        if self._parts is None:
            object.__setattr__(self, "_parts", partial_fractions(self.Q, self.P))
        return self._parts

    def trace_of_poly(self, q: DensePolynomial) -> GaussianRational:
        """Apply the moment functional to a polynomial in z."""
        if q.is_zero():
            return GR_ZERO
        mu = self.moments(q.degree)
        acc = GR_ZERO
        for n, c in enumerate(q.coeffs):
            if c:
                acc = acc + c * mu[n]
        return acc

    def to_json(self) -> dict:
        return {"P": self.P.to_json(), "t": str(self.t), "Q": self.Q.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "TraceSpec":
        return cls(
            FactoredPolynomial.from_json(data["P"]),
            GaussianRational.from_string(data["t"]),
            DensePolynomial.from_json(data["Q"]),
        )


def _check_order(N: int) -> None:
    if N < 0:
        raise ValueError(f"the moment order N must be at least 0, got {N}")


def solve_moments(spec: TraceSpec, N: int) -> TruncatedSeries:
    """The unique moments mu_0..mu_N of the trace with coordinate Q.

    Solves the coefficient-matching system of
    P(x)(F(x+1/2) - t F(x-1/2)) = Q(x) row by row: row r reads
    G_r = sum_m w(r, m) mu_{r-m}, where Q/P = sum G_r x^{-r-1}.  For t != 1
    it is triangular with pivot w(r, 0) = 1 - t and row r gives mu_r; at
    t = 1 every even weight vanishes and row r gives mu_{r-1}, with pivot
    w(r, 1) = -r.

    Each row runs in integers: G_r = X_r / (g d^r) from the series
    numerators of Q/P, which normalize P to monic once
    (``_series_at_infinity``); the sum over the moments so far as
    Y_r / (q D 2^r) from ``_difference_sum``, D their running common
    denominator; and the inverse pivot as a Gaussian integer over an
    integer.  Only the finished moment is turned into a scalar.  N < 0
    raises ValueError.
    """
    _check_order(N)
    t = spec.t
    if t == GR_ONE:
        m0, rows = 3, range(1, N + 2)
    else:
        m0, rows = 1, range(N + 1)
        # 1 / (1 - t) = q conj(w) / |w|^2 for the Gaussian integer w = q (1 - t)
        (w_re,), (w_im,), q = _clear_denominators((GR_ONE - t,))
        inverse = (q * w_re, -q * w_im, w_re * w_re + w_im * w_im)
    x_re, x_im, g_den, d = _series_at_infinity(spec.Q, spec.P.expand(), rows[-1])
    g_den *= d ** rows[0]
    mu = []
    seq = _CommonDenominator()
    for r in rows:
        y_re, y_im, y_den = _difference_sum(r, m0, t, seq)
        p_re, p_im, p_den = inverse if m0 == 1 else (-1, 0, r)
        # (G_r - sum) / pivot
        a = x_re[r] * y_den - y_re * g_den
        b = x_im[r] * y_den - y_im * g_den
        mu.append(
            _from_numerators(
                a * p_re - b * p_im, a * p_im + b * p_re, g_den * y_den * p_den
            )
        )
        seq.append(mu[-1])
        g_den *= d
    return TruncatedSeries(mu)


def evaluate_trace(spec: TraceSpec, a: AlgebraElement) -> GaussianRational:
    """Value of the trace on a normal-form element.

    Only the winding-zero component contributes; all other graded parts are
    annihilated.
    """
    if a.P != spec.P:
        raise ValueError("element and trace live over different algebras")
    return spec.trace_of_poly(a.component(0))


def q_from_moments(
    P: FactoredPolynomial, t, moments: TruncatedSeries
) -> DensePolynomial:
    """Invert the moment map: recover Q from leading moments.

    Q is the polynomial part of P * G, where G = F(x+1/2) - t F(x-1/2), and
    needs only G_0..G_{d-1}, hence only mu_0..mu_{d-1} (d = deg P).  The
    input is then checked by solving the moments of (P, t, Q) again to the
    same order: they must equal the given ones, all of them, else
    ``ValueError``.  A Q above the degree bound of (P, t), or t = 0, raises
    ``ValueError`` from ``TraceSpec``.
    """
    t = _as_scalar(t)
    d = P.degree
    if moments.order < d - 1:
        raise ValueError(f"need at least {d} moments to recover Q")
    seq = _CommonDenominator(moments.coeffs[:d])
    G = [_from_numerators(*_difference_sum(r, 0, t, seq)) for r in range(d)]
    Pexp = P.expand()
    coeffs = [GR_ZERO] * d
    for s in range(d):
        acc = GR_ZERO
        for r in range(s + 1):
            acc = acc + Pexp.coefficient(d - s + r) * G[r]
        coeffs[d - 1 - s] = acc
    Q = DensePolynomial(coeffs)
    if solve_moments(TraceSpec(P, t, Q), moments.order) != moments:
        raise ValueError(
            "moment sequence does not satisfy the trace difference equation"
        )
    return Q


def spec_from_moments(
    P: FactoredPolynomial, t, moments: TruncatedSeries
) -> TraceSpec:
    return TraceSpec(P, t, q_from_moments(P, t, moments))


def pullback_spec(
    spec: TraceSpec, q1: FactoredPolynomial, q2: FactoredPolynomial
) -> TraceSpec:
    """The trace on the algebra of P*Q1*Q2 with the same Stieltjes transform.

    At the coordinate level the pullback multiplies Q by Q1(x) Q2(x).
    """
    big_p = spec.P * q1 * q2
    big_q = spec.Q * q1.expand() * q2.expand()
    return TraceSpec(big_p, spec.t, big_q)


def hankel_rank(moments: TruncatedSeries, N: int) -> int:
    """Exact rank of the N x N Hankel matrix H[i][j] = mu_{i+j}."""
    if N < 0:
        raise ValueError("size must be nonnegative")
    if N and moments.order < 2 * N - 2:
        raise ValueError(f"need moments to order {2 * N - 2}, have {moments.order}")
    return linalg.rank([[moments[i + j] for j in range(N)] for i in range(N)])
