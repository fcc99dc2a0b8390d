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

from fractions import Fraction
from math import comb

from . import linalg
from .algebra import AlgebraElement
from .exactkernel import (
    GR_ONE,
    GR_ZERO,
    DensePolynomial,
    FactoredPolynomial,
    GaussianRational,
    TruncatedSeries,
    _as_scalar,
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


def _difference_weight(r: int, m: int, t: GaussianRational) -> GaussianRational:
    """Weight of mu_{r-m} in the x^{-r-1} coefficient of F(x+1/2) - t F(x-1/2)."""
    c = GaussianRational(Fraction(comb(r, m), 2**m))
    if m % 2 == 0:
        return c * (GR_ONE - t)
    return -c * (GR_ONE + t)


class TraceSpec:
    """A twisted trace stored by its coordinate polynomial Q.

    Invariants: t != 0, deg P >= 1, and deg Q <= deg P - 1 (t != 1) or
    deg Q <= deg P - 2 (t = 1).  Instances are immutable; the moment cache
    only memoizes values that the uncached path would produce identically.
    """

    __slots__ = ("P", "t", "Q", "_mu")

    def __init__(self, P: FactoredPolynomial, t, Q: DensePolynomial):
        t = _as_scalar(t)
        if not isinstance(Q, DensePolynomial):
            Q = DensePolynomial(Q)
        if not t:
            raise ValueError("the twist parameter t must be nonzero")
        d = P.degree
        if d == 0:
            raise ValueError("the defining polynomial must be nonconstant")
        bound = d - 1 if t != GR_ONE else d - 2
        if Q.degree > bound:
            raise ValueError(
                f"deg Q = {Q.degree} exceeds the bound {bound} for this (P, t)"
            )
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "_mu", [])

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
        if len(self._mu) <= N:
            fresh = solve_moments(self, N)
            del self._mu[:]
            self._mu.extend(fresh.coeffs)
        return TruncatedSeries(self._mu[: N + 1])

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


def _difference_coefficients(spec: TraceSpec, count: int):
    """G_0..G_{count-1}: the x^{-r-1} coefficients of Q/P, recursively.

    Matching coefficients in P(x) * G(x) = Q(x) from x^{deg P - 1} down is
    triangular with pivot 1 (P is monic).
    """
    P = spec.P.expand()
    d = P.degree
    G = []
    for s in range(count):
        acc = spec.Q.coefficient(d - 1 - s)
        for r in range(max(0, s - d), s):
            acc = acc - P.coefficient(d - s + r) * G[r]
        G.append(acc)
    return G


def solve_moments(spec: TraceSpec, N: int) -> TruncatedSeries:
    """The unique moments mu_0..mu_N of the trace with coordinate Q.

    Solves the coefficient-matching system of
    P(x)(F(x+1/2) - t F(x-1/2)) = Q(x): triangular with pivot (1 - t) for
    t != 1; for t = 1 the x^{-n-2} row has pivot -(n+1).
    """
    t = spec.t
    if t != GR_ONE:
        G = _difference_coefficients(spec, N + 1)
        mu = []
        pivot = GR_ONE - t
        for r in range(N + 1):
            acc = G[r]
            for m in range(1, r + 1):
                acc = acc - _difference_weight(r, m, t) * mu[r - m]
            mu.append(acc / pivot)
        return TruncatedSeries(mu)
    G = _difference_coefficients(spec, N + 2)
    mu = []
    for r in range(1, N + 2):
        # only odd m contribute at t = 1; the m = 1 weight is -r
        acc = G[r]
        for m in range(3, r + 1, 2):
            acc = acc - _difference_weight(r, m, t) * mu[r - m]
        mu.append(acc / GaussianRational(-r))
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

    Needs moments to order >= deg P - 1; any additional moments are used to
    verify that the sequence really comes from a trace of this family.
    """
    t = _as_scalar(t)
    d = P.degree
    if moments.order < d - 1:
        raise ValueError(f"need at least {d} moments to recover Q")
    G = []
    for r in range(moments.order + 1):
        acc = GR_ZERO
        for m in range(r + 1):
            w = _difference_weight(r, m, t)
            if w:
                acc = acc + w * moments[r - m]
        G.append(acc)
    Pexp = P.expand()
    coeffs = [GR_ZERO] * d
    for s in range(d):
        acc = GR_ZERO
        for r in range(s + 1):
            acc = acc + Pexp.coefficient(d - s + r) * G[r]
        coeffs[d - 1 - s] = acc
    # remaining rows must vanish: they are the x^{<0} coefficients of P*G
    for s in range(d, len(G)):
        acc = GR_ZERO
        for r in range(max(0, s - d), s + 1):
            acc = acc + Pexp.coefficient(d - s + r) * G[r]
        if acc:
            raise ValueError(
                "moment sequence does not satisfy the trace difference equation"
            )
    return DensePolynomial(coeffs)


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
