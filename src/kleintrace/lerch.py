"""Floating-point Lerch sums and numeric verification of the trace
difference equation.

Phi(t, n, x) = sum_{j>=0} t^j / (x+j)^n, for a positive integer n and x off
the poles Z_{<=0}, converges for |t| < 1, for |t| = 1 with t != 1, and at
t = 1 for n >= 2 (the Hurwitz zeta function); only t = 1 with n = 1
diverges.  Out of sum_a sum_l (-1)^l D_a^(l) Phi(t, l, a-x+1/2) one
assembles a meromorphic solution F~ of

    F~(x + 1/2) - t F~(x - 1/2) = Q(x)/P(x),

the same equation the (generally divergent) moment series satisfies
formally.  This module evaluates Phi and measures the residual of that
recursion on sample points; everything here is double precision, the one
place in the package where floats are allowed.

``lerch_phi`` lifts x by Phi(t,n,x) = x^-n + t Phi(t,n,x+1) until Re x >= M
and then sums a fixed number of terms, with no running tail test:

* direct: sum_{j<J} t^j (x+j)^-n with J = ceil(log(eps (1-|t|)) / log|t|),
  M = 0.  As |x+j| grows with j once Re x >= 0, the tail is at most
  |t|^J |x|^-n / (1-|t|) <= eps |x|^-n.
* asymptotic (Ferreira and Lopez 2004, J. Math. Anal. Appl. 298): for
  Re x > 0, Phi = (1/Gamma(n)) int_0^oo u^(n-1) e^(-xu) g(u) du with
  g(u) = 1/(1 - t e^-u).  Expanding g = sum_k c_k u^k gives
  Phi ~ sum_{k<K} c_k (n)_k x^(-n-k), where c_k (n)_k = (-1)^k
  C(n+k-1, k) L_k(t), L_0 = 1/(1-t) and L_k = t A_k(t)/(1-t)^(k+1) with
  A_k the Eulerian polynomial.  g has simple poles of residue 1 at
  u_m = Log t + 2 pi i m, so the Taylor remainder is
  sum_m (u/u_m)^K/(u - u_m).  As |u - u_m| >= |u_m| for u >= 0 and
  |t| <= 1, and sum_m |u_m|^(-K-1) <= 3.01 r^(-K-1) with
  r = min(|Log t|, pi) (|u_m| >= (2|m| - 1) pi for m != 0), the
  truncation error is at most 3.01 (n)_K r^(-K-1) (Re x)^(-n-K).
* t = 1, n >= 2: the same expansion of g(u) - 1/u, which is Euler-Maclaurin
  for the Hurwitz zeta function (Johansson 2015, Numer. Algorithms 69):
  zeta(n, x) ~ x^(1-n)/(n-1) + sum_{k<K} B_(k+1)/(k+1) C(n+k-1, k)
  x^(-n-k) with B_1 = +1/2; the poles u_m = 2 pi i m (m != 0) give the
  same bound with r = 2 pi.

Here K = 30 and eps = 1e-16.  For the asymptotic series M is the least
lift that makes the bound eps (Re x)^-n, so it grows like 1/r, i.e. like
1/|1-t| near t = 1 (M = 14 at t = -1, 27 at t = i, for n = 1).  Of the two
routes the one with fewer planned terms (J, or M + K) is taken; when
even that plans more than TERM_CAP terms (|1 - t| below about 0.05, a
little more for large n), ``lerch_phi`` raises ValueError before summing.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .tracespace import TraceSpec

_POLE_TOL = 1e-9
# target of both truncation bounds, relative to |x|^-n or (Re x)^-n
_EPS = 1e-16
# terms of the asymptotic series, and the most terms (lift from Re x = 0
# to M plus the finishing sum) a route may plan; a point with Re x < 0
# costs ceil(-Re x) lift steps on top
_ASYMPTOTIC_TERMS = 30
TERM_CAP = 1000


def _eulerian(count: int) -> list[list[int]]:
    """Coefficients of the Eulerian polynomials A_0..A_(count-1), ascending."""
    rows = [[1]]
    for k in range(1, count):
        # A(k, m) = (m + 1) A(k-1, m) + (k - m) A(k-1, m-1); prev[m + 1] = A(k-1, m)
        prev = [0] + rows[-1] + [0]
        rows.append([(m + 1) * prev[m + 1] + (k - m) * prev[m] for m in range(k)])
    return rows


def _bernoulli_plus(count: int) -> list[Fraction]:
    """B_0..B_(count-1) with B_1 = +1/2: the coefficients of u/(1 - e^-u)."""
    b = [Fraction(1)]
    for m in range(1, count):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    b[1] = -b[1]
    return b


def _check_off_poles(x: complex) -> None:
    """ValueError when x is within _POLE_TOL of a pole, an integer <= 0."""
    if abs(x.imag) > _POLE_TOL:
        return
    nearest = round(x.real)
    if nearest <= 0 and abs(x.real - nearest) <= _POLE_TOL:
        raise ValueError(f"x = {x} is within {_POLE_TOL} of a pole")


def _asymptotic_lift(t: complex, n: int) -> float:
    """The least integer M >= 1 with 3.01 (n)_K r^(-K-1) M^(-K) <= eps, or
    inf if M would pass TERM_CAP."""
    K = _ASYMPTOTIC_TERMS
    if t == 1:
        r = 2 * math.pi
    else:  # |Log t|, capped at pi
        r = min(math.hypot(math.log(abs(t)), math.atan2(t.imag, t.real)), math.pi)
    log_m = (
        math.log(3.01 / _EPS) + math.lgamma(n + K) - math.lgamma(n)
        - (K + 1) * math.log(r)
    ) / K
    if log_m >= math.log(TERM_CAP):
        return math.inf
    return max(1, math.ceil(math.exp(log_m)))


def _direct_sum(t: complex, n: int, terms: int):
    def finish(x: complex) -> complex:
        acc = 0j
        tp = 1 + 0j
        for j in range(terms):
            acc += tp * (x + j) ** -n
            tp *= t
        return acc

    return finish


def _asymptotic_sum(t: complex, n: int):
    K = _ASYMPTOTIC_TERMS
    # the exact tables are built per plan, which _route caches, and not at
    # import: the Bernoulli numbers alone take about 2 ms
    if t == 1:
        bernoulli = _bernoulli_plus(K + 1)[1:]
        ell = [float(b / (k + 1)) for k, b in enumerate(bernoulli)]
    else:
        # (-1)^k L_k = (-w)^k t A_k(t) w with w = 1/(1 - t)
        w = 1 / (1 - t)
        ell = [w]
        eulerian = _eulerian(K)
        for k in range(1, K):
            a_k = 0j
            for coeff in reversed(eulerian[k]):
                a_k = a_k * t + coeff
            ell.append((-w) ** k * t * a_k * w)
    # Horner order: highest power of 1/x first
    coeffs = [math.comb(n + k - 1, k) * ell[k] for k in reversed(range(K))]
    pole = 1 / (n - 1) if t == 1 else 0.0

    def finish(x: complex) -> complex:
        y = 1 / x
        acc = 0j
        for c in coeffs:
            acc = acc * y + c
        return x ** -n * (acc + pole * x)

    return finish


@functools.lru_cache(maxsize=32)
def _route(t: complex, n: int):
    """(M, finish): lift x to Re x >= M, then Phi(t, n, x) = finish(x).
    The cheaper of the two routes, or ValueError past TERM_CAP terms."""
    if t == 1 and n == 1:
        raise ValueError("Phi(1, 1, x) is the harmonic series: it diverges")
    at = abs(t)
    direct = math.inf
    if at == 0:
        direct = 1
    elif at < 1:
        direct = math.ceil(math.log(_EPS * (1 - at)) / math.log(at))
    lift = _asymptotic_lift(t, n) if t else math.inf
    cost = lift + _ASYMPTOTIC_TERMS
    if min(direct, cost) > TERM_CAP:
        raise ValueError(
            f"t = {t} is too close to 1: Phi would need more than {TERM_CAP} terms"
        )
    if direct <= cost:
        return 0, _direct_sum(t, n, direct)
    return lift, _asymptotic_sum(t, n)


def lerch_phi(t: complex, n: int, x: complex) -> complex:
    """Evaluate Phi(t, n, x) = sum_j t^j/(x+j)^n.

    n must be a positive integer, |t| <= 1, and x off the pole set Z_{<=0}
    (by 1e-9); t = 1 needs n >= 2.  Points with Re x < M are lifted through
    Phi(t,n,x) = x^-n + t Phi(t,n,x+1), then one of the fixed-length sums of
    the module docstring finishes: a direct sum where |t| is well below 1,
    the asymptotic series otherwise.  Each truncation bound is 1e-16
    relative to |x|^-n (direct) or (Re x)^-n (asymptotic) at the lifted x;
    a call runs at most TERM_CAP + ceil(-Re x) terms.  A t within about
    0.05 of 1 (other than t = 1 itself) raises ValueError.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"the pole order n must be a positive integer, got {n!r}")
    t = complex(t)
    x = complex(x)
    if abs(t) > 1 + 1e-12:
        raise ValueError(f"|t| = {abs(t)} > 1: series diverges")
    _check_off_poles(x)
    return _lifted_sum(t, n, x, _route(t, n))


def _lifted_sum(t: complex, n: int, x: complex, route) -> complex:
    """Phi(t, n, x) on the route (M, finish) of ``_route(t, n)``: lift x to
    Re x >= M, then finish."""
    lift, finish = route
    head = 0j
    weight = 1 + 0j
    while x.real < lift:
        head += weight * x ** -n
        weight *= t
        x += 1
    return head + weight * finish(x)


def _rational_data(spec: TraceSpec):
    """Difference-datum principal parts of Q/P as complex triples."""
    terms = []
    for a, coeffs in spec.difference_parts():
        ac = a.to_complex()
        for order, coeff in enumerate(coeffs, start=1):
            if coeff:
                terms.append((ac, order, coeff.to_complex()))
    return terms


def stieltjes_solution(spec: TraceSpec):
    """The assembled meromorphic solution F~ as a complex callable.

    F~(x) = sum_a sum_l (-1)^l D_a^(l) Phi(t, l, a - x + 1/2); it satisfies
    the trace difference equation with datum Q/P.  Needs |t| <= 1 and
    t != 1, the unit circle included; a t within about 0.05 of 1 makes
    the first evaluation raise ValueError, as ``lerch_phi`` would.  Each
    pole order's route is resolved once, at the first point that needs it,
    and every point is checked against the poles; the sum is the one that
    ``lerch_phi`` makes, term by term.
    """
    t = spec.t.to_complex()
    if abs(t) > 1 + 1e-12:
        raise ValueError("construction needs |t| <= 1")
    if abs(t - 1) <= 1e-12:
        raise ValueError("t = 1 is not covered by the series construction")
    terms = _rational_data(spec)
    # order -> route, resolved at the first point that needs it, so that a
    # pole and a t too close to 1 are reported in the order lerch_phi would
    routes = {}

    def f_tilde(x: complex) -> complex:
        acc = 0.0 + 0.0j
        for a, order, coeff in terms:
            y = a - x + 0.5
            _check_off_poles(y)
            route = routes.get(order)
            if route is None:
                route = routes[order] = _route(t, order)
            acc += (-1) ** order * coeff * _lifted_sum(t, order, y, route)
        return acc

    return f_tilde


def verify_lerch_recursion(spec: TraceSpec, samples):
    """Max over samples of |F~(x+1/2) - t F~(x-1/2) - Q(x)/P(x)|.

    Samples must avoid the pole lattices a + 1/2 + Z of the solution.
    Returns (max_residual, [(x, residual), ...]).
    """
    t = spec.t.to_complex()
    f_tilde = stieltjes_solution(spec)
    q_c = [c.to_complex() for c in spec.Q.coeffs]
    results = []
    worst = 0.0
    for sample in samples:
        x = complex(sample)
        p_val = 1.0 + 0.0j
        for root, mult in spec.P.roots:
            p_val *= (x - root.to_complex()) ** mult
        if abs(p_val) < 1e-12:
            raise ValueError(f"sample {x} is too close to a root of P")
        q_val = 0.0 + 0.0j
        for c in reversed(q_c):
            q_val = q_val * x + c
        residual = abs(
            f_tilde(x + 0.5) - t * f_tilde(x - 0.5) - q_val / p_val
        )
        results.append((x, residual))
        worst = max(worst, residual)
    return worst, results


def moment_divergence_profile(spec: TraceSpec, n_lo: int, n_hi: int):
    """The diagnostic sequence |mu_n|^(1/n) / n for n_lo <= n <= n_hi.

    For a nondegenerate trace the moment series has radius of convergence
    zero, so this stays bounded away from 0; computed from exact moments,
    floated only through logarithms to dodge overflow.
    """
    if n_lo < 1:
        raise ValueError(f"the divergence profile needs n_lo >= 1, got n_lo = {n_lo}")
    moments = spec.moments(n_hi)
    out = []
    for n in range(n_lo, n_hi + 1):
        mu = moments[n]
        norm2 = mu.re * mu.re + mu.im * mu.im
        if norm2 == 0:
            out.append(0.0)
            continue
        log_abs = 0.5 * (math.log(norm2.numerator) - math.log(norm2.denominator))
        out.append(math.exp(log_abs / n) / n)
    return out
