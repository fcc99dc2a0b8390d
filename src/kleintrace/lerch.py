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

F~ sums the roots of one coset on one lift.  Let a_j = r + o_j be the
roots of a coset with representative r and integer offsets o_0 < o_1 <
..., as P's coset walk (``exactkernel._roots_by_coset``) lists them, and
k a pole order.  Their points y_j = a_j - x + 1/2 lie on one
lattice, and sum_j c_j Phi(t, k, y_j) with c_j = (-1)^k D_(a_j)^(k) is one
walk y_0, y_0 + 1, ..., a run of roots: the weight w <- t w takes c_j on
as the walk reaches offset o_j, and each step adds w y^-k.  At the first
step with Re y >= M the run ends with one finish, w finish(y).  At offset
p the weight is t^p sum_j c_j t^(-o_j) over the run's roots, that is
(-1)^k t^p Delta^(k), the coset sum of ``degeneracy.delta_criterion``,
when the run holds the whole coset.  A root the run has not reached by
then starts a new run at its own point, so no root is lifted further than
``lerch_phi`` lifts it alone, and every route, bound and refusal is the
one ``lerch_phi`` has.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exactkernel import _clear_denominators, _roots_by_coset
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


# every pole order of a P of degree <= 600 fits, so no solution evicts its own
@functools.lru_cache(maxsize=1024)
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
    return _lattice_sum(t, n, _route(t, n), (x,), ((0, 0, 1 + 0j),))


def _lattice_sum(t: complex, n: int, route, ys, members) -> complex:
    """sum_j c_j Phi(t, n, ys[i_j]) over the members (o_j, i_j, c_j) of one
    lattice y_0 + Z, by ascending integer offset o_j, where
    ys[i_j] = y_0 + o_j - o_0 is off the poles, on the route (M, finish) of
    ``_route(t, n)``.

    A run starts at a member's point y and walks y, y + 1, ..., keeping
    w <- t w and adding c_j to w as it reaches o_j, and adds w y^-n at each
    step until Re y >= M; there it adds w finish(y).  It walks on to the
    next member's offset only when every step before it is below M, and
    otherwise that member starts the next run, so each step is one the
    run's first member takes on its own lift.  With one member this is the
    lift of ``lerch_phi``.
    """
    lift, finish = route
    total = 0j
    j, count = 0, len(members)
    while j < count:
        at, i, w = members[j]
        y = ys[i]
        j += 1
        while j < count:  # walk to the next member's offset, if below M
            steps = members[j][0] - at
            if y.real + (steps - 1) >= lift:
                break  # M comes first: member j starts the next run
            for _ in range(steps):
                total += w * y ** -n
                w *= t
                y += 1
            at, _, c = members[j]
            w += c
            j += 1
        while y.real < lift:
            total += w * y ** -n
            w *= t
            y += 1
        total += w * finish(y)
    return total


def stieltjes_solution(spec: TraceSpec):
    """The assembled meromorphic solution F~ as a complex callable.

    F~(x) = sum_a sum_l (-1)^l D_a^(l) Phi(t, l, a - x + 1/2); it satisfies
    the trace difference equation with datum Q/P.  Needs |t| <= 1 and
    t != 1, the unit circle included, |t| tested on the exact t; a t within
    about 0.05 of 1 makes the first evaluation raise ValueError.

    Each level (coset, k) of P's coset walk, ``exactkernel._roots_by_coset``,
    is one ``_lattice_sum``: its roots are summed in runs, one lift and one
    finish each, as the module docstring sets out.  A run ends where its
    walk reaches Re >= M before the next root's offset, and that root starts
    the next run; a run holding the whole coset finishes with the weight
    (-1)^k t^p Delta^(k).  Each point is first checked as ``lerch_phi``
    checks it, term by term in the order of D: its pole, then the route of
    each of its pole orders, ``_route``, which is cached and resolved where
    it is used.
    """
    (t_re,), (t_im,), q = _clear_denominators((spec.t,))
    if t_re * t_re + t_im * t_im > q * q:
        raise ValueError("construction needs |t| <= 1")
    t = spec.t.to_complex()
    if abs(t - 1) <= 1e-12:
        raise ValueError("t = 1 is not covered by the series construction")
    D = spec.difference_parts()
    points, index = [], {}  # per point of D: a, and its orders with a term
    for a, coeffs in D:
        index[a] = len(points)
        points.append((a.to_complex(), [k for k, c in enumerate(coeffs, 1) if c]))
    levels = []
    for _, k, roots in _roots_by_coset(spec.P):
        sign = (-1) ** k
        members = [
            (o, index[a], sign * d.to_complex())
            for a, o in roots
            if (d := D.coefficient(a, k))
        ]
        if members:
            levels.append((k, members))

    def f_tilde(x: complex) -> complex:
        ys = []
        for a, orders in points:
            y = a - x + 0.5
            _check_off_poles(y)
            for k in orders:
                _route(t, k)  # raises where lerch_phi would
            ys.append(y)
        acc = 0.0 + 0.0j
        for k, members in levels:
            acc += _lattice_sum(t, k, _route(t, k), ys, members)
        return acc

    return f_tilde


def verify_lerch_recursion(spec: TraceSpec, samples):
    """Max over samples of |F~(x+1/2) - t F~(x-1/2) - Q(x)/P(x)|.

    Samples must avoid the pole lattices a + 1/2 + Z of the solution.
    Returns (max_residual, [(x, residual), ...]).
    """
    f_tilde = stieltjes_solution(spec)
    t = spec.t.to_complex()
    q_c = [c.to_complex() for c in spec.Q.coeffs]
    # P's roots as doubles once per request, and only when a sample reads them
    roots = [(a.to_complex(), mult) for a, mult in spec.P.roots] if samples else ()
    results = []
    worst = 0.0
    for sample in samples:
        x = complex(sample)
        try:
            p_val = 1.0 + 0.0j
            for root, mult in roots:
                p_val *= (x - root) ** mult
            size = abs(p_val)  # inf or nan once a product left double range
        except OverflowError:
            size = math.inf
        if not math.isfinite(size):
            raise ValueError(f"P is out of double range at sample {x}")
        if size < 1e-12:
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

