"""Twisted-trace spaces: parametrization, moments, evaluation, Hankel data.

A twisted trace T (with twist parameter t) on the algebra of P is uniquely
determined by the polynomial

    Q(x) = P(x) * (F(x + 1/2) - t * F(x - 1/2)),

where F(x) = sum_n T(z^n) x^{-n-1} is the formal Stieltjes transform of the
restriction of T to C[z].  The map T -> Q is a linear isomorphism onto the
polynomials of degree <= deg P - 1 (t != 1), resp. <= deg P - 2 (t = 1), so
traces are stored as (P, t, Q).  Moments are derived on demand, and each
trace keeps the longest series asked for (``TraceSpec``); a longer read
solves only the rows past the kept ones (``solve_moments``); the inverse map
``q_from_moments`` checks a moment sequence by one integer identity on P's
slot form instead of solving it again.

Moments stay Gaussian integers.  ``solve_moments`` makes them as
numerators over one running least common denominator, which is the one
form of the series it returns, and ``trace_of_poly``, ``hankel_rank`` and
``q_from_moments`` read that form (``TruncatedSeries.numerators()``), as
does the Berlekamp-Massey pass of ``pade``; a moment becomes a scalar only
when it is read as one, for printing or a scalar comparison.  So do the
polynomials around them: ``trace_of_poly`` and ``solve_moments`` read a
polynomial's integer form, and ``q_from_moments`` hands Q over as one.
"""

from __future__ import annotations

from functools import cache
from math import comb, gcd, lcm
from operator import mul

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
    _from_slots,
    _series_numerators,
    _top_down,
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
    running least common denominator: value k is (re[k] + im[k] i) / den."""

    __slots__ = ("re", "im", "den")

    def __init__(self, re=(), im=(), den=1):
        self.re, self.im, self.den = list(re), list(im), den

    def append(self, re: int, im: int, den: int) -> None:
        """Append (re + im i) / den, den > 0 the least common denominator of
        its two parts: lcm(den, self.den) is then the new common one."""
        full = lcm(self.den, den)
        if full != self.den:
            k = full // self.den
            self.re = [x * k for x in self.re]
            self.im = [x * k for x in self.im]
            self.den = full
        k = full // den
        self.re.append(re * k)
        self.im.append(im * k)


PASCAL_BOUND = 64  # table rows: 93 KB; 128 rows would take 409 KB


@cache
def _pascal_table() -> tuple:
    """Rows r < PASCAL_BOUND of comb(r, m) 2^(r-m), m = 0..r, split by the
    parity of m as (row[0::2], row[1::2]); built once, on first use."""
    return tuple(
        tuple(tuple(comb(r, m) << (r - m) for m in range(p, r + 1, 2)) for p in (0, 1))
        for r in range(PASCAL_BOUND)
    )


def _pascal_rows(rows: range):
    """The split Pascal rows r in ``rows``: the table's, then rows carried
    from its last, entry m of row r + 1 being 2 row_r[m] + row_r[m - 1]."""
    yield from _pascal_table()[rows.start : rows.stop]
    row = [0] * PASCAL_BOUND
    row[::2], row[1::2] = _pascal_table()[-1]
    for r in range(PASCAL_BOUND, rows.stop):
        row = [a + a + b for a, b in zip(row + [0], [0] + row)]
        if r >= rows.start:
            yield row[::2], row[1::2]


def _difference_sums(t: GaussianRational, seq, rows: range):
    """For each r in ``rows``, the x^{-r-1} coefficient of
    F(x+1/2) - t F(x-1/2) over the moments that ``seq`` holds, any moment
    not yet in it counted as zero: sum_{m=0}^{r} w(r, m) mu_{r-m}, where
    w(r, m) is comb(r, m)/2^m times (1 - t) for even m and times -(1 + t)
    for odd m.

    ``seq`` is a _CommonDenominator with numerators N, read when a sum is
    due, so a caller may append to it between rows.  The Pascal row
    comb(r, m) 2^(r-m), m = 0..r, split by the parity of m, is read from
    the process-wide table (``_pascal_rows``).  The sums of row[m] N_{r-m}
    over even and over odd m are integers, then weighted by the Gaussian
    integers q(1 - t) and -q(1 + t), q the common denominator of t.  Yields
    (re, im, den): the sum is (re + im i) / den with den = q * seq.den * 2^r.
    """
    q = lcm(t.re.denominator, t.im.denominator)
    t_re = t.re.numerator * (q // t.re.denominator)
    t_im = t.im.numerator * (q // t.im.denominator)
    # the weights q(1 - t) of even m and -q(1 + t) of odd m as Gaussian
    # integers; at t = 1 the even one vanishes
    parities = [
        (p, wa, -t_im) for p, wa in ((0, q - t_re), (1, -q - t_re)) if wa or t_im
    ]
    for r, halves in zip(rows, _pascal_rows(rows)):
        # N_{r-m} is in seq for m >= m0; below m0 the moment counts as zero
        m0 = max(0, r + 1 - len(seq.re))
        re = im = 0
        for p, wa, wb in parities:
            # m = start, start + 2, .. <= r against seq[r - m] downwards;
            # no terms when start > r, whatever the second slice holds
            start = m0 + ((m0 + p) & 1)
            c = halves[p][start >> 1 :]
            sa = sum(map(mul, c, seq.re[r - start :: -2]))
            sb = sum(map(mul, c, seq.im[r - start :: -2]))
            re += wa * sa - wb * sb
            im += wa * sb + wb * sa
        yield re, im, (q * seq.den) << r


class TraceSpec:
    """A twisted trace stored by its coordinate polynomial Q.

    Invariants: t != 0, deg P >= 1 and deg Q < trace_dim(P, t).  Instances
    are immutable; the caches of moments and of the principal parts of Q/P
    hold only what the uncached path would produce identically.  The moments
    are kept as one ``TruncatedSeries``, ``solve_moments`` to the longest
    order asked for so far, in its integer form: readers of that order get
    the kept object itself, with the Berlekamp-Massey pass that ``pade``
    attaches to it, shorter reads a truncation that shares that pass.
    """

    __slots__ = ("P", "t", "Q", "_series", "_parts")

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
        object.__setattr__(self, "_series", None)
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
        """Moments T(z^0..z^N), equal to ``solve_moments(self, N)``: the kept
        series when N is its order, else a truncation of it, which shares
        its Berlekamp-Massey pass; an N past the kept order goes to
        ``solve_moments``, which resumes after the kept moments, and the
        longer series replaces the kept one."""
        _check_order(N)
        kept = self._series
        if kept is None or kept.order < N:
            kept = solve_moments(self, N)
            object.__setattr__(self, "_series", kept)
        return kept if kept.order == N else kept.truncate(N)

    def difference_parts(self) -> PrincipalParts:
        """D, the principal parts of Q/P, expanded on first use."""
        if self._parts is None:
            object.__setattr__(self, "_parts", partial_fractions(self.Q, self.P))
        return self._parts

    def trace_of_poly(self, q: DensePolynomial) -> GaussianRational:
        """Apply the moment functional to a polynomial in z: sum_n q_n mu_n,
        one integer dot product of q's cleared coefficients with the kept
        moment numerators, turned into a scalar once."""
        if q.is_zero():
            return GR_ZERO
        m_re, m_im, m_den = self.moments(q.degree).numerators()
        q_re, q_im, q_den = q._numerators()
        re = sum(map(mul, q_re, m_re)) - sum(map(mul, q_im, m_im))
        im = sum(map(mul, q_re, m_im)) + sum(map(mul, q_im, m_re))
        return _from_numerators(re, im, q_den * m_den)

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

    Each row runs in integers.  Q/P is expanded on P's kept slot form: in
    u = D x, D the roots' common denominator, p(u) = D^d P(x) is monic with
    Gaussian-integer coefficients (d = deg P), and Q/P = D Qt(u) / p(u) with
    Qt(u) = D^(d-1) Q(u/D).  So if Qt/p = sum c_r u^{-r-1}, then
    G_r = c_r / D^r, and ``_series_numerators`` gives every c_r over one
    denominator g, as p needs no normalization.  The sum over the moments
    so far is Y_r / (q L 2^r) from ``_difference_sums``, L their running
    common denominator; and the inverse pivot is a Gaussian integer over an
    integer.  Every factor of that denominator is positive: g, D and q L
    2^r, and |q (1 - t)|^2 or r for the pivot.  A moment (x + y i) / z is
    divided by g = gcd(x, y, z), which leaves z / g = lcm of the
    denominators of its two parts, so the numerators appended over the
    running denominator are those of ``_clear_denominators`` on the scalars.
    That is the series' one integer form, handed over as it is; no moment
    becomes a scalar unless it is read as one.  N < 0 raises ValueError.

    The solve resumes after the series that ``spec`` keeps, cut at N: it
    solves only rows kept.order + 1 .. N (kept.order + 2 .. N + 1 at t = 1),
    as a row reads no later moment, and ``_of_numerators`` reduces a cut's
    common denominator to the least, so the result is a fresh solve's.
    """
    _check_order(N)
    t = spec.t
    # resume after the moments the spec keeps, mu_0..mu_done
    kept = spec._series
    done = -1 if kept is None else min(kept.order, N)
    re, im, den = ([], [], 1) if kept is None else kept.numerators()
    seq = _CommonDenominator(re[: done + 1], im[: done + 1], den)
    if t == GR_ONE:
        rows, inverse = range(done + 2, N + 2), None
    else:
        rows = range(done + 1, N + 1)
        # 1 / (1 - t) = q conj(w) / |w|^2 for the Gaussian integer w = q (1 - t)
        (w_re,), (w_im,), q = _clear_denominators((GR_ONE - t,))
        inverse = (q * w_re, -q * w_im, w_re * w_re + w_im * w_im)
    s_re, s_im, D = spec.P._slot_form()
    d = len(s_re) - 1
    # Qt from its u^(d-1) coefficient down: Q_(d-1-n) D^n
    a_re, a_im, a_den = _top_down(spec.Q, d)
    power = 1
    for n in range(d):
        a_re[n] *= power
        a_im[n] *= power
        power *= D
    x_re, x_im, g_den, _ = _series_numerators(
        (a_re, a_im, a_den), (s_re[::-1], s_im[::-1], 1), rows.stop - 1
    )
    g_den *= D ** rows.start
    for r, (y_re, y_im, y_den) in zip(rows, _difference_sums(t, seq, rows)):
        p_re, p_im, p_den = inverse or (-1, 0, r)
        # (G_r - sum) / pivot, reduced to the least common denominator
        a = x_re[r] * y_den - y_re * g_den
        b = x_im[r] * y_den - y_im * g_den
        re, im, den = a * p_re - b * p_im, a * p_im + b * p_re, g_den * y_den * p_den
        g = gcd(re, im, den)
        seq.append(re // g, im // g, den // g)
        g_den *= D
    return TruncatedSeries._of_numerators(seq.re, seq.im, seq.den)


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
    """Invert the moment map: recover Q from mu_0..mu_N, and check them all.

    Write H = F(x+1/2) - t F(x-1/2) = sum H_r x^{-r-1}.  The given moments
    fix H_r for r <= top, where top = N, or N + 1 at t = 1, whose H_r needs
    only mu_0..mu_{r-1}.  Q is the polynomial part of P * H, which needs
    only H_0..H_{d-1}, hence only mu_0..mu_{d-1} (d = deg P).  The input is
    accepted when the rest of P * H vanishes through the known terms:
    sum_j p_j H_{k+j} = 0 for k = 0..top - d, else ``ValueError``.

    That is the same as solving the moments of (P, t, Q) to order N and
    finding the given ones.  They are the given ones exactly when H equals
    the series G of Q/P through r = top, because H_r fixes mu_r (pivot
    1 - t), or mu_{r-1} at t = 1 (pivot -r, and H_0 = G_0 = 0), once the
    moments before it are fixed.  Q fixes G_0..G_{d-1} through a triangular
    map with diagonal p_d = 1, the same map that gave Q from H_0..H_{d-1},
    so these agree.  And P G = Q gives sum_j p_j G_{k+j} = 0 for every
    k >= 0, which fixes each later G_r from the d before it: H = G through
    top iff H obeys that recurrence for k <= top - d.

    All of it runs in integers.  The moments are read as their kept
    numerators over one common denominator L, so H_r = Y_r / (q L 2^r) from
    ``_difference_sums``, and P's kept slot form s gives p_j = s_j / D^(d-j).
    For k >= -d the x^{-k-1} coefficient of P * H is then
    S_k / (q L D^d 2^(d+k)) with S_k = sum_j w_j Y_{k+j} and
    w_j = s_j D^j 2^(d-j): Q_e is S_{-e-1} over that, and the check reads
    S_k = 0.  Q meets the degree bound of (P, t) by construction: its top
    coefficient p_d H_0 = (1 - t) mu_0 vanishes at t = 1.  Fewer than d
    moments raise ``ValueError``, and so do t = 0 and a constant P, from
    ``trace_dim``.
    """
    t = _as_scalar(t)
    d = P.degree
    N = moments.order
    if N < d - 1:
        raise ValueError(f"need at least {d} moments to recover Q")
    trace_dim(P, t)
    top = N + 1 if t == GR_ONE else N
    seq = _CommonDenominator(*moments.numerators())
    y = list(_difference_sums(t, seq, range(top + 1)))
    s_re, s_im, D = P._slot_form()
    w_re = [x * D**j << (d - j) for j, x in enumerate(s_re)]
    w_im = [x * D**j << (d - j) for j, x in enumerate(s_im)]

    def coefficient(k):
        """S_k as a pair of ints."""
        re = im = 0
        for j in range(max(0, -k), d + 1):
            y_re, y_im, _ = y[k + j]
            re += w_re[j] * y_re - w_im[j] * y_im
            im += w_re[j] * y_im + w_im[j] * y_re
        return re, im

    den = y[0][2] * D**d  # q L D^d
    Q_re, Q_im = zip(*(coefficient(-e - 1) for e in range(d)))
    Q = _from_slots(list(Q_re), list(Q_im), den, 2)
    if any(coefficient(k) != (0, 0) for k in range(top - d + 1)):
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
    Paper surface: the paper's pullback of traces, which no package code
    calls.
    """
    big_p = spec.P * q1 * q2
    big_q = spec.Q * q1.expand() * q2.expand()
    return TraceSpec(big_p, spec.t, big_q)


def hankel_rank(moments: TruncatedSeries, N: int) -> int:
    """Exact rank of the N x N Hankel matrix H[i][j] = mu_{i+j}, on the
    moments' kept numerators: row i is a slice of them, a common scale that
    changes no rank."""
    if N < 0:
        raise ValueError("size must be nonnegative")
    if N and moments.order < 2 * N - 2:
        raise ValueError(f"need moments to order {2 * N - 2}, have {moments.order}")
    re, im, _ = moments.numerators()
    return linalg.rank([(re[i : i + N], im[i : i + N]) for i in range(N)])
