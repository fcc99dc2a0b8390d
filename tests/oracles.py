"""Slow reference implementations, kept as oracles for the integer paths.

These are the Fraction-based row reduction, the weight-by-weight moment
recurrences, the scalar series recurrence, the scalar Pade numerator, the
scalar moment functional sum_n q_n mu_n, Horner evaluation, the Horner
polynomial shift, the shift-based partial fractions, the
polynomial products of root factors, the two recombinations of principal
parts (a sum of root products and a loop of long divisions by (x - a)),
and the scalar matrix product, module validation and module power loop
that ``linalg``, ``tracespace``, ``pade``, ``exactkernel``, ``degeneracy``
and ``findim`` used before their hot loops moved to plain integers.  The
scalar long division also drives the Euclidean gcd, the reference for the
Hankel-rank coprimality test of ``selftest._gcd_degree``, and the scalar
matrix product assembles the Vandermonde factorization V^T D V of a
Hankel matrix, which only the tests build.  The algebra has two more:
products in the skew Laurent ring that the algebra embeds into, and the
structure maps by substituting generator images and multiplying out
there.  The moments have two more:
the inverse map that re-solves the moments of the Q it recovers, which
``tracespace.q_from_moments`` replaced by one identity, and the Lerch
moments, from the formal solution of the difference equation by
Apostol-Bernoulli numbers, which share no recurrence with the row-by-row
solvers.  The scalars have the five arithmetic operations on plain
(re, im) pairs of Fractions, and the conjugate, which no package code
needs; nor does the projection of an algebra element onto one winding.
The scalar text has the reader that reads every part with
``Fraction(str)`` and the printer that tests and negates Fractions, as
both were before scalars crossed the text edge as integers.  The
dimension theorem has the relations r_j that a trace must kill, built
from P's roots, with their Fraction rank.  The cosets have the integer
offset a - b of two locations, which ``exactkernel._roots_by_coset``
reads off P's cleared roots.  The degenerate traces have the greedy
two-root peel that ``degeneracy.decompose_two_root`` ran before it
read the telescoping chain, and the principal parts of the transform as
the direct sums C_a = sum_j t^j D_(a-1/2-j).  They share no code with the
fast paths beyond the scalar, polynomial and series types, and call none
of the methods that the fast paths rewrite (``test_oracles`` checks
both).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, factorial

from kleintrace import (
    DensePolynomial,
    FactoredPolynomial,
    GaussianRational,
    TruncatedSeries,
)
from kleintrace.exactkernel import GR_ONE, GR_ZERO

# a trace (P, t, Q) as the moment oracles read it, checked by none of the
# package's code
Trace = namedtuple("Trace", "P t Q")


def series_of_rational(R, S, N: int) -> TruncatedSeries:
    """c_0..c_N of R/S = sum c_n x^{-n-1}, deg R < deg S, by matching the
    coefficients of R = S * sum c_n x^{-n-1} one scalar at a time."""
    m = S.degree
    lead = S.coeffs[-1]
    out = []
    for n in range(N + 1):
        acc = R.coefficient(m - 1 - n)
        for r in range(max(0, n - m), n):
            acc = acc - S.coefficient(m - n + r) * out[r]
        out.append(acc if lead == GR_ONE else acc / lead)
    return TruncatedSeries(out)


def pade_numerator(S, moments) -> DensePolynomial:
    """R, the polynomial part of S * F for F = sum mu_m x^{-m-1}."""
    m = S.degree
    r_coeffs = []
    for jj in range(m):
        acc = GR_ZERO
        for i in range(jj + 1, m + 1):
            acc = acc + S.coefficient(i) * moments[i - jj - 1]
        r_coeffs.append(acc)
    return DensePolynomial(r_coeffs)


def root_product(factors) -> DensePolynomial:
    """prod (x - a)^e over the pairs (a, e), one linear factor at a time."""
    out = DensePolynomial((GR_ONE,))
    for a, e in factors:
        for _ in range(e):
            out = out * DensePolynomial((-a, GR_ONE))
    return out


def q_from_principal_parts(P, parts) -> DensePolynomial:
    """sum_a sum_k c_a^(k) P/(x - a)^k, each quotient a product of root
    factors."""
    out = DensePolynomial(())
    for a, coeffs in parts:
        for k, c in enumerate(coeffs, start=1):
            quotient = root_product((b, e - k if b == a else e) for b, e in P.roots)
            out = out + c * quotient
    return out


def poly_divmod(a, b):
    """(q, r) with a = q b + r and deg r < deg b, by scalar long division."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    db, lead = b.degree, b.coeffs[-1]
    quot = [GR_ZERO] * max(len(rem) - db, 0)
    for k in range(len(rem) - 1, db - 1, -1):
        c = rem[k]
        if not c:
            continue
        factor = c / lead
        quot[k - db] = factor
        for i, bc in enumerate(b.coeffs):
            rem[k - db + i] = rem[k - db + i] - factor * bc
    return DensePolynomial(quot), DensePolynomial(rem)


def poly_gcd(a, b):
    """The monic gcd over Q(i) by the Euclidean algorithm; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    if a.is_zero():
        return a
    lead = a.coeffs[-1]
    return DensePolynomial(c / lead for c in a.coeffs)


def to_rational(parts):
    """(R, S) with S = prod (x - a)^{m_a} over the poles and R/S the parts,
    R accumulated from S/(x - a)^m, found by m divisions by (x - a), and
    multiplied back up one order at a time."""
    entries = list(parts)
    S = root_product((a, len(coeffs)) for a, coeffs in entries)
    R = DensePolynomial(())
    for a, coeffs in entries:
        linear = DensePolynomial((-a, GR_ONE))
        cof = S
        for _ in coeffs:
            cof = poly_divmod(cof, linear)[0]
        for k in range(len(coeffs), 0, -1):
            R = R + coeffs[k - 1] * cof
            cof = cof * linear
    return R, S


def shift(p, h) -> DensePolynomial:
    """p(x + h) by Horner's rule: acc <- acc * (x + h) + c, one polynomial
    per step."""
    inner = DensePolynomial((h, GR_ONE))
    acc = DensePolynomial(())
    for c in reversed(p.coeffs):
        acc = acc * inner + c
    return acc


def laurent_image(P, comps) -> dict:
    """{k: f_k}, the image sum f_k w^k of the normal form {k: q_k} over P in
    the skew Laurent ring, where w g(z) = g(z - 1) w, under u -> w and
    v -> P(z + 1/2) w^-1: u^k q goes to q(z - k) w^k and v^k q to
    prod_{s<k} P(z + 1/2 + s) q(z + k) w^-k.  The map is injective."""
    pexp = root_product(P.roots)
    half = GaussianRational(Fraction(1, 2))
    out = {}
    for k, q in comps.items():
        f = shift(q, -k)
        for s in range(-k):
            f = f * shift(pexp, half + s)
        out[k] = f
    return out


def laurent_multiply(a, b) -> dict:
    """(sum f_j w^j)(sum g_k w^k), with (f w^j)(g w^k) = f g(z - j) w^(j+k)."""
    out = {}
    for j, f in a.items():
        for k, g in b.items():
            out[j + k] = out.get(j + k, DensePolynomial(())) + f * shift(g, -j)
    return {k: f for k, f in out.items() if f}


def multiply_normal(P, a, b) -> dict:
    """The Laurent image of the product of the normal forms a and b over P:
    the product of their images."""
    return laurent_multiply(laurent_image(P, a), laurent_image(P, b))


def morphism_apply(m, P, comps):
    """(target, image): the target of the structure map m from the algebra
    of P, and the Laurent image over it of m applied to the normal form
    {k: q_k}, with the images of u, v and z substituted and multiplied out,
    w_k q(z) -> img(w_k)^|k| q'(z)."""
    half = GaussianRational(Fraction(1, 2))
    left = dict(P.roots)
    if m.kind == "pullback":
        for b, e in m.q1.roots + m.q2.roots:
            left[b] -= e
    elif m.kind == "negate":
        left = {-b: e for b, e in left.items()}
    elif m.kind == "shift":
        left = {b - m.r: e for b, e in left.items()}
    target = FactoredPolynomial((b, e) for b, e in left.items() if e)
    # u -> lu * gu and v -> lv * gv, l a polynomial and g = u or v
    one = DensePolynomial((GR_ONE,))
    u, v = {1: one}, {-1: one}
    if m.kind == "gt":
        (lu, gu), (lv, gv) = (one * (GR_ONE / m.t), u), (one * m.t, v)
    elif m.kind == "negate":
        sign = GR_ONE if P.degree % 2 == 0 else -GR_ONE
        (lu, gu), (lv, gv) = (one * sign, v), (one, u)
    elif m.kind == "shift":
        (lu, gu), (lv, gv) = (one, u), (one, v)
    else:
        lu, gu = shift(root_product(m.q1.roots), -half), u
        lv, gv = shift(root_product(m.q2.roots), half), v
    img_u = laurent_multiply({0: lu}, laurent_image(target, gu))
    img_v = laurent_multiply({0: lv}, laurent_image(target, gv))
    out = {}
    for k, q in comps.items():
        if m.kind == "negate":
            q = DensePolynomial(-c if j % 2 else c for j, c in enumerate(q.coeffs))
        elif m.kind == "shift":
            q = shift(q, m.r)
        term = {0: q}
        for _ in range(abs(k)):
            term = laurent_multiply(img_u if k > 0 else img_v, term)
        for j, f in term.items():
            out[j] = out.get(j, DensePolynomial(())) + f
    return target, {k: f for k, f in out.items() if f}


def partial_fractions(R, P) -> dict:
    """{a: (e^(1), ..., e^(m))} for R/P, from the Taylor expansion of
    R / (P / (x - a)^m) after shifting the origin to each root a."""
    entries = {}
    for a, m in P.roots:
        r_loc = shift(R, a)
        b_loc = shift(root_product((b, e) for b, e in P.roots if b != a), a)
        taylor = []
        for i in range(m):
            acc = r_loc.coefficient(i)
            for r in range(i):
                acc = acc - b_loc.coefficient(i - r) * taylor[r]
            taylor.append(acc / b_loc.coefficient(0))
        entries[a] = tuple(reversed(taylor))
    return entries


def rref(matrix):
    """Reduced row echelon form over Q(i); returns (rows, pivot columns)."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1]) if matrix else 0


def kernel_basis(matrix, cols):
    """One kernel vector per free column, free variable 1, other free 0."""
    if not matrix:
        return [[GR_ONE if i == j else GR_ZERO for i in range(cols)] for j in range(cols)]
    red, pivots = rref(matrix)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [GR_ZERO] * cols
        vec[fc] = GR_ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def conjugate(a) -> GaussianRational:
    """The complex conjugate re - im i."""
    return GaussianRational(a.re, -a.im)


def grade_project(a, k: int):
    """The winding-k part of the algebra element a, as an element of the
    same algebra (zero when a has no such part)."""
    return type(a)(a.P, {k: a.comps[k]} if k in a.comps else {})


def _shown(value) -> str:
    text = repr(value)
    if len(text) <= 40:
        return text
    return f"{text[:40]}... ({len(text)} characters)"


def from_string(s: str) -> GaussianRational:
    """The scalar reader with every part read by ``Fraction(str)``: the
    reference for ``GaussianRational.from_string``, values, exception
    types and messages alike."""
    text = s.strip().replace(" ", "")
    if not text:
        raise ValueError("empty scalar string")
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation in scalar {_shown(s)}")
    try:
        if text.endswith("i") or text.endswith("I"):
            body = text[:-1]
            cut = max(body.rfind("+", 1), body.rfind("-", 1))
            if cut > 0 and body[cut - 1] != "/":
                re_part, im_part = body[:cut], body[cut:]
            else:
                re_part, im_part = "", body
            if im_part in ("", "+"):
                im_part = "1"
            elif im_part == "-":
                im_part = "-1"
            re_val = Fraction(re_part) if re_part else Fraction(0)
            return GaussianRational(re_val, Fraction(im_part))
        return GaussianRational(Fraction(text), 0)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {_shown(s)}") from None
    except ValueError as exc:
        if "integer string conversion:" in str(exc):
            raise
        raise ValueError(f"cannot read a scalar from {_shown(s)}") from None


def scalar_text(a) -> str:
    """``p/q+r/si`` by Fraction sign tests and negation on the parts: the
    reference for printing from reduced integer parts."""
    sign = "-" if a.im < 0 else "+"
    mag = -a.im if a.im < 0 else a.im
    return f"{a.re.numerator}/{a.re.denominator}{sign}{mag.numerator}/{mag.denominator}i"


def relations(P, t, N: int) -> list:
    """r_j = t P(z + 1/2) (z + 1)^j - P(z - 1/2) z^j for j = 0..N.

    Taking b = z in T(ab) = T(g_t(b) a) gives k T(u^k q) = 0, so a trace
    lives on C[z]; with a = v q(z) and b = u, what is left is that T kills
    t P(z + 1/2) q(z + 1) - P(z - 1/2) q(z) for every q.  So the trace
    space is the dual of C[z] / span{r_q}, and q = z^j gives r_j.
    """
    p = root_product(P.roots)
    half = GaussianRational(Fraction(1, 2))
    plus, minus = shift(p, half), shift(p, -half)
    z, step = DensePolynomial((GR_ZERO, GR_ONE)), DensePolynomial((GR_ONE, GR_ONE))
    up = down = DensePolynomial((GR_ONE,))
    out = []
    for _ in range(N + 1):
        out.append(t * plus * up - minus * down)
        up, down = up * step, down * z
    return out


def relation_dim(P, t, N: int) -> int:
    """dim C[z] / span{r_0..r_N} below the rows' width, 1 + their largest
    degree: the width less the rank of their coefficient rows.  The width
    is read from the rows and not from deg P, as at t = 1 the top
    coefficients cancel."""
    rows = relations(P, t, N)
    width = 1 + max(r.degree for r in rows)
    return width - rank([[r.coefficient(k) for k in range(width)] for r in rows])


def integer_offset(a, b) -> int | None:
    """The integer a - b if there is one, else None."""
    if a.im != b.im:
        return None
    diff = a.re - b.re
    return diff.numerator if diff.denominator == 1 else None


def _levels(P) -> list:
    """(k, [(offset, root), ...]) for each coset of P's roots, cosets
    sorted by representative (real part in [0, 1), then imaginary part) and
    k rising within each: the roots of multiplicity >= k by ascending
    integer offset from the representative."""
    cosets = {}
    for a, m in P.roots:
        floor = a.re.numerator // a.re.denominator
        cosets.setdefault((a.re - floor, a.im), []).append((floor, a, m))
    out = []
    for key in sorted(cosets):
        roots = sorted(cosets[key], key=lambda e: e[0])
        for k in range(1, max(m for *_, m in roots) + 1):
            out.append((k, [(o, a) for o, a, m in roots if m >= k]))
    return out


def pole_bounds(P) -> dict:
    """{a: n_a} at each a = rep + c + 1/2 between the first and the last
    root of a coset, by definition: n_a = min(n_a^+, n_a^-), the largest
    multiplicity of a root b with b - (a + 1/2) and with (a - 1/2) - b a
    nonnegative integer."""
    half = GaussianRational(Fraction(1, 2))
    out = {}
    for k, roots in _levels(P):
        if k > 1:
            continue  # the first level of a coset holds all of its roots
        rep = roots[0][1] - roots[0][0]
        for c in range(roots[0][0], roots[-1][0]):
            a = rep + c + half
            above = [m for b, m in P.roots if _at_or_past(b, a + half)]
            below = [m for b, m in P.roots if _at_or_past(a - half, b)]
            out[a] = min(max(above), max(below))
    return out


def _at_or_past(a, b) -> bool:
    """Whether a - b is a nonnegative integer."""
    offset = integer_offset(a, b)
    return offset is not None and offset >= 0


def _pole(c, k: int) -> tuple:
    return (GR_ZERO,) * (k - 1) + (c,)


def _part(D: dict, a, k: int):
    """The coefficient of 1/(x - a)^k in the parts D, zero when absent."""
    coeffs = D.get(a, ())
    return coeffs[k - 1] if k <= len(coeffs) else GR_ZERO


def two_root(P, t, Q) -> list:
    """[(pair roots, parts), ...]: the degenerate trace (P, t, Q) peeled
    into two-root traces, greedily from the left within each coset and
    pole order.  The full order-k part at the leftmost support location a
    is cancelled against the nearest admissible root b = a + j to its right
    with the weight t^j that keeps the peeled piece degenerate, and the
    rest is carried to b.  A part left at the last root has no partner:
    then the trace is not degenerate, and ValueError says so."""
    D = partial_fractions(Q, P)
    out = []
    for k, roots in _levels(P):
        admissible = {o: a for o, a in roots}
        support = {o: v for o, a in roots if (v := _part(D, a, k))}
        while support:
            left = min(support)
            val = support.pop(left)
            partners = [o for o in admissible if o > left]
            if not partners:
                raise ValueError("two-root decomposition needs a degenerate trace")
            right = partners[0]
            j = right - left
            a, b = admissible[left], admissible[right]
            parts = {a: _pole(val, k), b: _pole(-(t**j) * val, k)}
            out.append((((a, k), (b, k)), parts))
            carried = support.get(right, GR_ZERO) + t**j * val
            if carried:
                support[right] = carried
            else:
                support.pop(right, None)
    return out


def transform_parts(P, t, Q) -> dict:
    """{pole: (C^(1), ..., C^(m))}, the principal parts of the transform of
    a degenerate trace, each C^(k) at a = rep + c + 1/2 the direct sum
    sum_(o <= c) t^(c - o) D^(k) over the roots at offsets o of a level,
    for c from its first root to before its last; zero entries dropped."""
    D = partial_fractions(Q, P)
    half = GaussianRational(Fraction(1, 2))
    out = {}
    for k, roots in _levels(P):
        rep = roots[0][1] - roots[0][0]
        d_k = {o: _part(D, a, k) for o, a in roots}
        for c in range(roots[0][0], roots[-1][0]):
            value = GR_ZERO
            for o, d in d_k.items():
                if o <= c:
                    value = value + t ** (c - o) * d
            if value:
                cs = out.setdefault(rep + c + half, [])
                cs += [GR_ZERO] * (k - 1 - len(cs)) + [value]
    return {a: tuple(cs) for a, cs in out.items()}


def _pair_div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return (
        (a[0] * b[0] + a[1] * b[1]) / norm,
        (a[1] * b[0] - a[0] * b[1]) / norm,
    )


# the scalar operations on plain (re, im) pairs of Fractions
PAIR_OPS = {
    "neg": lambda a, _: (-a[0], -a[1]),
    "+": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "-": lambda a, b: (a[0] - b[0], a[1] - b[1]),
    "*": lambda a, b: (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]),
    "/": _pair_div,
}


def evaluate(p, x) -> GaussianRational:
    """p(x) by Horner's rule on scalars."""
    acc = GR_ZERO
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def trace_of_poly(moments, q) -> GaussianRational:
    """sum_n q_n mu_n, one scalar product at a time."""
    acc = GR_ZERO
    for n, c in enumerate(q.coeffs):
        if c:
            acc = acc + c * moments[n]
    return acc


def difference_weight(r: int, m: int, t) -> GaussianRational:
    """Weight of mu_{r-m} in the x^{-r-1} coefficient of F(x+1/2) - t F(x-1/2)."""
    c = GaussianRational(Fraction(comb(r, m), 2**m))
    if m % 2 == 0:
        return c * (GR_ONE - t)
    return -c * (GR_ONE + t)


def solve_moments(spec, N: int) -> TruncatedSeries:
    t = spec.t
    pexp = root_product(spec.P.roots)
    if t != GR_ONE:
        G = series_of_rational(spec.Q, pexp, N)
        mu = []
        for r in range(N + 1):
            acc = G[r]
            for m in range(1, r + 1):
                acc = acc - difference_weight(r, m, t) * mu[r - m]
            mu.append(acc / (GR_ONE - t))
        return TruncatedSeries(mu)
    G = series_of_rational(spec.Q, pexp, N + 1)
    mu = []
    for r in range(1, N + 2):
        acc = G[r]
        for m in range(3, r + 1, 2):
            acc = acc - difference_weight(r, m, t) * mu[r - m]
        mu.append(acc / GaussianRational(-r))
    return TruncatedSeries(mu)


def q_from_moments(P, t, moments):
    """Q from mu_0..mu_{d-1} as the polynomial part of P G, G the
    difference series, checked by solving the moments of (P, t, Q) again
    to the given order: they must be the given ones, else ValueError, as
    also for t = 0, a constant P and a Q past the degree bound."""
    d = P.degree
    if moments.order < d - 1:
        raise ValueError(f"need at least {d} moments to recover Q")
    if not t:
        raise ValueError("the twist parameter t must be nonzero")
    if not d:
        raise ValueError("the defining polynomial must be nonconstant")
    pexp = root_product(P.roots)
    G = difference_series(t, moments, d)
    Q = DensePolynomial(
        sum((pexp.coefficient(j) * G[j - e - 1] for j in range(e + 1, d + 1)), GR_ZERO)
        for e in range(d)
    )
    bound = d - 1 if t != GR_ONE else d - 2
    if Q.degree > bound:
        raise ValueError(
            f"deg Q = {Q.degree} exceeds the bound {bound} for this (P, t)"
        )
    if solve_moments(Trace(P, t, Q), moments.order) != moments:
        raise ValueError(
            "moment sequence does not satisfy the trace difference equation"
        )
    return Q


def lerch_moments(spec, N: int) -> TruncatedSeries:
    """mu_0..mu_N from the formal solution F(y) = sum_j t^j G(y - 1/2 - j)
    of F(y) - t F(y - 1) = G(y - 1/2), G = Q/P = sum g_n x^{-n-1}:
    mu_N = sum_m C(N, m) phi_m g_(N-m), where phi_m, "sum_j t^j (j + 1/2)^m",
    are the exponential-generating-function coefficients of
    1/(e^(-s/2) - t e^(s/2)), Apostol-Bernoulli values at 1/2 up to a factor
    (Apostol 1951, Pacific J. Math. 1).  In EGF terms M(s) = Gamma(s) / E(s)
    with E(s) = e^(-s/2) - t e^(s/2).  At t = 1, E(s) = -s (1 + ...) and
    g_0 = 0, so both are divided by s first."""
    t = spec.t
    half = GaussianRational(Fraction(1, 2))
    cut = 1 if t == GR_ONE else 0
    g = series_of_rational(spec.Q, root_product(spec.P.roots), N + cut)
    if cut and g[0]:
        raise ValueError("at t = 1 the series of Q/P must start at x^-2")
    # E(s) / s^cut as an ordinary power series, then s^cut / E(s)
    e = [
        ((-half) ** k - t * half**k) / factorial(k)
        for k in range(cut, N + cut + 1)
    ]
    inverse = []
    for k in range(N + 1):
        acc = GR_ONE if k == 0 else GR_ZERO
        for j in range(1, k + 1):
            acc = acc - e[j] * inverse[k - j]
        inverse.append(acc / e[0])
    phi = [c * factorial(m) for m, c in enumerate(inverse)]
    # the EGF coefficients of Gamma(s) / s^cut: g_(m+cut) m! / (m+cut)!
    gamma = [g[m + cut] / (m + 1 if cut else 1) for m in range(N + 1)]
    return TruncatedSeries(
        sum((comb(n, m) * phi[m] * gamma[n - m] for m in range(n + 1)), GR_ZERO)
        for n in range(N + 1)
    )


def difference_series(t, moments, count: int) -> list:
    """G_r = sum_m w(r, m) mu_{r-m} for r < count: the series of
    F(x+1/2) - t F(x-1/2)."""
    return [
        sum((difference_weight(r, m, t) * moments[r - m] for m in range(r + 1)), GR_ZERO)
        for r in range(count)
    ]


def mat_mul(a, b):
    """a b one scalar product at a time."""
    cols = len(b[0]) if b else 0
    return [
        [sum((row[l] * b[l][j] for l in range(len(b))), GR_ZERO) for j in range(cols)]
        for row in a
    ]


def vandermonde_factor(parts, N: int):
    """Factor the moment Hankel matrix through the principal parts.

    For each pole a of order r the block V^(a) is r x N with
    V[i][j] = binom(j, i) a^{j-i} (0-indexed) and D^(a) is r x r with
    D[i][j] = C_a^{(i+j+1)} (zero beyond the pole order); stacking the V
    blocks and placing the D blocks on the diagonal gives H = V^T D V
    exactly.
    """
    vblocks = []
    dblocks = []
    for a, coeffs in parts:
        r = len(coeffs)
        v = [
            [
                GaussianRational(comb(j, i)) * a ** (j - i) if j >= i else GR_ZERO
                for j in range(N)
            ]
            for i in range(r)
        ]
        d = [[coeffs[i + j] if i + j < r else GR_ZERO for j in range(r)] for i in range(r)]
        vblocks.append((a, v))
        dblocks.append((a, d))
    return vblocks, dblocks


def assemble_vandermonde(vblocks, dblocks, N: int):
    """The sum of V^T D V over the blocks of ``vandermonde_factor``, one
    scalar matrix product at a time; it equals the N x N Hankel matrix."""
    acc = [[GR_ZERO] * N for _ in range(N)]
    for (_, v), (_, d) in zip(vblocks, dblocks):
        vt = [list(col) for col in zip(*v)]
        term = mat_mul(mat_mul(vt, d), v)
        acc = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(acc, term)]
    return acc


def poly_at_matrix(p, m):
    """p(m) for a square matrix m by Horner's rule."""
    n = len(m)
    acc = [[GR_ZERO] * n for _ in range(n)]
    for c in reversed(p.coeffs):
        acc = mat_mul(acc, m)
        for i in range(n):
            acc[i][i] = acc[i][i] + c
    return acc


def validate(rep, P):
    """Check a module's defining relations on scalar matrices; raises
    ValueError naming the first relation that fails."""
    U, V, Z = ([list(row) for row in m] for m in (rep.U, rep.V, rep.Z))

    def minus(a, b):
        return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    pexp = root_product(P.roots)
    if minus(mat_mul(Z, U), mat_mul(U, Z)) != U:
        raise ValueError("relation ZU - UZ = U fails")
    if minus(mat_mul(Z, V), mat_mul(V, Z)) != [[-x for x in row] for row in V]:
        raise ValueError("relation ZV - VZ = -V fails")
    half = GaussianRational(Fraction(1, 2))
    if mat_mul(U, V) != poly_at_matrix(shift(pexp, -half), Z):
        raise ValueError("relation UV = P(Z - 1/2) fails")
    if mat_mul(V, U) != poly_at_matrix(shift(pexp, half), Z):
        raise ValueError("relation VU = P(Z + 1/2) fails")


def module_trace(rep, N: int) -> TruncatedSeries:
    """tr(alpha Z^m) for m = 0..N, one scalar matrix power at a time."""
    Z = [list(row) for row in rep.Z]
    power = [[GR_ONE if i == j else GR_ZERO for j in range(rep.dim)] for i in range(rep.dim)]
    mu = []
    for _ in range(N + 1):
        mu.append(
            sum(
                (rep.alpha[i][l] * power[l][i] for i in range(rep.dim) for l in range(rep.dim)),
                GR_ZERO,
            )
        )
        power = mat_mul(power, Z)
    return TruncatedSeries(mu)
