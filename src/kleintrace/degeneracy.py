"""Degenerate traces: the delta invariant, the coset criterion, rational
reconstruction, decompositions, and the Hankel-Vandermonde factorization.

Degeneracy of a twisted trace (a nonzero radical) is equivalent to its
formal Stieltjes transform being rational.  Writing D for the principal
parts of Q/P and C for those of the transform, the two are linked by the
t-weighted telescoping chain

    D_b^(k) = C_{b+1/2}^(k) - t * C_{b-1/2}^(k),
    C_a^(k) = sum_{j>=0} t^j D_{a-1/2-j}^(k),

and the trace is degenerate iff every coset sum
Delta^(k)_[b] = sum_j t^{-j} D_{b+j}^(k) vanishes.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from . import linalg
from .exactkernel import (
    GR_ONE,
    GR_ZERO,
    CosetKey,
    DensePolynomial,
    FactoredPolynomial,
    GaussianRational,
    PrincipalParts,
    coset_key,
    integer_offset,
    partial_fractions,
    _HALF,
    _as_scalar,
)
from .tracespace import TraceSpec


class DegeneracyReport(NamedTuple):
    """Outcome of the coset criterion: degenerate iff all Delta values vanish."""

    degenerate: bool
    deltas: dict
    per_coset_delta: dict
    delta_total: int

    def to_json(self) -> dict:
        return {
            "degenerate": self.degenerate,
            "deltas": {
                f"{key}:{k}": str(value)
                for (key, k), value in sorted(
                    self.deltas.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
                )
            },
            "perCosetDelta": {
                str(key): value
                for key, value in sorted(
                    self.per_coset_delta.items(), key=lambda kv: str(kv[0])
                )
            },
            "deltaTotal": self.delta_total,
        }


class PoleBounds(NamedTuple):
    """Per-location cap on pole orders of any degenerate transform.

    bounds maps a location a to n_a = min(n_a^+, n_a^-), the two one-sided
    statistics being the largest root order of P on a + 1/2 + Z_{>=0} and on
    a - 1/2 - Z_{>=0}; total is their sum, a bound on deg S.
    """

    bounds: dict
    total: int

    def to_json(self) -> dict:
        return {
            "bounds": {str(a): n for a, n in self.bounds.items()},
            "total": self.total,
        }


def _roots_by_coset(P: FactoredPolynomial):
    """Group roots as {coset key: {integer offset from representative: mult}}."""
    cosets: dict[CosetKey, dict[int, int]] = {}
    for root, mult in P.roots:
        key = coset_key(root)
        offset = integer_offset(root, key.representative())
        cosets.setdefault(key, {})[offset] = mult
    return cosets


def delta_invariant(P: FactoredPolynomial):
    """delta(P) and its per-coset pieces: root count minus max multiplicity.

    The total equals the dimension of the degenerate subspace for every
    twist t, and satisfies 0 <= delta(P) <= deg P - 1.
    """
    if P.degree < 1:
        raise ValueError("delta invariant needs a nonconstant polynomial")
    per_coset = {}
    for key, offsets in _roots_by_coset(P).items():
        mults = list(offsets.values())
        per_coset[key] = sum(mults) - max(mults)
    return sum(per_coset.values()), per_coset


def pole_bounds(P: FactoredPolynomial) -> PoleBounds:
    """All locations where a degenerate transform may have a pole, with caps."""
    bounds = {}
    for key, offsets in _roots_by_coset(P).items():
        rep = key.representative()
        lo, hi = min(offsets), max(offsets)
        for c in range(lo, hi):
            n_plus = max(
                (m for o, m in offsets.items() if o >= c + 1), default=0
            )
            n_minus = max((m for o, m in offsets.items() if o <= c), default=0)
            n = min(n_plus, n_minus)
            if n > 0:
                bounds[rep + GaussianRational(c) + _HALF] = n
    return PoleBounds(bounds=bounds, total=sum(bounds.values()))


def delta_criterion(spec: TraceSpec) -> DegeneracyReport:
    """Evaluate every coset sum Delta^(k) of the trace's Q/P principal parts."""
    D = partial_fractions(spec.Q, spec.P)
    total, per_coset = delta_invariant(spec.P)
    t = spec.t
    deltas = {}
    for key, offsets in _roots_by_coset(spec.P).items():
        rep = key.representative()
        max_k = max(offsets.values())
        for k in range(1, max_k + 1):
            acc = GR_ZERO
            for offset in offsets:
                d_val = D.coefficient(rep + GaussianRational(offset), k)
                if d_val:
                    acc = acc + t ** (-offset) * d_val
            deltas[(key, k)] = acc
    degenerate = all(not v for v in deltas.values())
    return DegeneracyReport(
        degenerate=degenerate,
        deltas=deltas,
        per_coset_delta=per_coset,
        delta_total=total,
    )


def q_from_principal_parts(
    P: FactoredPolynomial, parts: PrincipalParts
) -> DensePolynomial:
    """Assemble Q = sum_a sum_k D_a^(k) * P/(x-a)^k from difference data."""
    Q = DensePolynomial.zero()
    for a, coeffs in parts:
        for k, c in enumerate(coeffs, start=1):
            if c:
                Q = Q + c * P.quotient_poly(a, k)
    return Q


def _delta_rows(P: FactoredPolynomial, t) -> list:
    """The Delta functionals as rows over the coordinates D_{a,k}, root by
    root and then by k, and at t = 1 the residue-sum row sum_a D_{a,1}."""
    coords = [(a, k) for a, m in P.roots for k in range(1, m + 1)]
    index = {ak: i for i, ak in enumerate(coords)}
    rows = []
    for key, offsets in _roots_by_coset(P).items():
        rep = key.representative()
        max_k = max(offsets.values())
        for k in range(1, max_k + 1):
            row = [GR_ZERO] * len(coords)
            for offset, mult in offsets.items():
                if mult >= k:
                    row[index[(rep + GaussianRational(offset), k)]] = t ** (-offset)
            rows.append(row)
    if t == GR_ONE:
        rows.append([GR_ONE if k == 1 else GR_ZERO for _, k in coords])
    return rows


def degenerate_basis(P: FactoredPolynomial, t) -> list[TraceSpec]:
    """A basis of the degenerate subspace, of length delta(P).

    In the partial-fraction coordinates D_{a,k} of Q (a triangular exact
    change of basis) the degenerate traces are the common kernel of the
    Delta rows.  The row of a coset at order k reads only D_{a_j,k}, with
    weight t^(-o_j), for the roots a_0 < a_1 < ... of the coset with
    mult >= k, at integer offsets o_j.  Rows of different (coset, k) read
    disjoint coordinates, so each row over its first weight is already in
    reduced row echelon form, with pivot D_{a_0,k}, and each j >= 1 gives
    one kernel vector: D_{a_j,k} = 1 and D_{a_0,k} = -t^(o_0 - o_j), the
    two-root trace on a_0 and a_j (as in decompose_two_root).  That makes
    delta(P) vectors.  At t = 1 the residue-sum row is the sum of the k = 1
    rows and adds no constraint.  P.roots is sorted by (re, im), so the
    vectors come root by root and then by k: the column order of the
    reduced-row-echelon kernel basis.
    """
    t = _as_scalar(t)
    if not t:
        raise ValueError("the twist parameter t must be nonzero")
    pivots = {}  # (coset, k) -> (a_0, o_0)
    basis = []
    for a, m in P.roots:
        key = coset_key(a)
        offset = integer_offset(a, key.representative())
        for k in range(1, m + 1):
            a0, o0 = pivots.setdefault((key, k), (a, offset))
            if a0 != a:
                Q = P.quotient_poly(a, k) - t ** (o0 - offset) * P.quotient_poly(a0, k)
                basis.append(TraceSpec(P, t, Q))
    return basis


def reconstruct_principal_parts(spec: TraceSpec) -> PrincipalParts:
    """Principal parts C of the (rational) transform of a degenerate trace.

    Follows the chain C_a^(k) = sum_{j>=0} t^j D_{a-1/2-j}^(k); raises on a
    nondegenerate input, for which no rational transform exists.
    """
    report = delta_criterion(spec)
    if not report.degenerate:
        raise ValueError("trace is not degenerate: its transform is not rational")
    D = partial_fractions(spec.Q, spec.P)
    t = spec.t
    by_coset: dict[CosetKey, dict[int, GaussianRational]] = {}
    orders: dict[CosetKey, int] = {}
    for a, coeffs in D:
        key = coset_key(a)
        offset = integer_offset(a, key.representative())
        by_coset.setdefault(key, {})[offset] = coeffs
        orders[key] = max(orders.get(key, 0), len(coeffs))
    entries = {}
    for key, support in by_coset.items():
        rep = key.representative()
        lo, hi = min(support), max(support)
        for c in range(lo, hi):
            # pole location rep + c + 1/2; weighted sum over D to its left
            coeffs = []
            for k in range(1, orders[key] + 1):
                acc = GR_ZERO
                for offset, d_coeffs in support.items():
                    if offset <= c and k <= len(d_coeffs):
                        acc = acc + t ** (c - offset) * d_coeffs[k - 1]
                coeffs.append(acc)
            if any(coeffs):
                entries[rep + GaussianRational(c) + _HALF] = coeffs
    return PrincipalParts(entries)


def reconstruct_rational(spec: TraceSpec):
    """The transform as a reduced fraction (R, S); S generates the radical.

    S is monic with gcd(R, S) = 1; series_of_rational(R, S, .) reproduces
    the moment sequence, and S(z) annihilates the trace against every
    polynomial.
    """
    R, S = reconstruct_principal_parts(spec).to_rational()
    return R, S


def radical_generator(spec: TraceSpec) -> DensePolynomial:
    """Monic generator of rad(T) on C[z] (the denominator of the transform)."""
    return reconstruct_rational(spec)[1]


def decompose_pole_order(spec: TraceSpec) -> list[tuple[int, TraceSpec]]:
    """Split a trace by the pole order of its difference datum.

    Component k collects the order-k principal parts of Q/P and lives over
    P^(k) = prod (x-a)^{min(p_a, k)}; the pullbacks of the parts sum to the
    original trace.  At t = 1 the order-1 component inherits the zero
    residue sum, so every component is again a valid trace.
    """
    D = partial_fractions(spec.Q, spec.P)
    out = []
    for k in range(1, D.max_order() + 1):
        layer = {}
        for a, coeffs in D:
            if k <= len(coeffs) and coeffs[k - 1]:
                layer[a] = [GR_ZERO] * (k - 1) + [coeffs[k - 1]]
        if not layer:
            continue
        p_k = FactoredPolynomial(
            (a, min(m, k)) for a, m in spec.P.roots
        )
        q_k = q_from_principal_parts(p_k, PrincipalParts(layer))
        out.append((k, TraceSpec(p_k, spec.t, q_k)))
    return out


def decompose_two_root(spec: TraceSpec):
    """Write a degenerate trace as a sum of two-root degenerate traces.

    Greedy left-to-right peel within each coset and pole order: the full
    order-k part at the leftmost support location a is cancelled against the
    nearest admissible root b = a + j to its right using the weight t^j that
    keeps the peeled component degenerate.  Returns [(P', TraceSpec), ...]
    where each P' = (x-a)^k (x-b)^k has exactly two roots at integer
    distance.
    """
    report = delta_criterion(spec)
    if not report.degenerate:
        raise ValueError("two-root decomposition needs a degenerate trace")
    D = partial_fractions(spec.Q, spec.P)
    t = spec.t
    out = []
    root_offsets = _roots_by_coset(spec.P)
    coset_order = sorted(
        root_offsets, key=lambda key: (key.representative().re, key.imag)
    )
    for key in coset_order:
        rep = key.representative()
        offsets = root_offsets[key]
        max_k = max(offsets.values())
        for k in range(1, max_k + 1):
            admissible = sorted(o for o, m in offsets.items() if m >= k)
            support = {}
            for offset in admissible:
                val = D.coefficient(rep + GaussianRational(offset), k)
                if val:
                    support[offset] = val
            while support:
                left = min(support)
                val = support.pop(left)
                partners = [o for o in admissible if o > left]
                if not partners:
                    raise ValueError(
                        "inconsistent degenerate data: no partner root "
                        f"right of {rep + GaussianRational(left)} at order {k}"
                    )
                right = partners[0]
                j = right - left
                a = rep + GaussianRational(left)
                b = rep + GaussianRational(right)
                pair = FactoredPolynomial([(a, k), (b, k)])
                q_pair = val * (
                    pair.quotient_poly(a, k) - t**j * pair.quotient_poly(b, k)
                )
                out.append((pair, TraceSpec(pair, t, q_pair)))
                carried = support.get(right, GR_ZERO) + t**j * val
                if carried:
                    support[right] = carried
                else:
                    support.pop(right, None)
    return out


def vandermonde_factor(parts: PrincipalParts, N: int):
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
        d = [
            [
                coeffs[i + j] if i + j < r else GR_ZERO
                for j in range(r)
            ]
            for i in range(r)
        ]
        vblocks.append((a, v))
        dblocks.append((a, d))
    return vblocks, dblocks


def assemble_vandermonde(vblocks, dblocks, N: int):
    """Sum V^T D V over the blocks; equals the N x N Hankel matrix."""
    acc = linalg.zeros(N, N)
    for (_, v), (_, d) in zip(vblocks, dblocks):
        vt = [list(col) for col in zip(*v)] if v else []
        acc = linalg.mat_add(acc, linalg.mat_mul(linalg.mat_mul(vt, d), v))
    return acc
