"""Degenerate traces: the delta invariant, the coset criterion, rational
reconstruction and decompositions.

Degeneracy of a twisted trace (a nonzero radical) is equivalent to its
formal Stieltjes transform being rational.  Writing D for the principal
parts of Q/P and C for those of the transform, the two are linked by the
t-weighted telescoping chain

    D_b^(k) = C_{b+1/2}^(k) - t * C_{b-1/2}^(k),
    C_a^(k) = sum_{j>=0} t^j D_{a-1/2-j}^(k),

and the trace is degenerate iff every coset sum
Delta^(k)_[b] = sum_j t^{-j} D_{b+j}^(k) vanishes.

D is the trace's one expansion of Q/P (``TraceSpec.difference_parts``),
the cosets come from one walk (``_roots_by_coset``), kept on P, and every
Q is built from principal parts by ``exactkernel.q_from_principal_parts``.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

from .exactkernel import (
    GR_ONE,
    GR_ZERO,
    CosetKey,
    DensePolynomial,
    FactoredPolynomial,
    GaussianRational,
    PrincipalParts,
    coset_key,
    q_from_principal_parts,
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


def _roots_by_coset(P: FactoredPolynomial) -> tuple:
    """(coset key, k, ((root, offset), ...)) coset by coset and for k rising
    to the coset's top multiplicity: the roots of P in the coset with
    multiplicity >= k by ascending integer offset from the representative.
    Walked once per P and kept on it as tuples, which later calls return."""
    if P._cosets is None:
        cosets: dict[CosetKey, list] = {}
        for root, mult in P.roots:
            # the offset from the representative is the floor coset_key takes
            offset = root.re.numerator // root.re.denominator
            cosets.setdefault(coset_key(root), []).append((root, offset, mult))
        walk = tuple(
            (key, k, tuple((a, o) for a, o, m in roots if m >= k))
            for key, roots in cosets.items()
            for k in range(1, max(m for *_, m in roots) + 1)
        )
        object.__setattr__(P, "_cosets", walk)
    return P._cosets


def _pole(c, k: int) -> list:
    """The principal-part coefficients of c / (x - a)^k."""
    return [GR_ZERO] * (k - 1) + [c]


def delta_invariant(P: FactoredPolynomial):
    """delta(P) and its per-coset pieces: root count minus max multiplicity,
    that is the sum over k of one less than the number of roots of
    multiplicity >= k.  The total equals the dimension of the degenerate
    subspace for every twist t, and satisfies 0 <= delta(P) <= deg P - 1.
    """
    if P.degree < 1:
        raise ValueError("delta invariant needs a nonconstant polynomial")
    per_coset = {
        key: sum(len(roots) - 1 for _, _, roots in levels)
        for key, levels in groupby(_roots_by_coset(P), key=lambda e: e[0])
    }
    return sum(per_coset.values()), per_coset


def pole_bounds(P: FactoredPolynomial) -> PoleBounds:
    """All locations where a degenerate transform may have a pole, with caps:
    the cap at a counts the k with a root of multiplicity >= k on each side
    of a in its coset."""
    bounds = {}
    for key, _, roots in _roots_by_coset(P):
        rep = key.representative()
        for c in range(roots[0][1], roots[-1][1]):
            a = rep + GaussianRational(c) + _HALF
            bounds[a] = bounds.get(a, 0) + 1
    return PoleBounds(bounds=bounds, total=sum(bounds.values()))


def delta_criterion(spec: TraceSpec) -> DegeneracyReport:
    """Evaluate every coset sum Delta^(k) of the trace's Q/P principal parts."""
    D = spec.difference_parts()
    total, per_coset = delta_invariant(spec.P)
    t = spec.t
    deltas = {}
    for key, k, roots in _roots_by_coset(spec.P):
        deltas[(key, k)] = sum(
            (t ** (-o) * d for a, o in roots if (d := D.coefficient(a, k))), GR_ZERO
        )
    degenerate = all(not v for v in deltas.values())
    return DegeneracyReport(
        degenerate=degenerate,
        deltas=deltas,
        per_coset_delta=per_coset,
        delta_total=total,
    )


def _delta_rows(P: FactoredPolynomial, t) -> list:
    """The Delta functionals as rows over the coordinates D_{a,k}, root by
    root and then by k, and at t = 1 the residue-sum row sum_a D_{a,1}."""
    coords = [(a, k) for a, m in P.roots for k in range(1, m + 1)]
    index = {ak: i for i, ak in enumerate(coords)}
    rows = []
    for _, k, roots in _roots_by_coset(P):
        row = [GR_ZERO] * len(coords)
        for a, offset in roots:
            row[index[(a, k)]] = t ** (-offset)
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
    rows and adds no constraint.  The vectors come root by root, roots
    sorted by (re, im) as in P.roots, and then by k: the column order of
    the reduced-row-echelon kernel basis.
    """
    t = _as_scalar(t)
    if not t:
        raise ValueError("the twist parameter t must be nonzero")
    vectors = []  # (a_j, k, principal parts of Q)
    for _, k, ((a0, o0), *others) in _roots_by_coset(P):
        for a, o in others:
            parts = {a: _pole(GR_ONE, k), a0: _pole(-(t ** (o0 - o)), k)}
            vectors.append((a, k, PrincipalParts(parts)))
    vectors.sort(key=lambda v: (v[0].re, v[0].im, v[1]))
    return [TraceSpec(P, t, q_from_principal_parts(P, p)) for *_, p in vectors]


def reconstruct_principal_parts(spec: TraceSpec) -> PrincipalParts:
    """Principal parts C of the (rational) transform of a degenerate trace.

    Follows the chain C_{b+1/2}^(k) = t C_{b-1/2}^(k) + D_b^(k) along each
    coset, from zero left of the support of D^(k); raises on a
    nondegenerate input, for which no rational transform exists.
    """
    if not delta_criterion(spec).degenerate:
        raise ValueError("trace is not degenerate: its transform is not rational")
    D = spec.difference_parts()
    t = spec.t
    entries = {}  # pole -> [C^(1), C^(2), ...]
    for key, k, roots in _roots_by_coset(spec.P):
        d_k = {o: d for a, o in roots if (d := D.coefficient(a, k))}
        rep, acc = key.representative(), GR_ZERO
        for c in range(min(d_k, default=0), max(d_k, default=0)):
            # C^(k) at the pole rep + c + 1/2; k rises within each coset
            acc = t * acc + d_k.get(c, GR_ZERO)
            if acc:
                cs = entries.setdefault(rep + GaussianRational(c) + _HALF, [])
                cs += [GR_ZERO] * (k - 1 - len(cs)) + [acc]
    return PrincipalParts(entries)


def reconstruct_rational(spec: TraceSpec):
    """The transform as a reduced fraction (R, S); S generates the radical.

    S is monic with gcd(R, S) = 1; series_of_rational(R, S, .) reproduces
    the moment sequence, and S(z) annihilates the trace against every
    polynomial.
    """
    return reconstruct_principal_parts(spec).to_rational()


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
    D = spec.difference_parts()
    out = []
    for k in range(1, D.max_order() + 1):
        layer = {
            a: _pole(coeffs[k - 1], k)
            for a, coeffs in D
            if k <= len(coeffs) and coeffs[k - 1]
        }
        if not layer:
            continue
        p_k = FactoredPolynomial((a, min(m, k)) for a, m in spec.P.roots)
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
    if not delta_criterion(spec).degenerate:
        raise ValueError("two-root decomposition needs a degenerate trace")
    D = spec.difference_parts()
    t = spec.t
    out = []
    # coset by coset, sorted by representative, and k rising within each
    walk = _roots_by_coset(spec.P)
    for _, k, roots in sorted(walk, key=lambda e: (e[0].real_frac, e[0].imag)):
        admissible = dict((o, a) for a, o in roots)  # offset -> root
        support = {o: v for o, a in admissible.items() if (v := D.coefficient(a, k))}
        while support:
            left = min(support)
            val = support.pop(left)
            partners = [o for o in admissible if o > left]
            if not partners:
                raise ValueError(
                    "inconsistent degenerate data: no partner root "
                    f"right of {admissible[left]} at order {k}"
                )
            right = partners[0]
            j = right - left
            a, b = admissible[left], admissible[right]
            pair = FactoredPolynomial([(a, k), (b, k)])
            parts = PrincipalParts({a: _pole(val, k), b: _pole(-(t**j) * val, k)})
            out.append((pair, TraceSpec(pair, t, q_from_principal_parts(pair, parts))))
            carried = support.get(right, GR_ZERO) + t**j * val
            if carried:
                support[right] = carried
            else:
                support.pop(right, None)
    return out
