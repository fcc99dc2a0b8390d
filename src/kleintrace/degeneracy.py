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

One run of the chain per level (coset, k), ``_chain``, holds C just
right of each root, a gap of g offsets multiplying by t^g.  It gives every
Delta, t^(-o) times the value at the last root o (``delta_criterion``),
the two-root split (``decompose_two_root``), and C at each pole, stepped
by t from the root on its left (``reconstruct_principal_parts``).

D is the trace's one expansion of Q/P (``TraceSpec.difference_parts``),
the cosets come from P's walk (``exactkernel._roots_by_coset``), and every
Q, sum c P/(x - a)^k, comes from one kernel, ``exactkernel._q_sums``,
which takes the (a, k, c) terms as they are: the degenerate basis hands
it every vector at once, so each root's quotients P/(x - a)^k are one
chain as k rises.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

from .exactkernel import (
    GR_ONE,
    GR_ZERO,
    DensePolynomial,
    FactoredPolynomial,
    GaussianRational,
    PrincipalParts,
    _HALF,
    _as_scalar,
    _q_sums,
    _roots_by_coset,
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
    """Every coset sum Delta^(k) of the principal parts of Q/P, read off
    its level's chain."""
    D, t = spec.difference_parts(), spec.t
    total, per_coset = delta_invariant(spec.P)
    t_inv = GR_ONE / t  # t^(-o) as (1/t)^o: no division by a large t^o
    deltas = {}
    for key, k, roots in _roots_by_coset(spec.P):
        closure = _chain(D, t, k, roots)[-1]
        deltas[(key, k)] = t_inv ** roots[-1][1] * closure if closure else GR_ZERO
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
    rows and adds no constraint.  The vectors come root by root, in the
    order of P.roots, and then by k: the column order of the
    reduced-row-echelon kernel basis.
    """
    t = _as_scalar(t)
    if not t:
        raise ValueError("the twist parameter t must be nonzero")
    position = {a: i for i, (a, _) in enumerate(P.roots)}
    keys, groups = [], []  # the sort key (a_j's place in P.roots, k) and Q
    for _, k, ((a0, o0), *others) in _roots_by_coset(P):
        for a, o in others:
            keys.append((position[a], k))
            groups.append([(a, k, GR_ONE), (a0, k, -(t ** (o0 - o)))])
    qs = _q_sums(P, groups)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [TraceSpec(P, t, qs[i]) for i in order]


def _chain(D: PrincipalParts, t, k: int, roots: tuple) -> list:
    """C^(k) at the pole rep + o_j + 1/2 of each root a_j of one level
    (coset, k) of ``_roots_by_coset``: from zero left of the first root,
    acc = t^(o_j - o_(j-1)) acc + D_(a_j)^(k).  Left of the next root C
    gains a factor t per step, and the last entry is t^(o_last) Delta^(k)."""
    chain, acc, last = [], GR_ZERO, roots[0][1]
    for a, o in roots:
        if acc:
            acc = t ** (o - last) * acc
        if d := D.coefficient(a, k):
            acc = acc + d
        chain.append(acc)
        last = o
    return chain


def reconstruct_principal_parts(spec: TraceSpec) -> PrincipalParts:
    """Principal parts C of the (rational) transform of a degenerate trace.

    The chain of each level read before its last root, each value stepped
    by t up to the next root; raises on a nondegenerate input, for which no
    rational transform exists.
    """
    D, t = spec.difference_parts(), spec.t
    entries = {}  # pole -> [C^(1), C^(2), ...]
    for key, k, roots in _roots_by_coset(spec.P):
        chain = _chain(D, t, k, roots)
        if chain[-1]:
            raise ValueError("trace is not degenerate: its transform is not rational")
        rep = key.representative()
        for (_, o), (_, o_next), value in zip(roots, roots[1:], chain):
            if not value:
                continue
            for c in range(o, o_next):
                # C^(k) at the pole rep + c + 1/2; k rises within each coset
                cs = entries.setdefault(rep + GaussianRational(c) + _HALF, [])
                cs += [GR_ZERO] * (k - 1 - len(cs)) + [value]
                value = t * value
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
        terms = [(a, k, cs[k - 1]) for a, cs in D if k <= len(cs) and cs[k - 1]]
        if terms:
            p_k = FactoredPolynomial((a, min(m, k)) for a, m in spec.P.roots)
            (q_k,) = _q_sums(p_k, [terms])
            out.append((k, TraceSpec(p_k, spec.t, q_k)))
    return out


def decompose_two_root(spec: TraceSpec, strict: bool = True):
    """Write a degenerate trace as a sum of two-root degenerate traces.

    The chain of each level read at its roots: neighbours a < b of a level
    (coset, k), at offsets o < o', whose chain value c at a is nonzero give
    the component c / (x - a)^k - t^(o' - o) c / (x - b)^k.  Components come
    coset by coset, sorted by representative, k rising, pairs left to right.
    Returns [(P', TraceSpec), ...] with P' = (x-a)^k (x-b)^k.  A
    nondegenerate trace, which a chain's last value shows (it is
    t^(o_last) Delta^(k)), raises ValueError, or with ``strict`` false
    returns None, so that a caller decides degeneracy only here.
    """
    D, t = spec.difference_parts(), spec.t
    walk = sorted(_roots_by_coset(spec.P), key=lambda e: (e[0].real_frac, e[0].imag))
    levels = [(k, roots, _chain(D, t, k, roots)) for _, k, roots in walk]
    if any(chain[-1] for *_, chain in levels):
        if not strict:
            return None
        raise ValueError("two-root decomposition needs a degenerate trace")
    out = []
    for k, roots, chain in levels:
        for (a, o), (b, o_next), c in zip(roots, roots[1:], chain):
            if c:
                pair = FactoredPolynomial([(a, k), (b, k)])
                carry = t ** (o_next - o) * c  # what the chain carries to b
                (q,) = _q_sums(pair, [[(a, k, c), (b, k, -carry)]])
                out.append((pair, TraceSpec(pair, t, q)))
    return out
