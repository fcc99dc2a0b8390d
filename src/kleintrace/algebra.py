"""Normal-form arithmetic in the quantized Kleinian singularity of type A.

The algebra attached to a monic polynomial P is generated by u, v, z with

    z u = u z + u,    z v = v z - v,
    u v = P(z - 1/2),  v u = P(z + 1/2),

equivalently q(z) u = u q(z + 1) and q(z) v = v q(z - 1) for q in C[z].
Every element has a unique normal form

    sum_{k>0} u^k q_k(z)  +  q_0(z)  +  sum_{k<0} v^{-k} q_k(z),

graded by the ad-z eigenvalue k (u sits in degree +1, v in degree -1).
"""

from __future__ import annotations

from typing import NamedTuple

from .exactkernel import (
    DensePolynomial,
    FactoredPolynomial,
    GaussianRational,
    _as_scalar,
    _power,
    _shifted_product,
)


class AlgebraElement:
    """An element of the algebra attached to P, stored in normal form.

    ``comps`` maps the winding k to the polynomial coefficient q_k; absent
    keys mean zero, present values are nonzero.
    """

    __slots__ = ("P", "comps")

    def __init__(self, P: FactoredPolynomial, comps=None):
        object.__setattr__(self, "P", P)
        cleaned = {}
        if comps:
            for k, q in comps.items():
                if not isinstance(q, DensePolynomial):
                    q = DensePolynomial(q)
                if not q.is_zero():
                    cleaned[int(k)] = q
        object.__setattr__(self, "comps", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, P) -> "AlgebraElement":
        return cls(P, {})

    @classmethod
    def one(cls, P) -> "AlgebraElement":
        return cls(P, {0: DensePolynomial.one()})

    @classmethod
    def u(cls, P) -> "AlgebraElement":
        return cls(P, {1: DensePolynomial.one()})

    @classmethod
    def v(cls, P) -> "AlgebraElement":
        return cls(P, {-1: DensePolynomial.one()})

    @classmethod
    def z(cls, P) -> "AlgebraElement":
        return cls(P, {0: DensePolynomial.x()})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.comps

    def windings(self):
        return sorted(self.comps)

    def component(self, k: int) -> DensePolynomial:
        return self.comps.get(k, DensePolynomial.zero())

    def __eq__(self, other) -> bool:
        if isinstance(other, AlgebraElement):
            return self.P == other.P and self.comps == other.comps
        return NotImplemented

    def __hash__(self):
        return hash((self.P, tuple(sorted(self.comps.items()))))

    # -- arithmetic --------------------------------------------------------

    def _check_ambient(self, other: "AlgebraElement"):
        if self.P != other.P:
            raise ValueError("elements live over different defining polynomials")

    def __add__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_ambient(other)
            out = dict(self.comps)
            for k, q in other.comps.items():
                out[k] = out.get(k, DensePolynomial.zero()) + q
            return AlgebraElement(self.P, out)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, AlgebraElement):
            return self + (-other)
        return NotImplemented

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.P, {k: -q for k, q in self.comps.items()})

    def scale(self, c) -> "AlgebraElement":
        c = _as_scalar(c)
        if not c:
            return AlgebraElement.zero(self.P)
        return AlgebraElement(self.P, {k: q * c for k, q in self.comps.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply_normal(self, other)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __rmul__(self, other):
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __pow__(self, n: int) -> "AlgebraElement":
        if n < 0:
            raise ValueError("negative powers are not defined")
        return _power(self, n, AlgebraElement.one(self.P))

    def __repr__(self) -> str:
        if not self.comps:
            return "AlgebraElement(0)"
        parts = []
        for k in self.windings():
            gen = "" if k == 0 else (f"u^{k}·" if k > 0 else f"v^{-k}·")
            parts.append(f"{gen}({self.comps[k]})")
        return "AlgebraElement(" + " + ".join(parts) + ")"

    def to_json(self) -> dict:
        return {
            "P": self.P.to_json(),
            "comps": {str(k): q.to_json() for k, q in self.comps.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraElement":
        P = FactoredPolynomial.from_json(data["P"])
        comps = {
            int(k): DensePolynomial.from_json(q)
            for k, q in data.get("comps", {}).items()
        }
        return cls(P, comps)


def _winding_reduction(P: FactoredPolynomial, j: int, k: int):
    """Normal form of w_j * w_k: returns (j + k, polynomial factor).

    w_j is u^j for j > 0, v^{-j} for j < 0.  When the signs differ, each
    cancelled u v (resp. v u) pair contributes a shifted copy of P, and the
    whole ladder prod_s P(z + h_s) is one ``_shifted_product`` over P's
    cleared roots, its half-integer shifts h_s = (2 s - 1) / 2 or
    (1 - 2 s) / 2 handed over as integer numerators over 2.  When they do
    not, the factor is 1, which ``multiply_normal`` never multiplies by.
    """
    if j == 0 or k == 0 or (j > 0) == (k > 0):
        return j + k, DensePolynomial.one()
    if j > 0:
        # u^j v^b with b = -k: factors P(z - s + 1/2), s = b-m+1 .. b
        b = -k
        m = min(j, b)
        halves = [1 - 2 * s for s in range(b - m + 1, b + 1)]
    else:
        # v^a u^b with a = -j, b = k: factors P(z + s - 1/2), s = b-m+1 .. b
        b = k
        m = min(-j, b)
        halves = [2 * s - 1 for s in range(b - m + 1, b + 1)]
    return j + k, _shifted_product(P, (halves, [0] * m, 2))


def multiply_normal(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product in normal form; the grading is additive on windings.  A pair
    of components whose windings cancel (opposite signs) is multiplied by
    its ladder from ``_winding_reduction``; any other pair is
    p(z + k) q(z) alone."""
    a._check_ambient(b)
    out: dict[int, DensePolynomial] = {}
    for j, p in a.comps.items():
        for k, q in b.comps.items():
            if j * k < 0:
                term = _winding_reduction(a.P, j, k)[1] * p.shift(k) * q
            else:
                term = p.shift(k) * q
            w = j + k
            if w in out:
                out[w] = out[w] + term
            else:
                out[w] = term
    return AlgebraElement(a.P, out)


class MorphismSpec(NamedTuple):
    """One of the structure maps of the algebra family.

    * ``gt(t)``       - the scaling automorphism u -> u/t, v -> t v, z -> z;
    * ``negate()``    - u -> (-1)^deg(P) v, v -> u, z -> -z, landing in the
                        monic algebra whose roots are negated;
    * ``shift(r)``    - z -> z + r, landing in the algebra of P(x + r);
    * ``pullback(Q1, Q2)`` - u -> Q1(z-1/2) u, v -> Q2(z+1/2) v, z -> z,
                        from the algebra of P1*Q1*Q2 down to that of P1
                        (Q1, Q2 are given factored and monic).
    """

    kind: str
    t: GaussianRational | None = None
    r: GaussianRational | None = None
    q1: FactoredPolynomial | None = None
    q2: FactoredPolynomial | None = None

    @classmethod
    def gt(cls, t) -> "MorphismSpec":
        t = _as_scalar(t)
        if not t:
            raise ValueError("the scaling automorphism needs t != 0")
        return cls(kind="gt", t=t)

    @classmethod
    def negate(cls) -> "MorphismSpec":
        return cls(kind="negate")

    @classmethod
    def shift(cls, r) -> "MorphismSpec":
        return cls(kind="shift", r=_as_scalar(r))

    @classmethod
    def pullback(cls, q1: FactoredPolynomial, q2: FactoredPolynomial) -> "MorphismSpec":
        return cls(kind="pullback", q1=q1, q2=q2)

    def target(self, source: FactoredPolynomial) -> FactoredPolynomial:
        if self.kind == "gt":
            return source
        if self.kind == "negate":
            return FactoredPolynomial((-root, m) for root, m in source.roots)
        if self.kind == "shift":
            return FactoredPolynomial(
                (root - self.r, m) for root, m in source.roots
            )
        if self.kind == "pullback":
            return source.remove(self.q1).remove(self.q2)
        raise ValueError(f"unknown morphism kind {self.kind!r}")


def morphism_apply(m: MorphismSpec, a: AlgebraElement) -> AlgebraElement:
    """Apply a structure map to a normal-form element.

    The result lives over ``m.target(a.P)``.  All four maps are unital
    algebra homomorphisms that send the winding-k component w_k q(z) to one
    component: gt to t^(-k) w_k q(z), shift to w_k q(z + r), negate to
    s w_(-k) q(-z) with s = (-1)^(k deg P) for k > 0 and 1 otherwise, and
    pullback u^k q to u^k prod_{s<k} Q1(z + s + 1/2) q and v^k q to
    v^k prod_{s<k} Q2(z - s - 1/2) q, as Q1(z - 1/2) u = u Q1(z + 1/2) and
    Q2(z + 1/2) v = v Q2(z - 1/2).  Each ladder is one
    ``_shifted_product`` of Q1 or Q2 over the half-integer shifts
    (2 s + 1) / 2 or -(2 s + 1) / 2, with no scalar root made.
    """
    target = m.target(a.P)
    out = {}
    for k, q in a.comps.items():
        if m.kind == "gt":
            out[k] = q * m.t ** (-k)
        elif m.kind == "shift":
            out[k] = q.shift(m.r)
        elif m.kind == "negate":
            odd = k * a.P.degree % 2 if k > 0 else 0
            out[-k] = DensePolynomial(
                -c if (j + odd) % 2 else c for j, c in enumerate(q.coeffs)
            )
        elif k > 0:
            halves = [2 * s + 1 for s in range(k)]
            out[k] = _shifted_product(m.q1, (halves, [0] * k, 2)) * q
        else:
            halves = [-2 * s - 1 for s in range(-k)]
            out[k] = _shifted_product(m.q2, (halves, [0] * -k, 2)) * q
    return AlgebraElement(target, out)


def apply_gt(a: AlgebraElement, t) -> AlgebraElement:
    """Shorthand for the scaling automorphism."""
    return morphism_apply(MorphismSpec.gt(t), a)
