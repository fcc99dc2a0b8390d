"""The property checks: one registry behind ``kleintrace selftest`` and the
acceptance tests.

Each check is one function ``fn(rng, **size)``.  It re-derives its
expectations independently (recombination, brute-force evaluation,
cross-route comparison), returns a one-line detail, and raises
``CheckFailed`` at the first counterexample.  A registry entry in
``CHECKS`` holds two sets of size arguments:

* ``quick`` -- run by ``kleintrace selftest --seed S`` on
  ``random.Random(f"{S}:{name}")``;
* ``full`` -- run by ``tests/test_acceptance.py`` on
  ``random.Random(full_seed)``.  Criterion N of the acceptance suite is
  seeded ``"acceptance-N"``; a check with no criterion runs its quick size
  under the default seed, ``"7:{name}"``.

Sizes change how many samples a check draws, not the order of its draws or
what it asserts.  String seeding is hash-independent, so identical seeds
give identical reports.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import linalg
from .algebra import AlgebraElement, MorphismSpec, apply_gt, morphism_apply
from .catalog import CATALOG_P, CATALOG_T
from .degeneracy import (
    _delta_rows,
    degenerate_basis,
    delta_criterion,
    delta_invariant,
    pole_bounds,
    radical_generator,
    reconstruct_principal_parts,
    reconstruct_rational,
)
from .exactkernel import (
    GR_ONE,
    GR_ZERO,
    DensePolynomial,
    FactoredPolynomial,
    GaussianRational,
    PrincipalParts,
    partial_fractions,
    q_from_principal_parts,
    series_of_rational,
    _HALF,
    _roots_by_coset,
)
from .findim import build_jordan_module, build_string_module, module_trace
from .lerch import lerch_phi, verify_lerch_recursion
from .pade import pade_approximant, verify_pade_functional
from .tracespace import (
    TraceSpec,
    evaluate_trace,
    hankel_rank,
    spec_from_moments,
    trace_dim,
)

DEFAULT_SEED = 7


def random_scalar(rng: random.Random, spread: int = 4) -> GaussianRational:
    re = Fraction(rng.randint(-spread, spread), rng.choice((1, 2)))
    im = rng.randint(-1, 1) if rng.random() < 0.25 else 0
    return GaussianRational(re, im)


def random_poly(rng: random.Random, max_deg: int) -> DensePolynomial:
    return DensePolynomial(
        random_scalar(rng) for _ in range(rng.randint(0, max_deg + 1))
    )


def random_element(
    rng: random.Random, P: FactoredPolynomial, max_wind: int = 2, max_deg: int = 2
) -> AlgebraElement:
    comps = {}
    for k in range(-max_wind, max_wind + 1):
        if rng.random() < 0.5:
            q = random_poly(rng, max_deg)
            if not q.is_zero():
                comps[k] = q
    return AlgebraElement(P, comps)


def random_trace_q(
    rng: random.Random, P: FactoredPolynomial, t: GaussianRational
) -> DensePolynomial:
    """A random valid Q with nonzero leading coefficient at the degree bound."""
    bound = trace_dim(P, t) - 1
    if bound < 0:
        return DensePolynomial.zero()
    coeffs = [random_scalar(rng) for _ in range(bound)]
    lead = GaussianRational(
        Fraction(rng.choice((1, 2, 3, 4, 5)) * rng.choice((-1, 1)), rng.choice((1, 2)))
    )
    coeffs.append(lead)
    return DensePolynomial(coeffs)


class CheckFailed(AssertionError):
    """A property check met a counterexample; the message says where."""


def _require(cond, message: str):
    # an explicit raise, unlike assert, still checks under python -O
    if not cond:
        raise CheckFailed(message)


def _check_exactkernel(rng: random.Random, samples: int) -> str:
    p_catalog = [poly for _, poly in CATALOG_P if poly.degree >= 2]
    for _ in range(samples):
        P = rng.choice(p_catalog)
        numer = random_poly(rng, P.degree - 1)
        recombined_r, recombined_s = partial_fractions(numer, P).to_rational()
        # recombination over the common denominator must reproduce numer/P
        if recombined_s.degree > 0:
            ok = numer * recombined_s == recombined_r * P.expand()
            _require(ok, f"partial fractions recombination failed on {P}")
        else:
            _require(numer.is_zero(), f"lost numerator on {P}")
        h = random_scalar(rng)
        q = random_poly(rng, 4)
        _require(q.shift(h).shift(-h) == q, "poly shift round trip failed")
    return "partial fractions recombine; shifts invert"


def _check_series_round_trip(rng: random.Random, samples: int, order: int) -> str:
    p_catalog = [poly for _, poly in CATALOG_P if poly.degree >= 2]
    for _ in range(samples):
        P = rng.choice(p_catalog)
        numer = random_poly(rng, P.degree - 1)
        direct = series_of_rational(numer, P.expand(), order)
        ok = direct == partial_fractions(numer, P).series(order)
        _require(ok, f"series of {numer} / {P} disagrees with its parts")
    return f"rational series agree with principal-part series to order {order}"


def _check_algebra(rng: random.Random, triples: int, pairs: int) -> str:
    P = FactoredPolynomial([(0, 1), (1, 1)])
    for _ in range(triples):
        a = random_element(rng, P, max_wind=1, max_deg=2)
        b = random_element(rng, P, max_wind=1, max_deg=2)
        c = random_element(rng, P, max_wind=1, max_deg=1)
        _require((a * b) * c == a * (b * c), "associativity failed")
    t = GaussianRational(Fraction(3, 2))
    neg = MorphismSpec.negate()
    for _ in range(pairs):
        a = random_element(rng, P)
        b = random_element(rng, P)
        ok = apply_gt(a * b, t) == apply_gt(a, t) * apply_gt(b, t)
        _require(ok, "scaling map is not multiplicative")
        lhs = morphism_apply(neg, apply_gt(a, t))
        rhs = apply_gt(morphism_apply(neg, a), GR_ONE / t)
        _require(lhs == rhs, "negation does not intertwine the scalings")
    return "associativity, scaling automorphism, intertwining"


def _check_twisted_trace(
    rng: random.Random, ambients, pairs: int, monomials: int
) -> str:
    for P in ambients:
        pexp = P.expand()
        for _, t in CATALOG_T:
            spec = TraceSpec(P, t, random_trace_q(rng, P, t))
            for _ in range(pairs):
                a = random_element(rng, P)
                b = random_element(rng, P)
                lhs = evaluate_trace(spec, a * b)
                rhs = evaluate_trace(spec, apply_gt(b, t) * a)
                _require(lhs == rhs, f"trace identity failed for t = {t}")
            # T(S(z-1/2) P(z-1/2)) = t T(S(z+1/2) P(z+1/2)) for S = z^k
            for k in range(monomials):
                sp = DensePolynomial([0] * k + [1]) * pexp
                lhs = spec.trace_of_poly(sp.shift(-_HALF))
                rhs = spec.trace_of_poly(sp.shift(_HALF))
                _require(lhs == t * rhs, f"shifted product failed for z^{k}, t = {t}")
    return "T(ab) = T(g_t(b) a) on random pairs"


def _kernel_dim(rows) -> int:
    """Width less rank of scalar rows; of the Delta rows, the degenerate dimension."""
    return len(rows[0]) - linalg.rank(linalg.numerator_rows(rows))


def _gcd_degree(R: DensePolynomial, S: DensePolynomial) -> int:
    """deg gcd(R, S) for deg R < deg S = m, as m - rank H_m (Kronecker): the
    reduced form of R/S has denominator degree rank H_m, H_m the m x m
    Hankel matrix of the series of R/S at infinity."""
    m = S.degree
    if not m:
        return 0
    return m - hankel_rank(series_of_rational(R, S, 2 * m - 2), m)


def _relation_rows(P: FactoredPolynomial, t, count: int) -> list:
    """r_j = t P(z + 1/2) (z + 1)^j - P(z - 1/2) z^j, j < count, which a trace
    kills (T(ab) = T(g_t(b) a) at a = v z^j, b = u), as coefficient rows as
    wide as the longest, since at t = 1 the top terms cancel."""
    p, z = P.expand(), DensePolynomial.x()
    plus, minus = t * p.shift(_HALF), p.shift(-_HALF)
    r = [plus * (z + 1) ** j - minus * z**j for j in range(count)]
    width = 1 + max(r_j.degree for r_j in r)
    return [[r_j.coefficient(k) for k in range(width)] for r_j in r]


def _check_dimensions(rng: random.Random, rows: int) -> str:
    for _, P in CATALOG_P:
        delta, _ = delta_invariant(P)
        _require(0 <= delta <= P.degree - 1, f"delta out of range for {P}")
        for _, t in CATALOG_T:
            where = f"{P}, t = {t}"
            ok = _kernel_dim(_delta_rows(P, t)) == delta == len(degenerate_basis(P, t))
            _require(ok, f"kernel dimension or basis length != delta for {where}")
            dim = _kernel_dim(_relation_rows(P, t, rows))
            _require(trace_dim(P, t) == dim, f"trace dimension wrong for {where}")
    # three roots in one coset: delta = d - 1 = 2; every trace is degenerate
    # at t = 1, and Q = 1 is a nondegenerate one at t = 2
    chain, two = FactoredPolynomial([(0, 1), (1, 1), (2, 1)]), GaussianRational(2)
    _require(delta_invariant(chain)[0] == 2, f"delta of {chain} is not 2")
    ok = trace_dim(chain, GR_ONE) == 2 == _kernel_dim(_delta_rows(chain, GR_ONE))
    _require(ok, f"not every trace on {chain} is degenerate at t = 1")
    ok = trace_dim(chain, two) == 3 > _kernel_dim(_delta_rows(chain, two))
    _require(ok, f"every trace on {chain} is degenerate at t = 2")
    witness = TraceSpec(chain, two, DensePolynomial.one())
    _require(not delta_criterion(witness).degenerate, f"Q = 1 on {chain} is degenerate")
    return "degenerate dimension equals the coset invariant"


def _check_tri_oracle(rng: random.Random, random_per_cell: int) -> str:
    for _, P in CATALOG_P:
        bound = pole_bounds(P).total
        for _, t in CATALOG_T:
            qs = [random_trace_q(rng, P, t) for _ in range(random_per_cell)]
            specs = [TraceSpec(P, t, q) for q in qs]
            for spec in specs + degenerate_basis(P, t):
                by_delta = delta_criterion(spec).degenerate
                moments = spec.moments(2 * (bound + 6) - 1)
                # rank stabilized at <= B over the same 6-wide window the Pade
                # route uses; a single (B+1)-block can be singular by accident
                by_hankel = hankel_rank(moments, bound + 6) <= bound
                window = [pade_approximant(moments, n) for n in range(bound, bound + 6)]
                by_pade = all(pa.S == window[0].S for pa in window)
                ok = by_delta == by_hankel == by_pade
                _require(ok, f"oracles disagree on {P}, t = {t}, Q = [{spec.Q}]")
                # minimality of S puts every approximant in lowest terms,
                # checked by a Hankel rank of the approximant's own series
                ok = all(_gcd_degree(pa.R, pa.S) == 0 for pa in window)
                _require(ok, f"Pade approximant not in lowest terms on {P}")
                # the one-sided block bound is a theorem
                ok = not by_delta or hankel_rank(moments, bound + 1) <= bound
                _require(ok, f"degenerate trace with full Hankel block on {P}")
    return "delta, Hankel and Pade routes agree on the catalog"


def _check_reconstruction(rng: random.Random, order: int, annihilators: int) -> str:
    count = 0
    for _, P in CATALOG_P:
        bounds = pole_bounds(P)
        for _, t in CATALOG_T:
            where = f"{P}, t = {t}"
            for spec in degenerate_basis(P, t):
                numer, denom = reconstruct_rational(spec)
                ok = numer.is_zero() or _gcd_degree(numer, denom) == 0
                _require(ok, f"reconstruction not in lowest terms on {where}")
                _require(denom.leading() == GR_ONE, f"denominator not monic on {where}")
                ok = denom.degree <= bounds.total
                _require(ok, f"denominator degree above the pole bound on {where}")
                # pole orders are capped by the one-sided root statistics
                parts = reconstruct_principal_parts(spec)
                caps = bounds.bounds
                ok = all(parts.order_at(a) <= caps.get(a, 0) for a in parts.support())
                _require(ok, f"pole order above its bound on {where}")
                if denom.degree == 0:
                    ok = numer.is_zero()
                    _require(ok, "constant denominator with nonzero numerator")
                    continue
                ok = series_of_rational(numer, denom, order) == spec.moments(order)
                _require(ok, f"reconstruction mismatch on {where}")
                if annihilators:
                    generator = radical_generator(spec)
                    for _ in range(annihilators):
                        q = random_poly(rng, 4)
                        ok = spec.trace_of_poly(generator * q) == GR_ZERO
                        _require(ok, f"radical generator is not annihilated on {where}")
                count += 1
    return f"{count} rational reconstructions match their moments"


def _check_modules(
    rng: random.Random, string_order: int, jordan_order: int, jordan_ts, sweep
) -> str:
    P, t = FactoredPolynomial([(0, 1), (2, 1)]), GaussianRational(3)
    mu = module_trace(build_string_module(P, 0, 2, 1, t), P, string_order)
    _require(mu.coeffs[:3] == (4, 5, 7), "string module moments wrong")
    ok = delta_criterion(spec_from_moments(P, t, mu)).degenerate
    _require(ok, "string module trace is not degenerate")
    PJ = FactoredPolynomial([(Fraction(-1, 2), 2), (Fraction(3, 2), 2)])
    one = DensePolynomial.one()
    for t in jordan_ts:
        mu = module_trace(build_jordan_module(PJ, 0, 2, 2, 1, t), PJ, jordan_order)
        # transform 1/x^2 + t/(x-1)^2
        target = series_of_rational(one, DensePolynomial([0, 0, 1]), jordan_order)
        shifted = series_of_rational(one, DensePolynomial([1, -2, 1]), jordan_order)
        target = target + shifted.scale(t)
        ok = mu == target and mu.coeffs[:4] == (0, 1 + t, 2 * t, 3 * t)
        _require(ok, "Jordan module moments do not match the target transform")
    # string modules between roots at integer distance give traces whose
    # transforms have only simple poles
    for P in sweep:
        root_pairs = [
            (a, o_b - o_a)
            for _, k, roots in _roots_by_coset(P)
            if k == 1
            for i, (a, o_a) in enumerate(roots)
            for _, o_b in roots[i + 1 :]
        ]
        for _, t in CATALOG_T:
            for a, gap in root_pairs:
                rep = build_string_module(P, a, gap, 1, t)
                mu = module_trace(rep, P, P.degree + 8)
                parts = reconstruct_principal_parts(spec_from_moments(P, t, mu))
                ok = all(parts.order_at(loc) == 1 for loc in parts.support())
                _require(ok, f"string module on {P} has a multiple pole, t = {t}")
    return "module traces reproduce their target transforms"


def _check_pade_functional(rng: random.Random, ambients, ts, max_n: int) -> str:
    for P in ambients:
        for t in ts:
            spec = TraceSpec(P, t, random_trace_q(rng, P, t))
            for n in range(1, max_n + 1):
                order = verify_pade_functional(spec, n)
                m = pade_approximant(spec.moments(2 * n - 1), n).S.degree
                ok = order >= n + m + 1 + (t == GR_ONE)
                _require(ok, f"functional bound failed at n = {n}, t = {t}")
    # a small denominator plus a deep pole term: every [n-1/n] denominator
    # below the pole depth is z, yet the trace is nondegenerate
    t, k, half = GaussianRational(2), 12, Fraction(1, 2)
    P = FactoredPolynomial([(0, k), (half, 1), (-half, 1)])
    parts = PrincipalParts({-half: [1], half: [-t], 0: [0] * (k - 1) + [1]})
    spec = TraceSpec(P, t, q_from_principal_parts(P, parts))
    ok = not delta_criterion(spec).degenerate
    _require(ok, "stabilization example is degenerate")
    moments = spec.moments(2 * (k - 1) - 1)
    for n in range(1, k - 1):
        ok = pade_approximant(moments, n).S == DensePolynomial([0, 1])
        _require(ok, f"stabilization example's denominator moved at n = {n}")
    return "approximant residuals vanish to the expected order"


def _check_lerch(rng: random.Random, points, samples) -> str:
    ok = abs(lerch_phi(0.5, 1, 1.0) - 2 * math.log(2)) < 1e-12
    _require(ok, "closed form 2 ln 2 missed")
    for t, n, xs in points:
        for x in xs:
            lhs = lerch_phi(t, n, x) - t * lerch_phi(t, n, x + 1)
            ok = abs(lhs - x ** (-n)) < 1e-10
            _require(ok, f"recursion residual too large at {t}, {n}, {x}")
    P = FactoredPolynomial([(0, 1), (1, 1)])
    spec = TraceSpec(P, GaussianRational(Fraction(1, 2)), DensePolynomial.one())
    worst, detail = verify_lerch_recursion(spec, samples)
    _require(len(detail) == len(samples), "a sample went unchecked")
    _require(worst < 1e-9, f"difference-equation residual {worst} too large")
    return "Lerch sums satisfy their recursion and closed form"


class Check:
    """A registry entry: the check, its keyword arguments at each size, and
    the seed of its full-size run."""

    def __init__(self, name, fn, quick, full=None, full_seed=None):
        self.name = name
        self.fn = fn
        self.quick = quick
        self.full = quick if full is None else full
        self.full_seed = full_seed or f"{DEFAULT_SEED}:{name}"


_SMALL_P = (FactoredPolynomial([(0, 1), (1, 1)]), FactoredPolynomial([(0, 2)]))
_ALL_P = tuple(P for _, P in CATALOG_P)
_ALL_T = tuple(t for _, t in CATALOG_T)
_TWO = GaussianRational(2)

# the Lerch recursion is checked as (t, n, xs): at five points, or on one
# 100-point line per (t, n), with t inside the unit disk and on the unit
# circle; the line is shared, so the grid costs the import 19 tuples
_LERCH_POINTS = (
    (0.5, 2, (0.3,)), (-0.7, 3, (1.9,)), (0.3 + 0.4j, 2, (2.5,)),
    (-1, 1, (0.7,)), (1j, 2, (2.5,)),
)
_LERCH_LINE = tuple(0.3 + 3.7 * idx / 99 + 0.1j for idx in range(100))
LERCH_GRID = tuple(
    (t, n, _LERCH_LINE)
    for t in (0.5, -0.7, 0.3 + 0.4j, -1, 1j, 0.6 + 0.8j)
    for n in (1, 2, 3)
)

CHECKS = {
    check.name: check
    for check in (
        Check("exactkernel", _check_exactkernel, dict(samples=20)),
        Check(
            "series-round-trip", _check_series_round_trip, dict(samples=15, order=30)
        ),
        Check("algebra", _check_algebra, dict(triples=30, pairs=15)),
        Check(
            "twisted-trace", _check_twisted_trace,
            quick=dict(ambients=_SMALL_P, pairs=20, monomials=0),
            full=dict(ambients=_ALL_P, pairs=200, monomials=21),
            full_seed="acceptance-2",
        ),
        # r_j has degree deg r_0 + j, so any number of rows gives one answer
        Check("dimensions", _check_dimensions, dict(rows=1), dict(rows=9),
              "acceptance-1"),
        Check(
            "tri-oracle", _check_tri_oracle,
            quick=dict(random_per_cell=1),
            full=dict(random_per_cell=50),
            full_seed="acceptance-3",
        ),
        Check(
            "reconstruction", _check_reconstruction,
            quick=dict(order=40, annihilators=0),
            full=dict(order=50, annihilators=50),
            full_seed="acceptance-4",
        ),
        Check(
            "modules", _check_modules,
            quick=dict(string_order=2, jordan_order=3, jordan_ts=(_TWO,), sweep=()),
            full=dict(string_order=12, jordan_order=20, jordan_ts=_ALL_T, sweep=_ALL_P),
            full_seed="acceptance-6",
        ),
        Check(
            "pade-functional", _check_pade_functional,
            quick=dict(ambients=_SMALL_P, ts=(_TWO, GR_ONE), max_n=3),
            full=dict(ambients=_ALL_P, ts=_ALL_T, max_n=6),
            full_seed="acceptance-7",
        ),
        Check(
            "lerch", _check_lerch,
            quick=dict(
                points=_LERCH_POINTS, samples=[2.0 + 0.4 * k + 0.3j for k in range(10)]
            ),
            full=dict(
                points=LERCH_GRID,
                samples=[2.0 + 4.0 * k / 19.0 + 0.3j for k in range(20)],
            ),
            full_seed="acceptance-8",
        ),
    )
}


def run_selftest(seed: int = DEFAULT_SEED) -> dict:
    """Run every check at quick size on randomness derived from the seed.

    A check that fails or raises is reported as failed, with its message;
    nothing propagates.
    """
    results = []
    for check in CHECKS.values():
        rng = random.Random(f"{seed}:{check.name}")
        try:
            passed, detail = True, check.fn(rng, **check.quick)
        except CheckFailed as exc:
            passed, detail = False, str(exc)
        except Exception as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": check.name, "passed": passed, "detail": detail})
    passed = sum(r["passed"] for r in results)
    failed = len(results) - passed
    return {"seed": seed, "passed": passed, "failed": failed, "checks": results}
