"""Lerch sums: closed forms, the recursion identity, residual verification."""

import cmath
import math

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kleintrace import (
    DensePolynomial,
    FactoredPolynomial,
    GaussianRational,
    PrincipalParts,
    TraceSpec,
    lerch_phi,
    q_from_principal_parts,
    stieltjes_solution,
    verify_lerch_recursion,
)
from kleintrace import lerch
from kleintrace.selftest import CHECKS, LERCH_GRID

from oracles import integer_offset

from conftest import fp, gr, poly

P2 = fp(0, 1)


def test_closed_form_values():
    # Phi(t, 1, 1) = -ln(1-t)/t
    assert abs(lerch_phi(0.5, 1, 1.0) - 2 * math.log(2)) < 1e-12
    t = -0.7
    assert abs(lerch_phi(t, 1, 1.0) - (-math.log(1 - t) / t)) < 1e-12
    # Phi(0, n, x) = x^{-n}
    assert lerch_phi(0.0, 3, 2.0) == 2.0**-3
    assert lerch_phi(0.0, 2, 1.5 + 0.5j) == (1.5 + 0.5j) ** -2


def test_against_mpmath_reference():
    cases = [
        (0.5, 1, 0.75),
        (0.5, 2, -2.3),
        (-0.7, 3, 1.9),
        (0.3 + 0.4j, 2, 2.5 + 1.0j),
        (0.9, 1, 4.25),
    ]
    for t, n, x in cases:
        ours = lerch_phi(t, n, x)
        ref = complex(mpmath.lerchphi(t, n, x))
        assert abs(ours - ref) <= 1e-11 * max(1.0, abs(ref))


# points on both sides of Re x = 0, one far up the imaginary axis
_GRID_X = (0.3 + 0.1j, 1.0, 2.5 + 1.0j, 7.25 - 0.5j, -2.3, -3.7 + 0.4j, 1.5 + 30j)


@pytest.mark.parametrize(
    "t", [-1, 1j, -1j, 0.6 + 0.8j, 0.6 - 0.8j, -0.28 + 0.96j, cmath.exp(0.3j)]
)
def test_unit_circle_against_mpmath(t):
    for n in (1, 2, 3):
        for x in _GRID_X:
            ref = complex(mpmath.lerchphi(t, n, x))
            assert abs(lerch_phi(t, n, x) - ref) <= 1e-12 * abs(ref), (n, x)


def test_hurwitz_zeta_at_t_one():
    for n in (2, 3, 5):
        for x in _GRID_X:
            ref = complex(mpmath.zeta(n, x))
            assert abs(lerch_phi(1, n, x) - ref) <= 1e-12 * abs(ref), (n, x)


def test_recursion_identity_grid():
    # Phi(t,n,x) - t Phi(t,n,x+1) = x^{-n} on a 100-point line per (t, n)
    CHECKS["lerch"].fn(None, points=LERCH_GRID, samples=())


def test_domain_guards():
    with pytest.raises(ValueError):
        lerch_phi(1.2, 2, 1.0)  # |t| > 1
    with pytest.raises(ValueError):
        lerch_phi(1.0, 1, 2.5)  # divergent combination
    with pytest.raises(ValueError):
        lerch_phi(0.5, 2, -3.0)  # pole
    with pytest.raises(ValueError):
        lerch_phi(0.5, 0, 1.0)
    for n in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="positive integer"):
            lerch_phi(0.5, n, 2.0)
    # near t = 1 no route fits in TERM_CAP terms; refused before summing
    for t in (0.99, cmath.exp(0.01j), 1 + 1e-14):
        with pytest.raises(ValueError, match="too close to 1"):
            lerch_phi(t, 2, 1.5)


def test_negative_real_part_extension():
    ours = lerch_phi(0.5, 2, -2.3)
    ref = complex(mpmath.lerchphi(0.5, 2, -2.3))
    assert abs(ours - ref) < 1e-11 * abs(ref)


def test_verify_recursion_worked_example():
    spec = TraceSpec(P2, gr("1/2"), poly(1))
    samples = [2.0 + 4.0 * k / 19.0 + 0.3j for k in range(20)]
    worst, detail = verify_lerch_recursion(spec, samples)
    assert worst < 1e-9
    assert len(detail) == 20


def test_verify_recursion_zero_and_single_pole():
    zero = TraceSpec(P2, gr("1/2"), DensePolynomial.zero())
    worst, _ = verify_lerch_recursion(zero, [2.3 + 0.3j])
    assert worst == 0.0
    single = TraceSpec(fp(0), gr("1/2"), poly(1))
    worst2, _ = verify_lerch_recursion(
        single, [1.7 + 0.7j, 3.2 - 0.4j, 5.3 + 0.1j, 2.25, 4.75, 6.3,
                 2.8 + 1.1j, 3.4 + 0.2j, 5.9 - 0.8j, 2.05 + 0.5j]
    )
    assert worst2 < 1e-9


# lerch-check's default grid, and the residual the benchmark accepts
_CLI_GRID = [complex(2.0 + 4.0 * k / 19.0, 0.3) for k in range(20)]
_BENCH_TOLERANCE = 1e-8


@pytest.mark.parametrize(
    "P, t, Q, lifted",
    [
        (fp(0, 1, 2), gr(0, 1), poly(1), True),  # asymptotic, M = 27
        (fp((0, 2)), gr(-1), poly(1), True),  # asymptotic, M = 14
        (P2, gr("1/3"), poly(1, 2), False),  # direct, M = 0
    ],
    ids=["i", "-1", "1/3"],
)
def test_residual_sees_an_error_in_the_finish(monkeypatch, P, t, Q, lifted):
    # the two sides of the recursion sum on one lattice; lifted alike they
    # finish at one point and a wrong finish cancels, so a finish off by
    # 0.1 % must still show in the residual, past the benchmark's tolerance
    spec = TraceSpec(P, t, Q)
    assert (lerch._route(t.to_complex(), 1)[0] > 0) == lifted
    clean, _ = verify_lerch_recursion(spec, _CLI_GRID)
    assert clean < 1e-12

    def off(make):
        def build(*args):
            finish = make(*args)
            return lambda x: 1.001 * finish(x)

        return build

    monkeypatch.setattr(lerch, "_asymptotic_sum", off(lerch._asymptotic_sum))
    monkeypatch.setattr(lerch, "_direct_sum", off(lerch._direct_sum))
    lerch._route.cache_clear()
    try:
        wrong, _ = verify_lerch_recursion(spec, _CLI_GRID)
    finally:
        monkeypatch.undo()
        lerch._route.cache_clear()
    assert wrong > _BENCH_TOLERANCE


def test_verify_recursion_rejects_t_outside_domain():
    with pytest.raises(ValueError):
        verify_lerch_recursion(TraceSpec(P2, gr(2), poly(1)), [2.3 + 0.3j])
    with pytest.raises(ValueError):
        verify_lerch_recursion(TraceSpec(P2, gr(1), poly(1)), [2.3 + 0.3j])


def _lerch_terms(spec, x):
    """The terms (-1)^l D_a^(l) Phi(t, l, a - x + 1/2) of F~(x), one public
    ``lerch_phi`` call each, in the order of D."""
    t = spec.t.to_complex()
    return [
        (-1) ** order * c.to_complex() * lerch_phi(t, order, a.to_complex() - x + 0.5)
        for a, coeffs in spec.difference_parts()
        for order, c in enumerate(coeffs, start=1)
        if c
    ]


def _summed_by_lerch_phi(spec):
    """F~ as a sum of public ``lerch_phi`` calls, one per term and point."""
    return lambda x: sum(_lerch_terms(spec, x), 0j)


def _assert_matches_per_term_sum(spec, points):
    # the coset runs reorder the float sum: each value stays within a few
    # roundings of the sum of the terms' sizes
    f_tilde = stieltjes_solution(spec)
    for x in points:
        terms = _lerch_terms(spec, x)
        assert abs(f_tilde(x) - sum(terms, 0j)) <= 1e-13 * sum(map(abs, terms)), x


_SAMPLES = [2.0 + 4.0 * k / 19.0 + 0.3j for k in range(20)] + [-1.7 + 0.2j, 0.9, 6.1 - 2j]

# the points F~ is read at when verify_lerch_recursion checks _SAMPLES
_POINTS = [s + h for s in _SAMPLES for h in (0.5, -0.5)]

_CASES = [
    (P2, gr("1/2"), poly(1)),
    (P2, gr(-1), poly("3/2", 1)),
    (fp((0, 2), (1, 2)), gr(0, 1), poly(1, "-1/3", 0, 2)),
    (fp((0, 2), (1, 2)), gr("3/5", "4/5"), poly(0, 1, 1)),
    (fp(gr("1/3", 1), (gr(-2), 3)), gr("-1/2"), poly(2, 0, "1/7")),
]
_CASE_IDS = ["x(x-1) 1/2", "x(x-1) -1", "x^2(x-1)^2 i", "x^2(x-1)^2 unit", "gauss -1/2"]


@pytest.mark.parametrize(
    "amb,t,q",
    # x(x-1000): the walk from 0 reaches Re >= M long before offset 1000,
    # so the run ends there and the far root starts its own
    _CASES + [(fp(0, 1000), gr(0, 1), poly(1, 2))],
    ids=_CASE_IDS + ["x(x-1000) i"],
)
def test_solution_matches_summing_lerch_phi(amb, t, q):
    _assert_matches_per_term_sum(TraceSpec(amb, t, q), _POINTS)


def _mp(z):
    """An exact scalar as an mpmath complex number."""
    return mpmath.mpf(z.re.numerator) / z.re.denominator + 1j * (
        mpmath.mpf(z.im.numerator) / z.im.denominator
    )


def _mpmath_pair(spec, s):
    """(F~(s + 1/2), F~(s - 1/2)) at mp.dps = 30.  The points y = a - x + 1/2
    of one coset and order l lie on one lattice: mpmath.lerchphi gives Phi
    at its highest point, and Phi(t, l, y) = y^-l + t Phi(t, l, y + 1) the
    lower ones, so that each lattice costs one lerchphi."""
    D = spec.difference_parts()
    with mpmath.workdps(30):
        t, high = _mp(spec.t), mpmath.mpc(s) + 0.5
        pair = [mpmath.mpc(0), mpmath.mpc(0)]
        lattices = {}  # (lowest root, order) -> [(offset from it, coefficient)]
        for a, coeffs in D:
            low = next((b for b, _ in lattices if integer_offset(a, b) is not None), a)
            for order, c in enumerate(coeffs, start=1):
                if c:
                    entry = (integer_offset(a, low), (-1) ** order * _mp(c))
                    lattices.setdefault((low, order), []).append(entry)
        for (low, order), members in lattices.items():
            # the lattice point n is _mp(low) - high + 1/2 + n; F~(s - 1/2)
            # reads each root one point higher than F~(s + 1/2) does
            top = max(o for o, _ in members) + 1
            base = _mp(low) - high + 0.5
            phi = {top: mpmath.lerchphi(t, order, base + top)}
            for n in range(top - 1, min(o for o, _ in members) - 1, -1):
                phi[n] = (base + n) ** -order + t * phi[n + 1]
            for o, c in members:
                pair[0] += c * phi[o]
                pair[1] += c * phi[o + 1]
        return complex(pair[0]), complex(pair[1])


@pytest.mark.parametrize("amb,t,q", _CASES, ids=_CASE_IDS)
def test_solution_matches_mpmath(amb, t, q):
    # mpmath.lerchphi takes about 0.1 s a call, so the points are the three
    # off the default grid and every tenth on it
    spec = TraceSpec(amb, t, q)
    f_tilde = stieltjes_solution(spec)
    for s in _SAMPLES[::10] + _SAMPLES[-2:]:
        for x, ref in zip((s + 0.5, s - 0.5), _mpmath_pair(spec, s)):
            assert abs(f_tilde(x) - ref) <= 1e-12 * abs(ref), x


_small_gauss = st.builds(
    GaussianRational,
    st.fractions(-1, 1, max_denominator=7),
    st.fractions(-1, 1, max_denominator=7),
)


@st.composite
def lattice_cases(draw):
    """(spec, x): up to 3 cosets, up to 4 roots in each at offsets 0..6 from
    its lowest, multiplicity <= 3, principal parts of small Gaussian
    integers (zeros among them), |t| <= 1 with |1 - t| >= 0.1, and a point
    x with Re x in [-8, 8] off the poles of F~."""
    fracs = draw(st.lists(
        st.tuples(st.sampled_from(["0", "1/3", "1/2", "-1/4"]), st.sampled_from(["0", "1", "-1/2"])),
        min_size=1, max_size=3, unique=True,
    ))
    parts, roots = {}, []
    part = st.integers(-3, 3)
    for re, im in fracs:
        low = gr(re, im) + draw(st.integers(-3, 3))
        for o in draw(st.sets(st.integers(0, 6), min_size=1, max_size=4)):
            a, m = low + o, draw(st.integers(1, 3))
            roots.append((a, m))
            parts[a] = [gr(draw(part), draw(part)) for _ in range(m)]
    t = draw(
        st.sampled_from([gr(-1), gr(0, 1), gr(0, -1), gr("3/5", "4/5"), gr("-5/13", "12/13")])
        | _small_gauss.filter(
            lambda t: t and t.re ** 2 + t.im ** 2 <= 1 and (1 - t.re) ** 2 + t.im ** 2 >= 0.01
        )
    )
    P = FactoredPolynomial(roots)
    x = complex(draw(st.floats(-8, 8)), draw(st.floats(-2, 2)))
    for a, _ in roots:
        y = a.to_complex() - x + 0.5
        assume(abs(y.imag) > 1e-3 or y.real > 1e-3 or abs(y.real - round(y.real)) > 1e-3)
    return TraceSpec(P, t, q_from_principal_parts(P, PrincipalParts(parts))), x


@settings(max_examples=60, deadline=None)
@given(lattice_cases())
def test_coset_runs_match_summing_lerch_phi(case):
    spec, x = case
    _assert_matches_per_term_sum(spec, [x])


def test_solution_reports_errors_in_lerch_phi_order():
    # a pole is reported before a t too close to 1, as lerch_phi reports
    # them, term by term in the order of D; x(x-1) with Q = x has no term at
    # its coset's lowest root 0, and x(x-1/3)(x-1) puts a second coset
    # between the roots of the first
    near_one = TraceSpec(P2, gr("99/100"), poly(1))
    inside = TraceSpec(P2, gr("1/2"), poly(1))
    no_base = TraceSpec(P2, gr("1/2"), poly(0, 1))
    no_base_near_one = TraceSpec(P2, gr("99/100"), poly(0, 1))
    P3 = fp(0, gr("1/3"), 1)
    between = TraceSpec(P3, gr("1/2"), poly(1))
    between_near_one = TraceSpec(P3, gr("99/100"), poly(1))
    for spec, x in (
        (near_one, 2.3 + 0.3j), (near_one, 0.5), (inside, 1.5 + 1e-12j),
        (no_base, 1.5), (no_base_near_one, 1.5), (between, 5 / 6),
        (between_near_one, 5 / 6),
    ):
        with pytest.raises(ValueError) as ours:
            stieltjes_solution(spec)(x)
        with pytest.raises(ValueError) as ref:
            _summed_by_lerch_phi(spec)(x)
        assert str(ours.value) == str(ref.value)


def test_solution_has_complex_conjugate_symmetry():
    # real data: F~(conj x) = conj F~(x)
    spec = TraceSpec(P2, gr("1/2"), poly(1))
    f = stieltjes_solution(spec)
    for x in (2.3 + 0.4j, 3.7 - 1.2j):
        assert abs(f(x.conjugate()) - f(x).conjugate()) < 1e-12


def _divergence(spec, n_lo: int, n_hi: int) -> list:
    """|mu_n|^(1/n) / n for n_lo <= n <= n_hi, from the exact moments, taken
    through logarithms, as |mu_n| leaves double range."""
    moments = spec.moments(n_hi)
    out = []
    for n in range(n_lo, n_hi + 1):
        mu = moments[n]
        norm2 = mu.re * mu.re + mu.im * mu.im
        if not norm2:
            out.append(0.0)
            continue
        log_abs = 0.5 * (math.log(norm2.numerator) - math.log(norm2.denominator))
        out.append(math.exp(log_abs / n) / n)
    return out


def test_moment_divergence_diagnostic():
    # nondegenerate trace: |mu_n|^(1/n)/n stays above a fixed threshold,
    # matching a moment series with zero radius of convergence
    spec = TraceSpec(P2, gr(2), poly(1))
    assert min(_divergence(spec, 40, 80)) > 0.05
    # degenerate contrast: geometric moments have |mu_n|^(1/n)/n -> 0
    degen = TraceSpec(P2, gr(2), poly(-1, -1))
    assert max(_divergence(degen, 60, 80)) < 0.05
