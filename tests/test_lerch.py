"""Lerch sums: closed forms, the recursion identity, residual verification."""

import math

import mpmath
import pytest

from kleintrace import (
    DensePolynomial,
    TraceSpec,
    lerch_phi,
    moment_divergence_profile,
    stieltjes_solution,
    verify_lerch_recursion,
)
from kleintrace.selftest import CHECKS, LERCH_GRID

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


def test_recursion_identity_grid():
    # Phi(t,n,x) - t Phi(t,n,x+1) = x^{-n} on a 100-point grid
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


def test_verify_recursion_rejects_t_outside_domain():
    with pytest.raises(ValueError):
        verify_lerch_recursion(TraceSpec(P2, gr(2), poly(1)), [2.3 + 0.3j])
    with pytest.raises(ValueError):
        verify_lerch_recursion(TraceSpec(P2, gr(1), poly(1)), [2.3 + 0.3j])


def test_solution_has_complex_conjugate_symmetry():
    # real data: F~(conj x) = conj F~(x)
    spec = TraceSpec(P2, gr("1/2"), poly(1))
    f = stieltjes_solution(spec)
    for x in (2.3 + 0.4j, 3.7 - 1.2j):
        assert abs(f(x.conjugate()) - f(x).conjugate()) < 1e-12


def test_moment_divergence_diagnostic():
    # nondegenerate trace: |mu_n|^(1/n)/n stays above a fixed threshold,
    # matching a moment series with zero radius of convergence
    spec = TraceSpec(P2, gr(2), poly(1))
    profile = moment_divergence_profile(spec, 40, 80)
    assert min(profile) > 0.05
    # degenerate contrast: geometric moments have |mu_n|^(1/n)/n -> 0
    degen = TraceSpec(P2, gr(2), poly(-1, -1))
    tail = moment_divergence_profile(degen, 60, 80)
    assert max(tail) < 0.05
