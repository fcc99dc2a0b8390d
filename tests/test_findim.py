"""Finite-dimensional modules: relations, twisting, induced traces."""

import pytest

from kleintrace import (
    TraceSpec,
    TruncatedSeries,
    build_jordan_module,
    build_string_module,
    delta_criterion,
    direct_sum,
    module_trace,
    reconstruct_principal_parts,
    series_of_rational,
    spec_from_moments,
)
from kleintrace import linalg
from kleintrace.catalog import CATALOG_T
from kleintrace.exactkernel import integer_offset

from conftest import fp, gr, poly


def test_string_module_frozen_examples():
    # one-dimensional: P = x(x-1), a = 0, j = 1
    P = fp(0, 1)
    rep = build_string_module(P, gr(0), 1, gr(1), gr(2))
    assert rep.dim == 1
    assert rep.Z == ((gr("1/2"),),)
    assert rep.U == ((gr(0),),) and rep.V == ((gr(0),),)
    mu = module_trace(rep, P, gr(2), 5)
    assert mu == TruncatedSeries([gr("1/2") ** n for n in range(6)])

    # two-dimensional with t = 3: trace of diag(1,3) diag(1/2,3/2)^n
    P2 = fp(0, 2)
    rep2 = build_string_module(P2, gr(0), 2, gr(1), gr(3))
    mu2 = module_trace(rep2, P2, gr(3), 2)
    assert mu2 == TruncatedSeries([4, 5, 7])

    # lambda = 0 gives the zero trace
    rep0 = build_string_module(P, gr(0), 1, gr(0), gr(2))
    assert all(not c for c in module_trace(rep0, P, gr(2), 6))


def test_string_module_direct_diagonal_oracle(rng):
    # independent oracle: mu_n = sum_s lam t^s (a + s + 1/2)^n
    P = fp(0, 1, 2, 3)
    for _, t in CATALOG_T:
        lam = gr("1/3", 1)
        rep = build_string_module(P, gr(1), 2, lam, t)
        mu = module_trace(rep, P, t, 8)
        for n in range(9):
            expect = sum(
                (
                    lam * t**s * (gr(1) + gr(s) + gr("1/2")) ** n
                    for s in range(2)
                ),
                gr(0),
            )
            assert mu[n] == expect


def test_string_module_root_guard():
    with pytest.raises(ValueError):
        build_string_module(fp(0, 1), gr("1/2"), 1, gr(1), gr(2))
    with pytest.raises(ValueError):
        build_string_module(fp(0, 1), gr(0), 2, gr(1), gr(2))


def test_string_module_twisting_identity():
    # A alpha = alpha g_t(A) for A in {U, V, Z}
    P = fp(0, 3)
    t = gr("1/3")
    rep = build_string_module(P, gr(0), 3, gr(2), t)
    U, V, Z, alpha = rep.matrices()
    for mat, factor in ((U, gr(1) / t), (V, t), (Z, gr(1))):
        lhs = linalg.mat_mul(mat, alpha)
        rhs = linalg.mat_scale(linalg.mat_mul(alpha, mat), factor)
        assert linalg.mat_eq(lhs, rhs)


def test_jordan_module_frozen_example():
    P = fp((gr("-1/2"), 2), (gr("3/2"), 2))
    for _, t in CATALOG_T:
        rep = build_jordan_module(P, gr(0), 2, 2, gr(1), t)
        assert rep.dim == 4
        mu = module_trace(rep, P, t, 20)
        # target transform 1/x^2 + t/(x-1)^2
        expect = series_of_rational(poly(1), poly(0, 0, 1), 20) + (
            series_of_rational(poly(1), poly(1, -2, 1), 20).scale(t)
        )
        assert mu == expect
        assert mu[0] == gr(0)
        assert mu[1] == gr(1) + t
        assert mu[2] == gr(2) * t
        assert mu[3] == gr(3) * t


def test_jordan_module_zero_scale_and_guards():
    P = fp((gr("-1/2"), 2), (gr("3/2"), 2))
    rep = build_jordan_module(P, gr(0), 2, 2, gr(0), gr(2))
    assert all(not c for c in module_trace(rep, P, gr(2), 8))
    with pytest.raises(ValueError):
        build_jordan_module(P, gr(1), 2, 2, gr(1), gr(2))
    with pytest.raises(ValueError):
        build_jordan_module(fp(gr("-1/2"), gr("3/2")), gr(0), 2, 2, gr(1), gr(2))
    # t = 0 would silently read 0^0 = 1 into alpha
    with pytest.raises(ValueError, match="must be nonzero"):
        build_jordan_module(P, gr(0), 2, 2, gr(1), gr(0))
    with pytest.raises(ValueError, match="must be nonzero"):
        build_string_module(fp(0, 1), gr(0), 1, gr(1), gr(0))


def test_module_trace_rejects_negative_order():
    P = fp(0, 1)
    rep = build_string_module(P, gr(0), 1, gr(1), gr(2))
    for N in (-1, -3):
        with pytest.raises(ValueError, match=f"N = {N}"):
            module_trace(rep, P, gr(2), N)


def test_jordan_size_one_matches_string_module():
    # k = 1 Jordan blocks reduce to the string module with shifted labels
    P = fp(0, 2)
    t = gr(2)
    jordan = build_jordan_module(P, gr("1/2"), 2, 1, gr(1), t)
    string = build_string_module(P, gr(0), 2, gr(1), t)
    assert module_trace(jordan, P, t, 10) == module_trace(string, P, t, 10)


def test_direct_sum_adds_traces():
    P = fp(0, 1, 2)
    t = gr("1/3")
    m1 = build_string_module(P, gr(0), 1, gr(1), t)
    m2 = build_string_module(P, gr(0), 2, gr("1/2"), t)
    total = direct_sum(m1, m2)
    total.validate(P)
    assert module_trace(total, P, t, 9) == (
        module_trace(m1, P, t, 9) + module_trace(m2, P, t, 9)
    )


def test_module_traces_are_degenerate_with_simple_poles():
    # every string-module trace passes the coset criterion and reconstructs
    # with poles of order one, located on the z-spectrum
    P = fp(0, 1, 2)
    for _, t in CATALOG_T:
        for a_off, j in ((0, 1), (1, 1), (0, 2)):
            rep = build_string_module(P, gr(a_off), j, gr(1), t)
            mu = module_trace(rep, P, t, P.degree + 8)
            spec = spec_from_moments(P, t, mu)
            assert delta_criterion(spec).degenerate
            parts = reconstruct_principal_parts(spec)
            spectrum = {gr(a_off) + gr(s) + gr("1/2") for s in range(j)}
            for pole in parts.support():
                assert parts.order_at(pole) == 1
                assert pole in spectrum


def test_jordan_trace_pole_orders_capped():
    P = fp((gr("-1/2"), 2), (gr("3/2"), 2))
    t = gr(2)
    rep = build_jordan_module(P, gr(0), 2, 2, gr(1), t)
    mu = module_trace(rep, P, t, P.degree + 10)
    spec = spec_from_moments(P, t, mu)
    parts = reconstruct_principal_parts(spec)
    assert parts.max_order() == 2
    assert set(parts.support()) == {gr(0), gr(1)}


def test_order_two_pole_not_in_string_span():
    # a degenerate trace with an order-2 pole cannot be a combination of
    # string-module traces, whose reconstructed poles are all simple
    P = fp((0, 2), (1, 2))
    t = gr(2)
    from kleintrace import PrincipalParts, q_from_principal_parts

    target = TraceSpec(
        P, t, q_from_principal_parts(
            P, PrincipalParts({gr(0): [0, 1], gr(1): [0, -t]})
        )
    )
    assert delta_criterion(target).degenerate
    assert reconstruct_principal_parts(target).max_order() == 2
    # Q-coordinates of every string module available on P
    span_rows = []
    for (a, _), (b, _) in [(r1, r2) for r1 in P.roots for r2 in P.roots]:
        gap = integer_offset(b, a)
        if gap is None or gap <= 0:
            continue
        rep = build_string_module(P, a, gap, gr(1), t)
        mu = module_trace(rep, P, t, P.degree + 6)
        spec = spec_from_moments(P, t, mu)
        span_rows.append([spec.Q.coefficient(i) for i in range(P.degree)])
    assert span_rows
    target_row = [target.Q.coefficient(i) for i in range(P.degree)]
    assert linalg.rank(span_rows) < linalg.rank(span_rows + [target_row])


def test_module_rep_validation_catches_bad_matrices():
    P = fp(0, 1)
    rep = build_string_module(P, gr(0), 1, gr(1), gr(2))
    broken = type(rep)(
        dim=rep.dim, U=((gr(1),),), V=rep.V, Z=rep.Z, alpha=rep.alpha
    )
    with pytest.raises(ValueError):
        broken.validate(P)
