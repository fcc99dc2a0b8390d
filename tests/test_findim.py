"""Finite-dimensional modules: relations, twisting, induced traces."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleintrace import (
    FactoredPolynomial,
    GaussianRational,
    ModuleRep,
    TraceSpec,
    TruncatedSeries,
    build_jordan_module,
    build_string_module,
    delta_criterion,
    module_trace,
    reconstruct_principal_parts,
    series_of_rational,
    spec_from_moments,
)
from kleintrace import findim, linalg
from kleintrace.catalog import CATALOG_T
from kleintrace.exactkernel import _from_numerators, integer_offset

import oracles

from conftest import fp, gr, poly


def direct_sum(m1: ModuleRep, m2: ModuleRep) -> ModuleRep:
    """Block-diagonal sum; traces add."""

    def block(a, b):
        right, left = (gr(0),) * len(b), (gr(0),) * len(a)
        return tuple(tuple(r) + right for r in a) + tuple(left + tuple(r) for r in b)

    return ModuleRep(m1.dim + m2.dim, *map(block, m1[1:], m2[1:]))


def test_string_module_frozen_examples():
    # one-dimensional: P = x(x-1), a = 0, j = 1
    P = fp(0, 1)
    rep = build_string_module(P, gr(0), 1, gr(1), gr(2))
    assert rep.dim == 1
    assert rep.Z == ((gr("1/2"),),)
    assert rep.U == ((gr(0),),) and rep.V == ((gr(0),),)
    mu = module_trace(rep, P, 5)
    assert mu == TruncatedSeries([gr("1/2") ** n for n in range(6)])

    # two-dimensional with t = 3: trace of diag(1,3) diag(1/2,3/2)^n
    P2 = fp(0, 2)
    rep2 = build_string_module(P2, gr(0), 2, gr(1), gr(3))
    mu2 = module_trace(rep2, P2, 2)
    assert mu2 == TruncatedSeries([4, 5, 7])

    # lambda = 0 gives the zero trace
    rep0 = build_string_module(P, gr(0), 1, gr(0), gr(2))
    assert all(not c for c in module_trace(rep0, P, 6))


def test_string_module_direct_diagonal_oracle(rng):
    # independent oracle: mu_n = sum_s lam t^s (a + s + 1/2)^n
    P = fp(0, 1, 2, 3)
    for _, t in CATALOG_T:
        lam = gr("1/3", 1)
        rep = build_string_module(P, gr(1), 2, lam, t)
        mu = module_trace(rep, P, 8)
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
        lhs = oracles.mat_mul(mat, alpha)
        rhs = [[factor * x for x in row] for row in oracles.mat_mul(alpha, mat)]
        assert lhs == rhs


def test_jordan_module_frozen_example():
    P = fp((gr("-1/2"), 2), (gr("3/2"), 2))
    for _, t in CATALOG_T:
        rep = build_jordan_module(P, gr(0), 2, 2, gr(1), t)
        assert rep.dim == 4
        mu = module_trace(rep, P, 20)
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
    assert all(not c for c in module_trace(rep, P, 8))
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
            module_trace(rep, P, N)


def test_jordan_size_one_matches_string_module():
    # k = 1 Jordan blocks reduce to the string module with shifted labels
    P = fp(0, 2)
    t = gr(2)
    jordan = build_jordan_module(P, gr("1/2"), 2, 1, gr(1), t)
    string = build_string_module(P, gr(0), 2, gr(1), t)
    assert module_trace(jordan, P, 10) == module_trace(string, P, 10)


def test_direct_sum_adds_traces():
    P = fp(0, 1, 2)
    t = gr("1/3")
    m1 = build_string_module(P, gr(0), 1, gr(1), t)
    m2 = build_string_module(P, gr(0), 2, gr("1/2"), t)
    total = direct_sum(m1, m2)
    total.validate(P)
    assert module_trace(total, P, 9) == (
        module_trace(m1, P, 9) + module_trace(m2, P, 9)
    )


def test_module_traces_are_degenerate_with_simple_poles():
    # every string-module trace passes the coset criterion and reconstructs
    # with poles of order one, located on the z-spectrum
    P = fp(0, 1, 2)
    for _, t in CATALOG_T:
        for a_off, j in ((0, 1), (1, 1), (0, 2)):
            rep = build_string_module(P, gr(a_off), j, gr(1), t)
            mu = module_trace(rep, P, P.degree + 8)
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
    mu = module_trace(rep, P, P.degree + 10)
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
        mu = module_trace(rep, P, P.degree + 6)
        spec = spec_from_moments(P, t, mu)
        span_rows.append([spec.Q.coefficient(i) for i in range(P.degree)])
    assert span_rows
    target_row = [target.Q.coefficient(i) for i in range(P.degree)]
    before = linalg.rank(linalg.numerator_rows(span_rows))
    assert before < linalg.rank(linalg.numerator_rows(span_rows + [target_row]))


def test_module_rep_validation_catches_bad_matrices():
    P = fp(0, 1)
    rep = build_string_module(P, gr(0), 1, gr(1), gr(2))
    broken = type(rep)(
        dim=rep.dim, U=((gr(1),),), V=rep.V, Z=rep.Z, alpha=rep.alpha
    )
    with pytest.raises(ValueError):
        broken.validate(P)


# ------------------------------------------------- integer paths vs oracles

_parts = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_scalars = st.builds(GaussianRational, _parts, _parts)
_nonzero = _scalars.filter(bool)


@st.composite
def modules(draw):
    """(P, rep): one builder output, or the direct sum of two on one P.

    P has every root the modules need plus up to two more; the parts are
    drawn first and P last, since extra roots leave a module valid.
    """
    roots = {}

    def need(root, mult):
        roots[root] = max(roots.get(root, 0), mult)

    parts = []
    for _ in range(draw(st.integers(1, 2))):
        a = draw(_scalars)
        if draw(st.booleans()):
            j = draw(st.integers(1, 3))
            need(a, 1)
            need(a + j, 1)
            parts.append(("string", a, j, draw(_scalars)))
        else:
            n, k = draw(st.integers(1, 2)), draw(st.integers(1, 2))
            need(a - GaussianRational(Fraction(1, 2)), k)
            need(a + GaussianRational(Fraction(2 * n - 1, 2)), k)
            parts.append(("jordan", a, n, k, draw(_scalars)))
    for extra in draw(st.lists(_scalars, max_size=2)):
        need(extra, draw(st.integers(1, 2)))
    P = FactoredPolynomial(roots.items())
    t = draw(_nonzero)
    reps = []
    for kind, a, *sizes, c in parts:
        if kind == "string":
            reps.append(build_string_module(P, a, sizes[0], c, t))
        else:
            reps.append(build_jordan_module(P, a, *sizes, c, t))
    return P, reps[0] if len(reps) == 1 else direct_sum(*reps)


@st.composite
def conjugated_modules(draw):
    """(P, rep) from ``modules``, often conjugated by S = E_1 ... E_r, each
    E = I + c e_ij with i != j, so that Z is dense and not triangular."""
    P, rep = draw(modules())
    dim = rep.dim
    if dim < 2 or draw(st.booleans()):
        return P, rep
    one = [[gr(int(i == j)) for j in range(dim)] for i in range(dim)]
    S, S_inv = one, one
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.permutations(range(dim)))[:2]
        c = draw(_nonzero)
        E = [row[:] for row in one]
        E[i][j] = c
        E_inv = [row[:] for row in one]
        E_inv[i][j] = -c
        S, S_inv = oracles.mat_mul(S, E), oracles.mat_mul(E_inv, S_inv)

    def conj(m):
        return ModuleRep._freeze(oracles.mat_mul(oracles.mat_mul(S, m), S_inv))

    return P, ModuleRep(dim, conj(rep.U), conj(rep.V), conj(rep.Z), conj(rep.alpha))


def _verdict(check, rep, P):
    """None if check accepts rep, else the message of its ValueError."""
    try:
        check(rep, P)
    except ValueError as exc:
        return str(exc)
    return None


def test_validate_rejects_wrong_shapes():
    # the integer checks pair entries up with zip, so shapes are checked first
    P = fp(0, 2)
    rep = build_string_module(P, gr(0), 2, gr(1), gr(2))
    for broken in (
        rep._replace(U=((gr(0),),)),
        rep._replace(alpha=rep.alpha[:1]),
        rep._replace(Z=(rep.Z[0], rep.Z[1][:1])),
        rep._replace(dim=3),
    ):
        with pytest.raises(ValueError, match="must be"):
            broken.validate(P)
        with pytest.raises(ValueError, match="must be"):
            module_trace(broken, P, 3)


@given(
    a=_scalars,
    j=st.integers(1, 4),
    n=st.integers(1, 3),
    k=st.integers(1, 3),
    extra=st.lists(st.tuples(_scalars, st.integers(1, 2)), max_size=2),
)
def test_lowering_entries_are_taylor_coefficients(a, j, n, k, extra):
    # the builders read P at a shifted point off a truncated root product;
    # the oracle expands P and shifts it by Horner's rule
    half = GaussianRational(Fraction(1, 2))
    roots = dict(extra)
    for root, mult in ((a, 1), (a + j, 1), (a - half, k), (a + n - half, k)):
        roots[root] = max(roots.get(root, 0), mult)
    P = FactoredPolynomial(roots.items())
    expanded = oracles.root_product(P.roots)
    t = gr(2)

    string = [[gr(0)] * j for _ in range(j)]
    for s in range(1, j):
        string[s - 1][s] = oracles.shift(expanded, a + s).coefficient(0)
    assert build_string_module(P, a, j, gr(1), t).V == ModuleRep._freeze(string)

    jordan = [[gr(0)] * (n * k) for _ in range(n * k)]
    for b in range(1, n):
        ladder = oracles.shift(expanded, a + b - half)
        for p in range(k):
            for r in range(k - p):
                jordan[(b - 1) * k + p + r][b * k + p] = ladder.coefficient(r)
    assert build_jordan_module(P, a, n, k, gr(1), t).V == ModuleRep._freeze(jordan)


@given(modules())
def test_builder_outputs_validate(case):
    # the builders do not validate, so every output must pass on its own
    P, rep = case
    rep.validate(P)


@given(conjugated_modules())
def test_validate_matches_scalar_oracle(case):
    P, rep = case
    assert _verdict(ModuleRep.validate, rep, P) is None
    assert _verdict(oracles.validate, rep, P) is None


@given(conjugated_modules(), st.data())
def test_validate_rejects_perturbed_entries_like_oracle(case, data):
    P, rep = case
    name = data.draw(st.sampled_from(("U", "V", "Z")))
    i, j = data.draw(st.integers(0, rep.dim - 1)), data.draw(st.integers(0, rep.dim - 1))
    rows = [list(row) for row in getattr(rep, name)]
    rows[i][j] = rows[i][j] + data.draw(_nonzero)
    broken = rep._replace(**{name: ModuleRep._freeze(rows)})
    expected = _verdict(oracles.validate, broken, P)
    assert expected is not None
    assert _verdict(ModuleRep.validate, broken, P) == expected


@given(conjugated_modules(), st.integers(0, 8))
def test_module_trace_matches_scalar_power_loop(case, N):
    P, rep = case
    assert module_trace(rep, P, N) == oracles.module_trace(rep, N)


_entries = st.one_of(
    st.just(GaussianRational(0)),
    st.builds(GaussianRational, st.fractions(-9, 9, max_denominator=12)),
    _scalars,
)


@st.composite
def products(draw):
    """A pair of conformable matrices over Q(i), often with zero rows and
    row or column vectors among the shapes."""
    n, k, m = (draw(st.sampled_from((1, 1, 2, 3, 4))) for _ in range(3))

    def matrix(rows, cols):
        row = st.lists(_entries, min_size=cols, max_size=cols)
        out = draw(st.lists(row, min_size=rows, max_size=rows))
        for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
            out[i] = [GaussianRational(0)] * cols
        return out

    return matrix(n, k), matrix(k, m)


def _int_product(a, b):
    """a b by ``findim._int_mul`` on the cleared numerators, as scalars."""
    (a_num, da), (b_num, db) = findim._numerators(a), findim._numerators(b)
    re, im = findim._int_mul(a_num, b_num)
    return [
        [_from_numerators(x, y, da * db) for x, y in zip(xr, yr)]
        for xr, yr in zip(re, im)
    ]


@given(products())
def test_int_mul_matches_scalar_product(ab):
    a, b = ab
    assert _int_product(a, b) == oracles.mat_mul(a, b)


def test_int_mul_of_empty_shapes():
    assert _int_product([], [[gr(1)]]) == []
    assert _int_product([[], []], []) == [[], []]
