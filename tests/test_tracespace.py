"""Trace spaces: dimensions, the moment solver, evaluation, Hankel ranks."""

import sys
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleintrace import (
    AlgebraElement,
    DensePolynomial,
    FactoredPolynomial,
    GaussianRational,
    TraceSpec,
    TruncatedSeries,
    apply_gt,
    build_jordan_module,
    build_string_module,
    evaluate_trace,
    hankel_rank,
    pade_approximant,
    module_trace,
    morphism_apply,
    MorphismSpec,
    pullback_spec,
    q_from_moments,
    series_of_rational,
    solve_moments,
    spec_from_moments,
    trace_dim,
)
from kleintrace.catalog import CATALOG_P, CATALOG_T
from kleintrace.selftest import CHECKS, _gcd_degree, random_element, random_trace_q
from kleintrace import tracespace
from kleintrace.exactkernel import _clear_denominators, _from_numerators
from kleintrace.tracespace import (
    PASCAL_BOUND,
    _CommonDenominator,
    _difference_sums,
    _pascal_rows,
    _pascal_table,
)

import oracles

from conftest import fp, gr, poly

_part = st.fractions(min_value=-9, max_value=9, max_denominator=6)
_scalars = st.builds(GaussianRational, _part, _part | st.just(Fraction(0)))

P = fp(0, 1)

# P beyond the catalog: complex and non-integer roots, multiplicities
_drawn_P = st.builds(
    FactoredPolynomial,
    st.lists(st.tuples(_scalars, st.integers(1, 3)), min_size=1, max_size=3,
             unique_by=lambda rm: rm[0]),
)


# -------------------------------------------------------------- dimensions


def test_trace_dim_examples():
    assert trace_dim(P, gr(2)) == 2
    assert trace_dim(P, gr(1)) == 1
    assert trace_dim(fp(0), gr(1)) == 0
    with pytest.raises(ValueError):
        trace_dim(P, gr(0))
    with pytest.raises(ValueError):
        trace_dim(fp(), gr(2))


def test_spec_degree_invariants():
    with pytest.raises(ValueError, match=r"^deg Q = 2 exceeds the bound 1 for"):
        TraceSpec(P, gr(2), poly(0, 0, 1))  # deg Q = deg P
    with pytest.raises(ValueError, match=r"^deg Q = 1 exceeds the bound 0 for"):
        TraceSpec(P, gr(1), poly(0, 1))  # t=1 bound is deg P - 2
    TraceSpec(P, gr(1), poly(5))  # fine
    with pytest.raises(ValueError, match=r"^deg Q = 0 exceeds the bound -1 for"):
        TraceSpec(fp(0), gr(1), poly(5))
    with pytest.raises(ValueError, match="^the twist parameter t must be nonzero$"):
        TraceSpec(fp(), gr(0), poly())
    with pytest.raises(ValueError, match="^the defining polynomial must be nonconstant$"):
        TraceSpec(fp(), gr(2), poly())


# the dimension theorem, derived from the relations r_j that every trace
# kills (oracles.relations) and not from the formula of trace_dim

_RELATIONS_N = 8
_CATALOG_CELLS = [(amb, t) for _, amb in CATALOG_P for _, t in CATALOG_T]
_DIM_T = st.sampled_from([gr(1), gr(-1), gr(0, 1)]) | _scalars.filter(bool)
# deg P <= 4, so that the Fraction rank stays quick
_DIM_P = _drawn_P.filter(lambda amb: amb.degree <= 4)


def _monomial(j: int) -> DensePolynomial:
    return DensePolynomial([0] * j + [1])


def _relations_kill(spec: TraceSpec) -> bool:
    rows = oracles.relations(spec.P, spec.t, _RELATIONS_N)
    return not any(spec.trace_of_poly(r) for r in rows)


def _monomial_traces_span(amb, t) -> bool:
    """The traces (P, t, x^j), j < trace_dim, read on z^k below the width of
    the relations, have rank trace_dim: Q -> T is onto the trace space."""
    rows = oracles.relations(amb, t, _RELATIONS_N)
    width = 1 + max(r.degree for r in rows)
    d = trace_dim(amb, t)
    values = [list(TraceSpec(amb, t, _monomial(j)).moments(width - 1)) for j in range(d)]
    return (oracles.rank(values) if values else 0) == d


def test_relations_give_the_trace_dimension_on_the_catalog():
    for amb, t in _CATALOG_CELLS:
        assert oracles.relation_dim(amb, t, _RELATIONS_N) == trace_dim(amb, t), (amb, t)


@settings(max_examples=25)
@given(amb=_DIM_P, t=_DIM_T)
def test_relations_give_the_trace_dimension_on_drawn_p(amb, t):
    assert oracles.relation_dim(amb, t, _RELATIONS_N) == trace_dim(amb, t)


def test_every_trace_kills_every_relation_on_the_catalog(rng):
    for amb, t in _CATALOG_CELLS:
        qs = [random_trace_q(rng, amb, t)] + [_monomial(j) for j in range(trace_dim(amb, t))]
        for q in qs:
            assert _relations_kill(TraceSpec(amb, t, q)), (amb, t, q)


@settings(max_examples=25)
@given(amb=_DIM_P, t=_DIM_T, data=st.data())
def test_every_trace_kills_every_relation_on_drawn_traces(amb, t, data):
    q = DensePolynomial(data.draw(st.lists(_scalars, max_size=trace_dim(amb, t))))
    assert _relations_kill(TraceSpec(amb, t, q))


def test_traces_of_monomials_span_the_trace_space_on_the_catalog():
    for amb, t in _CATALOG_CELLS:
        assert _monomial_traces_span(amb, t), (amb, t)


@settings(max_examples=25)
@given(amb=_DIM_P, t=_DIM_T)
def test_traces_of_monomials_span_the_trace_space_on_drawn_p(amb, t):
    assert _monomial_traces_span(amb, t)


# ----------------------------------------------------------------- solver


def test_solve_moments_hand_derived():
    # P = x, t = 2, Q = 1: (1-t)mu_0 = 1; (1-t)mu_1 - (1+t)mu_0/2 = 0
    spec = TraceSpec(fp(0), gr(2), poly(1))
    assert solve_moments(spec, 1) == TruncatedSeries([-1, gr("3/2")])


def test_solve_moments_cross_oracle_geometric():
    # the worked degenerate trace equals the series of 1/(x - 1/2)
    spec = TraceSpec(P, gr(2), poly(-1, -1))
    assert solve_moments(spec, 3) == series_of_rational(
        poly(1), poly("-1/2", 1), 3
    )


def test_solve_moments_zero_trace():
    spec = TraceSpec(P, gr(0, 1), DensePolynomial.zero())
    assert all(not c for c in solve_moments(spec, 10))


def test_solve_moments_defining_equation(rng):
    # independent check: recompute P(x)(F(x+1/2) - t F(x-1/2)) from the
    # moments by brute-force binomial re-expansion and compare with Q
    from fractions import Fraction
    from math import comb

    for amb in (P, fp((0, 2), (1, 1)), fp(0, gr("1/3"))):
        for _, t in CATALOG_T:
            q_in = random_trace_q(rng, amb, t)
            spec = TraceSpec(amb, t, q_in)
            depth = amb.degree + 7
            mu = solve_moments(spec, depth)
            g = []
            for r in range(depth + 1):
                acc = gr(0)
                for m in range(r + 1):
                    w = gr(Fraction((-1) ** m * comb(r, m), 2**m)) * (
                        gr(1) - t * gr(-1) ** m
                    )
                    acc = acc + w * mu[r - m]
                g.append(acc)
            pexp = amb.expand()
            d = amb.degree
            # polynomial part must be Q, deeper coefficients must vanish
            for s in range(depth - d):
                acc = gr(0)
                for r in range(max(0, s - d), s + 1):
                    acc = acc + pexp.coefficient(d - s + r) * g[r]
                assert acc == q_in.coefficient(d - 1 - s)


def test_moment_cache_matches_fresh_solve(rng):
    spec = TraceSpec(P, gr(2), poly(3, 1))
    first = spec.moments(4)
    extended = spec.moments(12)
    assert extended.truncate(4) == first
    assert extended == solve_moments(spec, 12)


_RESUME_T = [gr(1), gr(-1), gr(0, 1), gr(2), gr("1/3"), gr("2/5", "-3/7")]


@pytest.mark.parametrize("t", _RESUME_T, ids=["1", "-1", "i", "2", "1/3", "gauss"])
@settings(max_examples=10)
@given(data=st.data())
def test_a_longer_read_resumes_the_kept_moments(t, data):
    # growing a kept series from order a to b solves rows for the b - a new
    # moments alone, and what it keeps is what a fresh solve gives
    amb = data.draw(st.sampled_from([p for _, p in CATALOG_P]) | _drawn_P)
    Q = DensePolynomial(data.draw(st.lists(_scalars, max_size=trace_dim(amb, t))))
    a = data.draw(st.integers(0, 25))
    b = data.draw(st.integers(a + 1, 40))
    spec = TraceSpec(amb, t, Q)
    spec.moments(a)
    rows = []
    real = tracespace._difference_sums

    def counted(*args):
        for row in real(*args):
            rows.append(row)
            yield row

    with mock.patch.object(tracespace, "_difference_sums", counted):
        grown = spec.moments(b)
    assert len(rows) == b - a
    fresh = TraceSpec(amb, t, Q)
    assert grown == oracles.solve_moments(fresh, b) == solve_moments(fresh, b)
    # a direct solve on the spec reads its kept series, at any order
    c = data.draw(st.integers(0, b + 3))
    assert solve_moments(spec, c) == oracles.solve_moments(fresh, c)


@pytest.mark.parametrize("t", [gr(2), gr(1)], ids=["2", "1"])
def test_shifted_polynomials_reach_the_trace_unmade(t, rng, monkeypatch):
    # the shifted-product identity of the benchmark makes no polynomial
    # scalar between the Taylor shift and the trace
    amb = fp((0, 2), (gr("1/3"), 1))
    spec = TraceSpec(amb, t, random_trace_q(rng, amb, t))
    half = gr("1/2")
    products = [poly(*[0] * k, 1) * amb.expand() for k in range(8)]
    with monkeypatch.context() as m:
        m.setattr(DensePolynomial, "coeffs", property(_unread))
        values = [
            (spec.trace_of_poly(p.shift(-half)), spec.trace_of_poly(p.shift(half)))
            for p in products
        ]
    for p, (lhs, rhs) in zip(products, values):
        assert lhs == t * rhs
        mu = oracles.solve_moments(spec, p.degree)
        assert lhs == oracles.trace_of_poly(mu, oracles.shift(p, -half))


@pytest.mark.parametrize("t", [gr(2), gr(1)])
def test_negative_moment_order_rejected_warm_and_cold(t):
    spec = TraceSpec(P, t, poly(3) if t == gr(1) else poly(3, 1))
    warm = TraceSpec(spec.P, spec.t, spec.Q)
    warm.moments(10)
    for N in (-1, -3):
        for call in (spec.moments, warm.moments, lambda N: solve_moments(spec, N)):
            with pytest.raises(ValueError, match="at least 0"):
                call(N)
    assert warm.moments(0) == spec.moments(0) == solve_moments(spec, 0)


def test_q_from_moments_round_trip(rng):
    for amb in (P, fp((0, 2), (1, 2)), fp(0, 2)):
        for _, t in CATALOG_T:
            q_in = random_trace_q(rng, amb, t)
            spec = TraceSpec(amb, t, q_in)
            mu = spec.moments(amb.degree + 6)
            assert q_from_moments(amb, t, mu) == q_in
            assert spec_from_moments(amb, t, mu) == spec


def test_q_from_moments_rejects_non_trace():
    bogus = TruncatedSeries([1, 1, 1, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        q_from_moments(P, gr(2), bogus)
    # only the last moment is off; at t = 1 its weight in its own row of the
    # difference equation is 1 - t = 0, so the check must reach past that row
    for amb in (fp(0, 1, 2), fp((0, 2), (1, 2))):
        for _, t in CATALOG_T:
            mu = list(solve_moments(TraceSpec(amb, t, poly(1, 2)), 8))
            mu[-1] = mu[-1] + 1000
            with pytest.raises(ValueError):
                q_from_moments(amb, t, TruncatedSeries(mu))
    with pytest.raises(ValueError):
        q_from_moments(P, 0, TruncatedSeries([1, 1]))


@pytest.mark.parametrize("t", [t for _, t in CATALOG_T], ids=[n for n, _ in CATALOG_T])
def test_integer_moment_paths_match_weight_by_weight_oracle(t, rng):
    # every catalog cell at N = 60, against the Fraction weight-by-weight loop
    for _, amb in CATALOG_P:
        q_in = random_trace_q(rng, amb, t)
        mu = solve_moments(TraceSpec(amb, t, q_in), 60)
        assert mu == oracles.solve_moments(TraceSpec(amb, t, q_in), 60)
        assert q_from_moments(amb, t, mu) == q_in


@pytest.mark.parametrize("t", [t for _, t in CATALOG_T], ids=[n for n, _ in CATALOG_T])
@settings(max_examples=15)
@given(data=st.data())
def test_moment_paths_match_oracle_on_drawn_traces(t, data):
    amb = data.draw(st.sampled_from([p for _, p in CATALOG_P]) | _drawn_P)
    bound = amb.degree - 1 if t != gr(1) else amb.degree - 2
    q_in = DensePolynomial(data.draw(st.lists(_scalars, max_size=max(bound + 1, 0))))
    N = data.draw(st.integers(max(amb.degree - 1, 0), 60))
    spec = TraceSpec(amb, t, q_in)
    mu = solve_moments(spec, N)
    assert mu == oracles.solve_moments(spec, N)
    assert q_from_moments(amb, t, mu) == q_in


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("root", [gr("1/3"), gr(0, Fraction(2, 7))], ids=["1/3", "2/7i"])
def test_slot_form_moments_match_oracle(k, root, rng):
    # x^k (x - root)^k: P's coefficients carry powers of 3, resp. 7, which
    # the slot form in u = D x keeps out of the series
    amb = fp((0, k), (root, k))
    for t in (gr(2), gr(1)):
        spec = TraceSpec(amb, t, random_trace_q(rng, amb, t))
        assert solve_moments(spec, 60) == oracles.solve_moments(spec, 60)


_LERCH_T = [gr(2), gr(0, 1), gr("3/2"), gr(-1), gr(1)]


@pytest.mark.parametrize("t", _LERCH_T, ids=["2", "i", "3/2", "-1", "1"])
def test_lerch_moments_match_solve_moments(t, rng):
    # the Apostol-Bernoulli oracle shares no recurrence with the solver
    for amb in (fp(0, gr("1/3")), fp((gr("1/2", 1), 2), -1), fp((0, 2), (1, 2)),
                fp(gr(0, -1), (gr("-2/5"), 3))):
        spec = TraceSpec(amb, t, random_trace_q(rng, amb, t))
        assert oracles.lerch_moments(spec, 30) == solve_moments(spec, 30)


def _outcome(fn, *args):
    try:
        return "Q", fn(*args)
    except ValueError as exc:
        return "refused", str(exc)


@settings(max_examples=80)
@given(data=st.data())
def test_moment_check_refuses_what_the_re_solve_refused(data):
    t = data.draw(st.sampled_from(_LERCH_T) | _scalars.filter(bool))
    amb = data.draw(st.sampled_from([p for _, p in CATALOG_P]) | _drawn_P)
    d = amb.degree
    q_in = DensePolynomial(data.draw(st.lists(_scalars, max_size=trace_dim(amb, t))))
    N = data.draw(st.just(d - 1) | st.integers(d - 1, 24))
    mu = list(solve_moments(TraceSpec(amb, t, q_in), N))
    true = TruncatedSeries(mu)
    assert q_from_moments(amb, t, true) == oracles.q_from_moments(amb, t, true) == q_in
    # one moment off, anywhere: the last one, one that Q reads, or any
    k = data.draw(st.just(N) | st.integers(0, min(d, N)) | st.integers(0, N))
    mu[k] = mu[k] + data.draw(_scalars.filter(bool))
    bad = TruncatedSeries(mu)
    expected = _outcome(oracles.q_from_moments, amb, t, bad)
    assert _outcome(q_from_moments, amb, t, bad) == expected
    # no trace at all: t = 0, or a constant P
    for args in ((amb, gr(0), bad), (fp(), t, bad)):
        assert _outcome(q_from_moments, *args) == _outcome(oracles.q_from_moments, *args)
    # past the moments that fix Q, a change is always refused
    if k >= (d - 1 if t == gr(1) else d):
        assert expected[0] == "refused"


# ------------------------------------------------------ the integer form

_INTEGER_T = [gr(2), gr(1), gr(0, 1), gr("1/3"), gr(-1), gr("2/5", "-3/7")]


@st.composite
def _drawn_traces(draw):
    """A trace on a catalog or drawn P at a rational, Gaussian or unit t."""
    t = draw(st.sampled_from(_INTEGER_T) | _scalars.filter(bool))
    amb = draw(st.sampled_from([p for _, p in CATALOG_P]) | _drawn_P)
    q_in = draw(st.lists(_scalars, max_size=trace_dim(amb, t)))
    return TraceSpec(amb, t, DensePolynomial(q_in))


_HALF = gr("1/2")


@st.composite
def _module_series(draw):
    """module_trace of a string or Jordan module at a Gaussian a and t."""
    a, c, t = draw(_scalars), draw(_scalars), draw(_scalars.filter(bool))
    if draw(st.booleans()):
        j = draw(st.integers(1, 3))
        amb = FactoredPolynomial([(a, 1), (a + j, 1)])
        rep = build_string_module(amb, a, j, c, t)
    else:
        n, k = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        amb = FactoredPolynomial([(a - _HALF, k), (a + n - _HALF, k)])
        rep = build_jordan_module(amb, a, n, k, c, t)
    return module_trace(rep, amb, draw(st.integers(0, 12)))


@st.composite
def _rational_series(draw):
    """series_of_rational of a drawn R/S, deg R < deg S."""
    S = DensePolynomial(draw(st.lists(_scalars, min_size=1, max_size=4)) + [
        draw(_scalars.filter(bool))
    ])
    R = DensePolynomial(draw(st.lists(_scalars, max_size=S.degree)))
    return series_of_rational(R, S, draw(st.integers(0, 12)))


@st.composite
def _numerator_series(draw):
    """_of_numerators of a drawn scalar run c_n, handed over unreduced as
    (c_n D k r^n) / (D k r^n) with D the run's common denominator."""
    re, im, D = _clear_denominators(draw(st.lists(_scalars, min_size=1, max_size=12)))
    k, r = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return TruncatedSeries._of_numerators(
        [x * k * r**n for n, x in enumerate(re)],
        [y * k * r**n for n, y in enumerate(im)],
        D * k,
        r,
    )


_SERIES = (
    st.lists(_scalars, min_size=1, max_size=12).map(TruncatedSeries)
    | st.builds(solve_moments, _drawn_traces(), st.integers(0, 30))
    | _rational_series()
    | _module_series()
    | _numerator_series()
)


@settings(max_examples=80)
@given(series=_SERIES)
def test_kept_numerators_are_the_cleared_scalars(series):
    # whatever made it, a series and each of its truncations hold what their
    # scalars clear to, and the series made from those scalars, or from
    # those integers, compares and hashes equal to it
    scalars = series.coeffs
    for cut in [series] + [series.truncate(n) for n in range(series.order + 1)]:
        kept = cut.numerators()
        assert kept == _clear_denominators(cut.coeffs)
        assert kept[2] > 0 and cut.coeffs == scalars[: len(cut)]
        for twin in (
            TruncatedSeries(cut.coeffs),
            TruncatedSeries._of_numerators(list(kept[0]), list(kept[1]), kept[2]),
        ):
            assert twin == cut and hash(twin) == hash(cut)


@settings(max_examples=40)
@given(spec=_drawn_traces(), data=st.data())
def test_trace_of_poly_matches_scalar_loop(spec, data):
    # read from the kept series itself and from a truncation of a longer one
    q = DensePolynomial(data.draw(st.lists(_scalars, max_size=20)))
    expected = (
        oracles.trace_of_poly(solve_moments(spec, q.degree), q) if q else gr(0)
    )
    assert spec.trace_of_poly(q) == expected
    warm = TraceSpec(spec.P, spec.t, spec.Q)
    warm.moments(25)
    assert warm.trace_of_poly(q) == expected


@settings(max_examples=40)
@given(spec=_drawn_traces(), n=st.integers(0, 8), extra=st.integers(0, 3))
def test_hankel_rank_matches_fraction_rref(spec, n, extra):
    mu = spec.moments(max(2 * n - 2, 0) + extra)
    H = [[mu[i + j] for j in range(n)] for i in range(n)]
    assert hankel_rank(mu, n) == oracles.rank(H)


def _unread(*args):
    raise AssertionError("a moment reader made a scalar")


@pytest.mark.parametrize("t", [gr(2), gr(1), gr(0, 1)], ids=["2", "1", "i"])
def test_moment_readers_leave_the_scalars_unmade(t, rng, monkeypatch):
    # the readers of a solved series work on its integers alone: with every
    # way to a scalar made to fail, they run as before
    amb = fp((0, 2), (gr("1/3"), 1))
    spec = TraceSpec(amb, t, random_trace_q(rng, amb, t))
    a = random_element(rng, amb) * random_element(rng, amb)
    a = a + AlgebraElement.from_poly(amb, poly(1, 2, 3))
    with monkeypatch.context() as m:
        m.setattr(TruncatedSeries, "coeffs", property(_unread))
        m.setattr(TruncatedSeries, "__getitem__", _unread)
        m.setattr(TruncatedSeries, "__iter__", _unread)
        with pytest.raises(AssertionError, match="made a scalar"):
            list(solve_moments(spec, 3))
        value = evaluate_trace(spec, a)
        mu = solve_moments(spec, 12)
        cut = mu.truncate(7)
        read = (
            hankel_rank(mu, 6),
            pade_approximant(mu, 5).S,
            q_from_moments(amb, t, mu),
            hankel_rank(cut, 4),
            pade_approximant(cut, 4).S,
        )
    # and what they read is what the oracle's scalars give
    expected = oracles.solve_moments(spec, 12)
    assert mu.coeffs == expected.coeffs
    q = a.component(0)
    assert value == oracles.trace_of_poly(oracles.solve_moments(spec, q.degree), q)
    assert read == (
        hankel_rank(expected, 6),
        pade_approximant(expected, 5).S,
        spec.Q,
        hankel_rank(expected.truncate(7), 4),
        pade_approximant(expected.truncate(7), 4).S,
    )


def _check_difference_sums(t, seq, lag, firsts, stop):
    """``_difference_sums`` over rows first..stop - 1, for each first in
    ``firsts``, against the weight-by-weight oracle."""
    # moments are appended between rows, as solve_moments appends them, so
    # that row r sees those up to r - lag, and every later one counts as
    # zero; the rows run past the last moment, and may start late
    for first in firsts:
        common = _CommonDenominator()
        rows = range(first, stop)
        sums = _difference_sums(t, common, rows)
        for r in rows:
            while len(common.re) < min(r + 1 - lag, len(seq)):
                (re,), (im,), den = _clear_denominators([seq[len(common.re)]])
                common.append(re, im, den)
            seen = len(common.re)
            expected = sum(
                (
                    oracles.difference_weight(r, m, t) * seq[r - m]
                    for m in range(r + 1)
                    if r - m < seen
                ),
                gr(0),
            )
            assert _from_numerators(*next(sums)) == expected
        assert (common.re, common.im, common.den) == _clear_denominators(seq)


_difference_t = st.sampled_from([t for _, t in CATALOG_T]) | _scalars.filter(bool)


@given(
    t=_difference_t,
    seq=st.lists(_scalars, min_size=1, max_size=25),
    lag=st.sampled_from((0, 1, 2)),
)
def test_difference_sum_matches_weight_by_weight(t, seq, lag):
    _check_difference_sums(t, seq, lag, (0, 1, len(seq) - 1), len(seq) + 2)


@settings(max_examples=15, deadline=None)
@given(
    t=_difference_t,
    seq=st.lists(_scalars, min_size=PASCAL_BOUND - 4, max_size=PASCAL_BOUND + 4),
    lag=st.sampled_from((0, 1, 2)),
)
def test_difference_sums_across_the_pascal_bound(t, seq, lag):
    # rows read from the table and rows carried past it, in one pass, and
    # passes that start below the bound, at it and past it
    firsts = (PASCAL_BOUND - 3, PASCAL_BOUND, PASCAL_BOUND + 1)
    _check_difference_sums(t, seq, lag, firsts, PASCAL_BOUND + 6)


def test_pascal_table_rows_are_split_binomials():
    table = _pascal_table()
    assert len(table) == PASCAL_BOUND
    for r, halves in enumerate(_pascal_rows(range(PASCAL_BOUND + 3))):
        row = [comb(r, m) * 2 ** (r - m) for m in range(r + 1)]
        assert [list(h) for h in halves] == [row[::2], row[1::2]]
        if r < PASCAL_BOUND:
            assert halves is table[r]
    # the table is built once, of tuples, and stays small
    assert _pascal_table() is table
    assert all(type(h) is tuple for halves in table for h in halves)
    size = sys.getsizeof(table) + sum(
        sys.getsizeof(halves)
        + sum(sys.getsizeof(h) + sum(map(sys.getsizeof, h)) for h in halves)
        for halves in table
    )
    assert size <= 100_000


def test_long_solve_leaves_the_pascal_table_at_its_bound():
    table = _pascal_table()
    spec = TraceSpec(FactoredPolynomial([(0, 1), (gr("1/3", 1), 2)]), gr(2), poly(1, 2))
    N = 2 * PASCAL_BOUND + 1
    assert solve_moments(spec, N) == oracles.solve_moments(spec, N)
    assert _pascal_table() is table and len(table) == PASCAL_BOUND


# ------------------------------------------------------------- evaluation


def test_evaluate_trace_examples():
    spec = TraceSpec(P, gr(2), poly(-1, -1))
    z = AlgebraElement.z(P)
    u = AlgebraElement.u(P)
    assert evaluate_trace(spec, z * z) == gr("1/4")
    # pure nonzero winding vanishes
    assert evaluate_trace(spec, u * AlgebraElement.from_poly(P, poly(2, 7))) == gr(0)
    zero_spec = TraceSpec(P, gr(2), DensePolynomial.zero())
    assert evaluate_trace(zero_spec, AlgebraElement.one(P)) == gr(0)
    with pytest.raises(ValueError):
        evaluate_trace(spec, AlgebraElement.z(fp(0, 2)))


def test_twisted_trace_identity(rng):
    # keystone: T(ab) = T(g_t(b) a) ties the solver to the normal form
    CHECKS["twisted-trace"].fn(
        rng, ambients=(P, fp((0, 2), (1, 1))), pairs=40, monomials=0
    )


def test_shifted_product_identity(rng):
    # T(S(z-1/2) P(z-1/2)) = t T(S(z+1/2) P(z+1/2)) for monomials S
    CHECKS["twisted-trace"].fn(
        rng, ambients=(P, fp(0, gr("1/3"), (2, 1))), pairs=0, monomials=21
    )


def test_moment_linearity(rng):
    for _, t in CATALOG_T:
        q1 = random_trace_q(rng, P, t)
        q2 = random_trace_q(rng, P, t)
        m1 = TraceSpec(P, t, q1).moments(10)
        m2 = TraceSpec(P, t, q2).moments(10)
        msum = TraceSpec(P, t, q1 + q2).moments(10)
        assert msum == m1 + m2


# ---------------------------------------------------------------- pullback


def test_pullback_preserves_transform_and_traces(rng):
    # T on the algebra of P1; phi from the algebra of P2 = P1 * Q1 * Q2
    p1 = fp(1)
    q1, q2 = fp(0), fp()
    t = gr(2)
    base = TraceSpec(p1, t, poly(5))
    lifted = pullback_spec(base, q1, q2)
    assert lifted.P == fp(0, 1)
    # transform preserved
    assert lifted.moments(15) == base.moments(15)
    # nonzero pullback of a nonzero trace
    assert not lifted.is_zero()
    # against the algebra morphism: T(phi(a)) = T_lifted(a)
    phi = MorphismSpec.pullback(q1, q2)
    for _ in range(60):
        a = random_element(rng, lifted.P, max_wind=2, max_deg=2)
        assert evaluate_trace(base, morphism_apply(phi, a)) == evaluate_trace(
            lifted, a
        )


def test_pullback_keeps_twisted_identity(rng):
    big = fp((0, 2), (1, 1))
    base = TraceSpec(fp((0, 1), (1, 1)), gr("1/3"), poly(2, 1))
    lifted = pullback_spec(base, fp(0), fp())
    assert lifted.P == big
    for _ in range(40):
        a = random_element(rng, big)
        b = random_element(rng, big)
        assert evaluate_trace(lifted, a * b) == evaluate_trace(
            lifted, apply_gt(b, lifted.t) * a
        )


# ------------------------------------------------------------------ Hankel


def test_hankel_rank_examples():
    geo = series_of_rational(poly(1), poly("-1/2", 1), 6)
    assert hankel_rank(geo, 3) == 1
    assert hankel_rank(TruncatedSeries([0] * 8), 4) == 0
    spec = TraceSpec(P, gr(2), poly(1))
    assert hankel_rank(spec.moments(2), 2) == 2


def test_hankel_requires_enough_moments():
    with pytest.raises(ValueError):
        hankel_rank(TruncatedSeries([1, 2]), 3)


def _gaussian_poly(rng, degree: int) -> DensePolynomial:
    """A polynomial of exactly the given degree with Gaussian coefficients."""
    coeffs = [
        GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2)
        )
        for _ in range(degree)
    ]
    lead = GaussianRational(rng.randint(1, 4), rng.randint(-2, 2))
    return DensePolynomial(coeffs + [lead])


def test_gcd_degree_by_hankel_rank_matches_euclid(rng):
    # R = A G and S = B G with deg A < deg B: G is a product of linear
    # factors over a few Gaussian roots, repeats allowed, times a drawn
    # polynomial; A is zero now and then, and a constant B and G make S
    # constant
    degrees = set()
    for _ in range(200):
        pool = [_gaussian_poly(rng, 0).coeffs[0] for _ in range(rng.randint(1, 3))]
        G = _gaussian_poly(rng, rng.randint(0, 2))
        for _ in range(rng.choice((0, 0, 1, 2, 3, 5))):
            G = G * DensePolynomial((-rng.choice(pool), GaussianRational(1)))
        b = rng.randint(0, 4)
        A = DensePolynomial.zero()
        if b and rng.random() < 0.8:
            A = _gaussian_poly(rng, rng.randint(0, b - 1))
        R, S = A * G, _gaussian_poly(rng, b) * G
        expected = oracles.poly_gcd(R, S).degree
        assert _gcd_degree(R, S) == expected, (R, S)
        degrees.add((R.is_zero(), S.degree == 0, expected))
    # coprime, common factors up to degree 7, R = 0 and a constant S all occur
    assert {(False, False, 0), (True, True, 0)} <= degrees
    assert max(d for _, _, d in degrees) >= 7


def test_gcd_degree_edge_cases():
    # R = 0: the gcd is S itself; deg S = 0: nothing to share
    assert _gcd_degree(poly(), poly(3)) == 0 == oracles.poly_gcd(poly(), poly(3)).degree
    assert _gcd_degree(poly(), poly(-1, 0, 2)) == 2
    assert _gcd_degree(poly(1), poly(0, 0, 1)) == 0
    # x(x - 1) / x^2 (x - 1)^2 shares x (x - 1)
    assert _gcd_degree(poly(0, -1, 1), poly(0, 0, 1, -2, 1)) == 2
