"""Pade approximants, n-degeneracy profiles, and the functional residual."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleintrace import (
    DensePolynomial,
    GaussianRational,
    TraceSpec,
    TruncatedSeries,
    degeneracy_profile,
    degenerate_basis,
    delta_criterion,
    hankel_rank,
    is_n_degenerate,
    pade_approximant,
    q_from_principal_parts,
    verify_pade_functional,
)
from kleintrace import PrincipalParts, linalg, pade
from kleintrace.exactkernel import _clear_denominators
from kleintrace.pade import _MasseyPass
from kleintrace.catalog import CATALOG_T
from kleintrace.selftest import random_trace_q

import oracles

from conftest import fp, gr, poly

P2 = fp(0, 1)
GEOMETRIC = TruncatedSeries([1, gr("1/2"), gr("1/4"), gr("1/8")])


def test_pade_frozen_examples():
    pa = pade_approximant(GEOMETRIC, 1)
    assert pa.S == poly("-1/2", 1)
    assert pa.R == poly(1)
    pa2 = pade_approximant(TruncatedSeries([1, 0, 0]), 1)
    assert pa2.S == poly(0, 1) and pa2.R == poly(1)
    pa3 = pade_approximant(TruncatedSeries([0, 0, 0, 0]), 2)
    assert pa3.S == DensePolynomial.one() and pa3.R.is_zero()
    pa0 = pade_approximant(GEOMETRIC, 0)
    assert pa0.S == DensePolynomial.one() and pa0.R.is_zero()


def test_pade_requires_enough_moments():
    with pytest.raises(ValueError):
        pade_approximant(TruncatedSeries([1, 1]), 2)


def test_pade_orthogonality_and_shape(rng):
    P = fp(0, 1, 2)
    # the degenerate traces give non-normal blocks, where deg S < n
    specs = [
        spec
        for _, t in CATALOG_T
        for spec in [TraceSpec(P, t, random_trace_q(rng, P, t))]
        + degenerate_basis(P, t)
    ]
    for spec in specs:
        mu = spec.moments(13)
        for n in range(1, 6):
            pa = pade_approximant(mu, n)
            assert pa.S.coeffs[-1] == gr(1)
            assert pa.S.degree <= n
            # least degree: the Hankel columns below deg S are independent
            columns = [[mu[i + k] for i in range(pa.S.degree)] for k in range(n)]
            assert linalg.rank(linalg.numerator_rows(columns)) == pa.S.degree
            assert pa.R.degree < pa.S.degree or pa.R.is_zero()
            assert oracles.poly_gcd(pa.R, pa.S).degree == 0
            # orthogonality against all monomials below n
            for k in range(n):
                acc = gr(0)
                for i, c in enumerate(pa.S.coeffs):
                    acc = acc + c * mu[i + k]
                assert acc == gr(0)
            # defining window: S*F - R vanishes past x^{-n-1}
            joint = [
                sum(
                    (
                        pa.S.coefficient(i) * mu[i - jj - 1]
                        for i in range(max(jj + 1, 0), pa.S.degree + 1)
                    ),
                    gr(0),
                )
                for jj in range(-1, -n - 1, -1)
            ]
            assert all(value == gr(0) for value in joint[: n])


_part = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_scalars = st.builds(GaussianRational, _part, _part | st.just(Fraction(0)))


@st.composite
def moment_sequences(draw):
    """Q(i) sequences pieced from random values, runs of zeros and stretches
    of short linear recurrences, which make the Hankel blocks singular."""
    mu, length = [], draw(st.integers(1, 14))
    while len(mu) < length:
        kind = draw(st.sampled_from(("values", "zeros", "recurrence")))
        if kind == "values":
            mu += draw(st.lists(_scalars, min_size=1, max_size=3))
        elif kind == "zeros":
            mu += [GaussianRational(0)] * draw(st.integers(1, 5))
        else:
            c = draw(st.lists(_scalars, min_size=1, max_size=2))
            while len(mu) < len(c):
                mu.append(draw(_scalars))
            for _ in range(draw(st.integers(1, 8))):
                mu.append(sum((ci * mu[-1 - i] for i, ci in enumerate(c)), gr(0)))
    return TruncatedSeries(mu)


@given(mu=moment_sequences(), data=st.data())
def test_pade_denominator_is_first_kernel_vector_and_coprime(mu, data):
    # S is the least-degree monic solution, the first vector of the Fraction
    # row reduction; that minimality alone keeps R/S in lowest terms.  The
    # orders come in a drawn order on one series, so a read either resumes
    # the pass or reads below where it has reached
    orders = data.draw(st.permutations(range((mu.order + 1) // 2 + 1)))
    for n in orders:
        pa = pade_approximant(mu, n)
        block = [[mu[i + k] for i in range(n + 1)] for k in range(n)]
        assert pa.S == DensePolynomial(oracles.kernel_basis(block, n + 1)[0])
        assert oracles.poly_gcd(pa.R, pa.S).degree == 0
    # every stored connection polynomial is normalized: C_0 > 0, parts coprime
    for c_re, c_im in mu._massey.polys:
        assert c_re[0] > 0 and c_im[0] == 0
        assert gcd(*c_re, *c_im) == 1


@given(mu=moment_sequences(), data=st.data())
def test_is_n_degenerate_matches_oracle_hankel_rank(mu, data):
    # n-degenerate iff the (n+1) x (n+1) Hankel block is singular
    orders = data.draw(st.permutations(range((mu.order + 1) // 2)))
    for n in orders:
        block = [[mu[i + k] for i in range(n + 1)] for k in range(n + 1)]
        assert is_n_degenerate(mu, n) == (oracles.rank(block) < n + 1)


@given(mu=moment_sequences(), data=st.data())
def test_truncation_shares_the_pass_and_reads_as_fresh(mu, data):
    # a truncation reads its parent's pass, resumed or not, exactly as a
    # fresh series of its terms reads its own
    pade_approximant(mu, data.draw(st.integers(0, (mu.order + 1) // 2)))
    cut = mu.truncate(data.draw(st.integers(0, mu.order)))
    assert cut._massey is mu._massey
    fresh = TruncatedSeries(cut.coeffs)
    for n in range((cut.order + 1) // 2 + 1):
        a, b = pade_approximant(cut, n), pade_approximant(fresh, n)
        assert a.S == b.S and a.R == b.R
    for n in range((cut.order + 1) // 2):
        assert is_n_degenerate(cut, n) == is_n_degenerate(fresh, n)


@given(mu=moment_sequences(), data=st.data())
def test_massey_pass_reads_the_kept_numerators(mu, data):
    # the pass takes the series' integer form as it is, for a series made
    # from scalars or from numerators and for a truncation of either: that
    # form is what a fresh copy of the scalars clears to
    solved = TruncatedSeries._of_numerators(*_clear_denominators(mu.coeffs))
    n = data.draw(st.integers(0, mu.order))
    for series in (mu, solved, mu.truncate(n), solved.truncate(n)):
        p = _MasseyPass(series)
        fresh = _clear_denominators(TruncatedSeries(list(series)).coeffs)
        assert (p.re, p.im, p.den) == fresh


@pytest.mark.parametrize("t", [t for _, t in CATALOG_T], ids=[n for n, _ in CATALOG_T])
def test_massey_pass_on_solved_moments(t, rng):
    P = fp((0, 2), (gr("1/3"), 1), gr(0, 2))
    spec = TraceSpec(P, t, random_trace_q(rng, P, t))
    for series in (spec.moments(15), spec.moments(9)):
        p = _MasseyPass(series)
        fresh = _clear_denominators(TruncatedSeries(list(series)).coeffs)
        assert (p.re, p.im, p.den) == fresh


@given(mu=moment_sequences())
def test_pade_numerator_matches_scalar_oracle(mu):
    for n in range((mu.order + 1) // 2 + 1):
        pa = pade_approximant(mu, n)
        assert pa.R == oracles.pade_numerator(pa.S, mu)


def test_pade_unchanged_under_padding(rng):
    spec = TraceSpec(P2, gr(2), poly(1))
    short = spec.moments(7)
    long = spec.moments(30)
    for n in (1, 2, 3):
        a = pade_approximant(short.truncate(2 * n - 1), n)
        b = pade_approximant(long, n)
        assert a.S == b.S and a.R == b.R


def test_profile_worked_examples():
    degen = TraceSpec(P2, gr(2), poly(-1, -1))
    prof = degeneracy_profile(degen, 4)
    assert prof == [(1, 1, True), (2, 1, True), (3, 1, True), (4, 1, True)]

    nondegen = TraceSpec(P2, gr(2), poly(1))
    assert is_n_degenerate(nondegen.moments(5), 0)  # mu_0 = 0
    assert not is_n_degenerate(nondegen.moments(5), 1)  # 2x2 det = -1
    prof2 = degeneracy_profile(nondegen, 3)
    assert [flag for _, _, flag in prof2] == [False, False, False]

    zero = TraceSpec(P2, gr(2), DensePolynomial.zero())
    assert all(flag for _, _, flag in degeneracy_profile(zero, 5))


def test_profile_shares_the_kept_series_pass(monkeypatch):
    # the profile reads the public moments: a truncation of the kept series
    # that resumes the pass of the Pade window instead of making its own
    made = []
    monkeypatch.setattr(pade, "_MasseyPass", lambda mu: made.append(mu) or _MasseyPass(mu))
    spec = TraceSpec(fp(0, 1, gr("1/3")), gr(2), poly(1, 2))
    kept = spec.moments(40)
    assert spec.moments(40) is kept
    window = [pade_approximant(kept, n).S for n in range(3, 9)]
    profile = degeneracy_profile(spec, 5)
    assert made == [kept]
    assert spec.moments(11)._massey is kept._massey
    fresh = TraceSpec(spec.P, spec.t, spec.Q)
    assert profile == degeneracy_profile(fresh, 5)
    assert window == [pade_approximant(fresh.moments(40), n).S for n in range(3, 9)]


def test_is_n_degenerate_rejects_negative_n():
    mu = TraceSpec(P2, gr(2), poly(1)).moments(5)
    for n in (-1, -2):
        with pytest.raises(ValueError, match=f"n = {n}"):
            is_n_degenerate(mu, n)


def test_profile_matches_hankel_blocks(rng):
    # n-degenerate iff the (n+1) x (n+1) Hankel block is singular
    for _, t in CATALOG_T:
        spec = TraceSpec(P2, t, random_trace_q(rng, P2, t))
        mu = spec.moments(2 * 7 - 1)
        for n in range(0, 6):
            assert is_n_degenerate(mu, n) == (
                hankel_rank(mu, n + 1) < n + 1
            )


def test_profile_matches_oracle_hankel_ranks(rng):
    # deg S_n is the first m whose n x (m+1) Hankel block has dependent
    # columns, and the flag is the singularity of the (n+1)-square block
    n_max = 5
    for P in (P2, fp((0, 2), 1)):
        for _, t in CATALOG_T:
            for spec in [TraceSpec(P, t, random_trace_q(rng, P, t))] + degenerate_basis(P, t):
                mu = spec.moments(2 * n_max + 1)
                for n, deg, flag in degeneracy_profile(spec, n_max):
                    ranks = [
                        oracles.rank([[mu[i + k] for i in range(m + 1)] for k in range(n)])
                        for m in range(n + 1)
                    ]
                    assert deg == next(m for m in range(n + 1) if ranks[m] <= m)
                    square = [[mu[i + k] for i in range(n + 1)] for k in range(n + 1)]
                    assert flag == (oracles.rank(square) < n + 1)


def test_stabilization_example_profile():
    # difference datum (1/(x+1/2) - t/(x-1/2)) + 1/x^k: the approximants
    # freeze at the small denominator while the trace stays nondegenerate
    t = gr(2)
    k = 12
    P = fp((0, k), (gr("1/2"), 1), (gr("-1/2"), 1))
    parts = PrincipalParts(
        {gr("-1/2"): [1], gr("1/2"): [-t], gr(0): [0] * (k - 1) + [1]}
    )
    spec = TraceSpec(P, t, q_from_principal_parts(P, parts))
    assert not delta_criterion(spec).degenerate
    prof = degeneracy_profile(spec, 6)
    s_poly = poly(0, 1)  # the transform is 1/x + O(x^{-k})
    for n, deg_s, flag in prof:
        assert deg_s == 1
        assert flag  # S_{n+1} = S_n = x throughout the window
    mu = spec.moments(25)
    for n in range(1, k - 1):
        assert pade_approximant(mu, n).S == s_poly
    # beyond the window the tail term forces the degree up
    assert pade_approximant(mu, k - 1).S != s_poly


def test_functional_residual_orders(rng):
    degen = TraceSpec(P2, gr(2), poly(-1, -1))
    # exact rational transform: residual identically zero through the depth
    assert verify_pade_functional(degen, 1) >= 2 * 1 + 2

    nondegen = TraceSpec(P2, gr(2), poly(1))
    # 0-degenerate trace: S_1 = 1 and the residual is -Q/P, order exactly 2
    assert verify_pade_functional(nondegen, 1) == 2

    # generic traces meet the bound 2n+1 (2n+2 at t = 1)
    for t in (gr(2), gr(1)):
        spec = TraceSpec(P2, t, random_trace_q(rng, P2, t))
        need = 3 if t != gr(1) else 4
        assert verify_pade_functional(spec, 1) >= need

    t1_const = TraceSpec(P2, gr(1), poly(3))
    assert verify_pade_functional(t1_const, 1) >= 4
