"""Degeneracy: the coset invariant, the Delta criterion, reconstruction,
decompositions, and the Hankel factorization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleintrace import (
    DensePolynomial,
    FactoredPolynomial,
    GaussianRational,
    PrincipalParts,
    TraceSpec,
    coset_key,
    decompose_pole_order,
    decompose_two_root,
    degenerate_basis,
    delta_criterion,
    delta_invariant,
    parse_factored,
    partial_fractions,
    pole_bounds,
    q_from_principal_parts,
    radical_generator,
    reconstruct_principal_parts,
    reconstruct_rational,
    trace_dim,
)
from kleintrace import exactkernel, linalg
from kleintrace.cli import main
from kleintrace.catalog import CATALOG_P, CATALOG_T
from kleintrace.degeneracy import _delta_rows
from kleintrace.exactkernel import _roots_by_coset
from kleintrace.selftest import CHECKS, random_poly, random_trace_q

import oracles
from oracles import integer_offset

from conftest import fp, gr, poly

P2 = fp(0, 1)
DEGEN = TraceSpec(P2, gr(2), poly(-1, -1))  # transform 1/(x - 1/2)


# ------------------------------------------------------------- invariants


def test_delta_invariant_examples():
    assert delta_invariant(P2)[0] == 1
    assert delta_invariant(fp(0, gr("1/3")))[0] == 0
    assert delta_invariant(fp(0, 1, 2))[0] == 2
    assert delta_invariant(fp((0, 2)))[0] == 0
    assert delta_invariant(fp((0, 2), (1, 2)))[0] == 2


def test_delta_invariant_range_and_extremes():
    # 0 <= delta <= d-1; extremes characterized by the root pattern
    for _, P in CATALOG_P:
        total, per_coset = delta_invariant(P)
        assert 0 <= total <= P.degree - 1
        # independent scan: delta = 0 iff no two distinct roots differ by
        # a nonzero integer
        pairs = [
            (a, b)
            for a, _ in P.roots
            for b, _ in P.roots
            if a != b and coset_key(a) == coset_key(b)
        ]
        assert (total == 0) == (not pairs)
        single_coset_simple = (
            all(m == 1 for _, m in P.roots)
            and len({coset_key(a) for a, _ in P.roots}) == 1
        )
        assert (total == P.degree - 1) == single_coset_simple


def test_pole_bounds_examples():
    assert pole_bounds(P2).bounds == {gr("1/2"): 1}
    assert pole_bounds(P2).total == 1
    assert pole_bounds(fp(0, gr("1/3"))).bounds == {}
    assert pole_bounds(fp((0, 2), (1, 2))).bounds == {gr("1/2"): 2}
    assert pole_bounds(fp(0, 1, 2)).bounds == {gr("1/2"): 1, gr("3/2"): 1}


# ---------------------------------------------------------- the criterion


def test_delta_criterion_worked_examples():
    rep = delta_criterion(DEGEN)
    assert rep.degenerate
    key = coset_key(gr(0))
    assert rep.deltas[(key, 1)] == gr(0)
    assert rep.delta_total == 1

    rep2 = delta_criterion(TraceSpec(P2, gr(2), poly(1)))
    assert not rep2.degenerate
    assert rep2.deltas[(key, 1)] == gr("-1/2")

    rep3 = delta_criterion(TraceSpec(P2, gr(2), DensePolynomial.zero()))
    assert rep3.degenerate


def test_delta_shift_proportionality(rng):
    # recomputing Delta from the representative shifted by one rescales by
    # t, so the zero set is well defined on cosets
    t = gr("1/3")
    for _ in range(20):
        q = random_trace_q(rng, P2, t)
        D = partial_fractions(q, P2)
        delta_at = lambda b: sum(
            (
                t ** (-j) * D.coefficient(b + GaussianRational(j), 1)
                for j in range(-3, 4)
            ),
            gr(0),
        )
        assert delta_at(gr(0)) == t * delta_at(gr(-1))


def test_degenerate_basis_examples():
    basis = degenerate_basis(P2, gr(2))
    assert len(basis) == 1
    # spanned by Q = -x-1 up to scale
    q = basis[0].Q
    ratio = q.coefficient(1) / gr(-1)
    assert q == poly(-1, -1) * ratio

    assert degenerate_basis(fp(0, gr("1/3")), gr(2)) == []

    basis_t1 = degenerate_basis(P2, gr(1))
    assert len(basis_t1) == 1
    # dim C = 1 = delta at t=1: no nondegenerate trace exists
    from kleintrace import trace_dim

    assert trace_dim(P2, gr(1)) == 1


def test_degenerate_basis_members_and_independence(rng):
    for _, P in CATALOG_P:
        total, _ = delta_invariant(P)
        for _, t in CATALOG_T:
            basis = degenerate_basis(P, t)
            assert len(basis) == total
            for member in basis:
                assert delta_criterion(member).degenerate
            if basis:
                rows = [
                    [member.Q.coefficient(k) for k in range(P.degree)]
                    for member in basis
                ]
                assert linalg.rank(linalg.numerator_rows(rows)) == len(basis)


def _rref_basis(P, t):
    """The reduced-row-echelon kernel basis of the Delta rows, by the
    Fraction oracle, each vector mapped to Q through its coordinates D_{a,k}."""
    coords = [(a, k) for a, m in P.roots for k in range(1, m + 1)]
    basis = []
    for vec in oracles.kernel_basis(_delta_rows(P, t), P.degree):
        parts = {}
        for (a, k), value in zip(coords, vec):
            if value:
                parts.setdefault(a, [gr(0)] * P.multiplicity(a))[k - 1] = value
        basis.append(TraceSpec(P, t, q_from_principal_parts(P, PrincipalParts(parts))))
    return basis


def _assert_closed_form_is_rref_basis(P, t):
    closed = [spec.to_json() for spec in degenerate_basis(P, t)]
    assert closed == [spec.to_json() for spec in _rref_basis(P, t)]
    assert len(closed) == delta_invariant(P)[0]


def test_degenerate_basis_is_rref_kernel_basis_on_catalog():
    for _, P in CATALOG_P:
        for _, t in CATALOG_T:
            _assert_closed_form_is_rref_basis(P, t)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_gaussian = st.builds(GaussianRational, _small, _small)


@st.composite
def ambients(draw):
    """(root pairs, t): up to 6 Gaussian-rational roots in up to 3 cosets,
    multiplicities <= 3, in drawn (unsorted) order; t is 1, -1 or a nonzero
    Gaussian rational."""
    reps = draw(st.lists(_gaussian, min_size=1, max_size=3))
    roots = {}
    for _ in range(draw(st.integers(1, 6))):
        a = draw(st.sampled_from(reps)) + GaussianRational(draw(st.integers(-3, 3)))
        roots[a] = draw(st.integers(1, 3))
    t = draw(st.sampled_from((gr(1), gr(-1))) | _gaussian.filter(bool))
    return list(roots.items()), t


@given(ambients())
def test_degenerate_basis_is_rref_kernel_basis(case):
    pairs, t = case
    _assert_closed_form_is_rref_basis(fp(*pairs), t)


@given(ambients(), st.sampled_from([gr("-1/3"), gr("-7/2", 1), gr(-2), gr("5/3")]))
def test_coset_walk_offsets_are_integer_offsets(case, extra):
    # the walk takes the offset from the representative as the floor of the
    # real part, which for a negative non-integer part such as -1/3 is -1
    pairs, _ = case
    P = FactoredPolynomial({**dict(pairs), extra: 1}.items())
    for key, _, roots in _roots_by_coset(P):
        for root, offset in roots:
            assert coset_key(root) == key
            assert offset == integer_offset(root, key.representative())
    (_, _, [(root, offset)]), = _roots_by_coset(fp(gr("-1/3")))
    assert (root, offset) == (gr("-1/3"), -1)


def _walk_by_definition(pairs) -> list:
    """(str(key), k, level) for every coset and k, from ``coset_key`` and
    ``integer_offset`` alone: level is ((root, offset), ...) for the roots
    of multiplicity >= k by offset from the representative."""
    cosets = {}
    for a, m in pairs:
        cosets.setdefault(coset_key(a), []).append((a, m))
    out = []
    for key, roots in cosets.items():
        rep = key.representative()
        for k in range(1, max(m for _, m in roots) + 1):
            level = sorted((integer_offset(a, rep), a) for a, m in roots if m >= k)
            out.append((str(key), k, tuple((a, o) for o, a in level)))
    return sorted(out, key=lambda e: e[:2])


@given(ambients(), st.data())
def test_kept_coset_walk_equals_a_fresh_walk(case, data):
    pairs, _ = case
    P = FactoredPolynomial(pairs)
    walk = _roots_by_coset(P)
    assert _roots_by_coset(P) is walk
    assert isinstance(walk, tuple)
    assert all(isinstance(level, tuple) for _, _, level in walk)
    # a fresh walk over the same roots, given in another order
    shuffled = data.draw(st.permutations(pairs))
    assert _roots_by_coset(FactoredPolynomial(shuffled)) == walk
    by_definition = sorted(
        ((str(key), k, level) for key, k, level in walk), key=lambda e: e[:2]
    )
    assert by_definition == _walk_by_definition(pairs)


@pytest.mark.parametrize(
    "argv",
    [
        ["check-degenerate", "--t=2", "--Q=1,2,-1/2"],
        ["degenerate-basis", "--t=1/3+2i"],
    ],
)
def test_cli_request_walks_each_root_once(argv, monkeypatch, capsys):
    # the walk is kept on P, so parsing P and every degeneracy route after
    # it share one walk, which groups the roots on integers and makes each
    # coset's key once, from its first root
    text = "x^2(x-1)(x-3)^2(x-1/3)(x+2/3-i)(x-1/3-i)^2"
    calls = []

    def counted(a):
        calls.append(a)
        return coset_key(a)

    monkeypatch.setattr(exactkernel, "coset_key", counted)
    assert main([argv[0], f"--P={text}", *argv[1:]]) == 0
    capsys.readouterr()
    firsts = {}
    for a, _ in parse_factored(text).roots:
        firsts.setdefault(coset_key(a), a)
    assert len(firsts) == 3
    assert calls == list(firsts.values())


# ---------------------------------------------------------- reconstruction


def test_reconstruct_worked_examples():
    num, den = reconstruct_rational(DEGEN)
    assert num == poly(1)
    assert den == poly("-1/2", 1)
    assert radical_generator(DEGEN) == den

    # two simple poles with the t-chain: D_0 = 1, D_2 = -9, t = 3
    P = fp(0, 2)
    parts_in = PrincipalParts({gr(0): [1], gr(2): [-9]})
    spec = TraceSpec(P, gr(3), q_from_principal_parts(P, parts_in))
    c_parts = reconstruct_principal_parts(spec)
    assert c_parts.entries == {gr("1/2"): (gr(1),), gr("3/2"): (gr(3),)}

    zero = TraceSpec(P2, gr(2), DensePolynomial.zero())
    num0, den0 = reconstruct_rational(zero)
    assert num0.is_zero() and den0 == DensePolynomial.one()


def test_reconstruct_rejects_nondegenerate():
    with pytest.raises(ValueError):
        reconstruct_rational(TraceSpec(P2, gr(2), poly(1)))


def test_reconstruction_round_trip_catalog(rng):
    # lowest terms, monic, within the pole bounds, and the series round trip
    CHECKS["reconstruction"].fn(rng, order=50, annihilators=0)


def test_radical_annihilates(rng):
    for spec in (DEGEN, degenerate_basis(fp((0, 2), (1, 2)), gr(2))[1]):
        gen = radical_generator(spec)
        for _ in range(50):
            q = random_poly(rng, 5)
            assert spec.trace_of_poly(gen * q) == gr(0)


def test_degenerate_moment_growth_bounded():
    # |mu_n| <= C * rho^n with rho = 1 + max |pole|
    for spec in degenerate_basis(fp(0, 1, 2), gr(2)):
        parts = reconstruct_principal_parts(spec)
        if parts.is_zero():
            continue
        rho = 1 + max(abs(a.to_complex()) for a in parts.support())
        mu = spec.moments(60)
        c0 = max(abs(mu[n].to_complex()) / rho**n for n in range(5)) + 1
        for n in range(61):
            assert abs(mu[n].to_complex()) <= c0 * rho**n


# ----------------------------------------------------------- decomposition


def test_pole_order_decomposition_example():
    t = gr(2)
    P = fp((0, 2), (1, 2))
    parts = PrincipalParts({gr(0): [1, 1], gr(1): [-2, -(t * t)]})
    spec = TraceSpec(P, t, q_from_principal_parts(P, parts))
    comps = decompose_pole_order(spec)
    assert [k for k, _ in comps] == [1, 2]
    d1 = partial_fractions(comps[0][1].Q, comps[0][1].P)
    assert d1.entries == {gr(0): (gr(1),), gr(1): (gr(-2),)}
    assert comps[0][1].P == fp(0, 1)
    d2 = partial_fractions(comps[1][1].Q, comps[1][1].P)
    assert d2.entries == {gr(0): (gr(0), gr(1)), gr(1): (gr(0), -(t * t))}
    assert comps[1][1].P == P
    # moments recombine (pullback preserves the transform)
    total = comps[0][1].moments(25) + comps[1][1].moments(25)
    assert total == spec.moments(25)


def test_pole_order_decomposition_trivial_cases():
    assert decompose_pole_order(DEGEN) == [(1, DEGEN)]
    zero = TraceSpec(P2, gr(2), DensePolynomial.zero())
    assert decompose_pole_order(zero) == []


def test_pole_order_decomposition_degeneracy_distributes(rng):
    # T degenerate iff every component degenerate
    t = gr("1/3")
    P = fp((0, 2), (1, 2))
    for spec in degenerate_basis(P, t):
        for _, comp in decompose_pole_order(spec):
            assert delta_criterion(comp).degenerate
    q = random_trace_q(rng, P, t)
    spec = TraceSpec(P, t, q)
    if not delta_criterion(spec).degenerate:
        flags = [
            delta_criterion(comp).degenerate
            for _, comp in decompose_pole_order(spec)
        ]
        assert not all(flags)


def test_two_root_decomposition_examples():
    pieces = decompose_two_root(DEGEN)
    assert len(pieces) == 1
    assert pieces[0][0] == P2
    assert pieces[0][1] == DEGEN

    # degenerate trace on x(x-1)(x-2) with poles at 1/2 and 3/2
    P = fp(0, 1, 2)
    t = gr(2)
    parts = PrincipalParts({gr(0): [1], gr(1): [1 - t], gr(2): [-t]})
    spec = TraceSpec(P, t, q_from_principal_parts(P, parts))
    c_parts = reconstruct_principal_parts(spec)
    assert set(c_parts.support()) == {gr("1/2"), gr("3/2")}
    pieces = decompose_two_root(spec)
    assert [p.to_json() for p, _ in pieces] == [
        fp(0, 1).to_json(),
        fp(1, 2).to_json(),
    ]
    total = pieces[0][1].moments(30) + pieces[1][1].moments(30)
    assert total == spec.moments(30)

    zero = TraceSpec(P2, gr(2), DensePolynomial.zero())
    assert decompose_two_root(zero) == []


def test_two_root_decomposition_catalog():
    for _, P in CATALOG_P:
        for _, t in CATALOG_T:
            for spec in degenerate_basis(P, t):
                pieces = decompose_two_root(spec)
                total = None
                for pair, comp in pieces:
                    roots = pair.roots
                    assert len(roots) == 2
                    assert roots[0][1] == roots[1][1]
                    gap = roots[1][0] - roots[0][0]
                    assert gap.im == 0 and gap.re.denominator == 1
                    assert gap.re > 0
                    assert delta_criterion(comp).degenerate
                    m = comp.moments(30)
                    total = m if total is None else total + m
                if total is not None:
                    assert total == spec.moments(30)
                else:
                    assert spec.is_zero()


def test_two_root_rejects_nondegenerate():
    with pytest.raises(ValueError):
        decompose_two_root(TraceSpec(P2, gr(2), poly(1)))


# the messages of the two refusals, the same as before they read the chain
NOT_RATIONAL = "trace is not degenerate: its transform is not rational"
NOT_DEGENERATE = "two-root decomposition needs a degenerate trace"


@st.composite
def chain_cases(draw):
    """(P, t, Q): Gaussian roots in up to 2 cosets with multiplicities <= 3,
    t among 1, -1, i, 2, 1/3 and a drawn Gaussian t, and Q a random
    combination of the degenerate basis, now and then pushed off it by a
    random Q of the same degree bound."""
    reps = draw(st.lists(_gaussian, min_size=1, max_size=2))
    roots = {}
    for _ in range(draw(st.integers(1, 5))):
        a = draw(st.sampled_from(reps)) + GaussianRational(draw(st.integers(-3, 3)))
        roots[a] = draw(st.integers(1, 3))
    P = FactoredPolynomial(roots.items())
    fixed = (gr(1), gr(-1), gr(0, 1), gr(2), gr("1/3"))
    t = draw(st.sampled_from(fixed) | _gaussian.filter(bool))
    weights = st.sampled_from([0, 1, -1, 2, gr("1/2"), gr(0, 1), gr("-2/3", 1)])
    Q = DensePolynomial.zero()
    for spec in degenerate_basis(P, t):
        Q = Q + draw(weights) * spec.Q
    if draw(st.integers(0, 2)) == 2:
        bound = trace_dim(P, t)
        Q = Q + DensePolynomial(draw(weights) for _ in range(bound))
    return P, t, Q


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _direct_deltas(P, t, Q) -> dict:
    """{(coset key, k): Delta^(k)} as the direct coset sums
    sum_j t^(-o_j) D_(a_j)^(k) over the oracle's expansion of Q/P."""
    D = oracles.partial_fractions(Q, P)
    out = {}
    for k, roots in oracles._levels(P):
        total = gr(0)
        for o, a in roots:
            total = total + t ** (-o) * oracles._part(D, a, k)
        out[(coset_key(roots[0][1]), k)] = total
    return out


@settings(max_examples=150)
@given(chain_cases())
def test_chain_matches_greedy_peel_and_direct_sums(case):
    P, t, Q = case
    spec = TraceSpec(P, t, Q)
    assert delta_criterion(spec).deltas == _direct_deltas(P, t, Q)
    expected = _outcome(oracles.two_root, P, t, Q)
    pieces = _outcome(decompose_two_root, spec)
    parts = _outcome(reconstruct_principal_parts, spec)
    if isinstance(expected, tuple):
        # a nondegenerate trace: both refuse it as before
        assert expected == (ValueError, NOT_DEGENERATE)
        assert pieces == expected
        assert parts == (ValueError, NOT_RATIONAL)
        return
    assert [pair.roots for pair, _ in pieces] == [roots for roots, _ in expected]
    for (pair, component), (_, want) in zip(pieces, expected):
        assert component.P == pair and component.t == t
        assert component.Q == oracles.q_from_principal_parts(pair, want.items())
    assert dict(parts) == oracles.transform_parts(P, t, Q)


@pytest.mark.parametrize("t", ["2", "1/3+2/7i"])
def test_delta_is_the_direct_coset_sum_at_a_gap_of_1000(t):
    # Delta reads the chain's last entry, t^1000 times the sum, back down
    P, t = fp(0, 1000), gr(t)
    (vector,) = degenerate_basis(P, t)
    for Q in (vector.Q, poly(1), vector.Q + poly(0, 1)):
        deltas = delta_criterion(TraceSpec(P, t, Q)).deltas
        assert deltas == _direct_deltas(P, t, Q)
        assert bool(deltas[(coset_key(gr(0)), 1)]) == (Q != vector.Q)


# ------------------------------------------------------------- Vandermonde


def test_vandermonde_factor_examples():
    # rank-1 geometric case
    parts = reconstruct_principal_parts(DEGEN)
    vb, db = oracles.vandermonde_factor(parts, 3)
    H = oracles.assemble_vandermonde(vb, db, 3)
    mu = DEGEN.moments(4)
    expect = [[mu[i + j] for j in range(3)] for i in range(3)]
    assert H == expect
    assert linalg.rank(linalg.numerator_rows(H)) == 1
    assert all(H[i][j] == gr("1/2") ** (i + j) for i in range(3) for j in range(3))

    # pure double pole at 0: moments (0, 1, 0, ...)
    parts2 = PrincipalParts({gr(0): [0, 1]})
    vb2, db2 = oracles.vandermonde_factor(parts2, 2)
    assert [[str(c) for c in row] for row in vb2[0][1]] == [
        ["1/1+0/1i", "0/1+0/1i"],
        ["0/1+0/1i", "1/1+0/1i"],
    ]
    H2 = oracles.assemble_vandermonde(vb2, db2, 2)
    assert H2 == [[gr(0), gr(1)], [gr(1), gr(0)]]

    # zero transform: empty factorization, zero matrix
    vb3, db3 = oracles.vandermonde_factor(PrincipalParts({}), 2)
    assert vb3 == [] and db3 == []
    assert oracles.assemble_vandermonde(vb3, db3, 2) == [[gr(0), gr(0)], [gr(0), gr(0)]]


def test_vandermonde_matches_hankel_on_catalog():
    N = 5
    for _, P in CATALOG_P:
        for _, t in CATALOG_T:
            for spec in degenerate_basis(P, t):
                parts = reconstruct_principal_parts(spec)
                vb, db = oracles.vandermonde_factor(parts, N)
                H = oracles.assemble_vandermonde(vb, db, N)
                mu = spec.moments(2 * N - 2)
                hankel = [[mu[i + j] for j in range(N)] for i in range(N)]
                assert H == hankel


# ---------------------------------------------------------- the tri-oracle


def test_tri_oracle_smoke(rng):
    CHECKS["tri-oracle"].fn(rng, random_per_cell=3)
