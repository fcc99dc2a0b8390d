"""Exact kernel: scalars, polynomials, series, partial fractions, cosets."""

import re
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kleintrace import (
    DensePolynomial,
    FactoredPolynomial,
    GaussianRational,
    PrincipalParts,
    TraceSpec,
    TruncatedSeries,
    coset_key,
    pade_approximant,
    parse_factored,
    partial_fractions,
    q_from_moments,
    q_from_principal_parts,
    series_of_rational,
    trace_dim,
)
from kleintrace.exactkernel import (
    _as_scalar,
    _clear_denominators,
    _from_numerators,
    _of_parts,
    _q_sums,
    _shifted_product,
)
from kleintrace.selftest import random_poly, random_scalar

import oracles

from conftest import fp, gr, poly

_part = st.fractions(min_value=-9, max_value=9, max_denominator=6)
_scalars = st.builds(GaussianRational, _part, _part | st.just(Fraction(0)))


# ---------------------------------------------------------------- scalars


def test_scalar_arithmetic_is_exact(rng):
    for _ in range(200):
        a = random_scalar(rng)
        b = random_scalar(rng)
        assert (a + b) - b == a
        assert a * b == b * a
        if b:
            assert (a / b) * b == a


def test_scalar_powers_and_conjugate():
    i = gr(0, 1)
    assert i * i == gr(-1)
    assert i**4 == gr(1)
    assert i**-1 == -i
    assert oracles.conjugate(gr("3/2", 1)) == gr("3/2", -1)
    assert gr(2) ** -2 == gr(Fraction(1, 4))


_ARITHMETIC = {
    "neg": lambda a, _: -a,
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@given(a=_scalars, b=_scalars, op=st.sampled_from(sorted(_ARITHMETIC)))
def test_scalar_arithmetic_matches_fraction_pairs(a, b, op):
    # results are built from their Fraction parts without the public
    # constructor, so check that they are what that constructor would make
    if op == "/" and not b:
        with pytest.raises(ZeroDivisionError):
            a / b
        return
    res = _ARITHMETIC[op](a, b)
    assert (res.re, res.im) == oracles.PAIR_OPS[op]((a.re, a.im), (b.re, b.im))
    assert type(res) is GaussianRational
    assert type(res.re) is Fraction and type(res.im) is Fraction
    rebuilt = GaussianRational(res.re, res.im)
    assert res == rebuilt and hash(res) == hash(rebuilt)


@given(
    a=_scalars.filter(bool),
    p=st.lists(_scalars, max_size=3).map(DensePolynomial),
)
def test_powers_match_repeated_multiplication(a, p):
    for n in range(-5, 10):
        expected = GaussianRational(1)
        for _ in range(abs(n)):
            expected = expected * a
        assert a**n == (expected if n >= 0 else 1 / expected)
    expected = DensePolynomial.one()
    for n in range(10):
        assert p**n == expected
        expected = expected * p


def test_scalar_string_round_trip(rng):
    cases = [gr(0), gr(-1), gr("3/2"), gr("-3/2"), gr(0, 1), gr("1/3", Fraction(-1, 2))]
    cases += [random_scalar(rng) for _ in range(50)]
    for a in cases:
        assert GaussianRational.from_string(str(a)) == a


def test_scalar_parse_shorthands():
    assert GaussianRational.from_string("2") == gr(2)
    assert GaussianRational.from_string("2/1") == gr(2)
    assert GaussianRational.from_string("-3/2") == gr("-3/2")
    assert GaussianRational.from_string("i") == gr(0, 1)
    assert GaussianRational.from_string("-i") == gr(0, -1)
    assert GaussianRational.from_string("1/2i") == gr(0, Fraction(1, 2))
    assert GaussianRational.from_string("1/3+1/2i") == gr("1/3", Fraction(1, 2))
    assert str(gr("-3/2")) == "-3/2+0/1i"
    assert GaussianRational.from_string("1000") == gr(1000)


def test_scalar_parse_refuses_exponent_notation():
    for text in ("1e3", "1E3i", "2+1e3i", "-1e300000", "1.5e-2"):
        with pytest.raises(ValueError, match=re.escape(f"in scalar '{text}'")):
            GaussianRational.from_string(text)


def test_scalar_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


# ------------------------------------------------------------ polynomials


def test_scalar_hash_agrees_with_equality(rng):
    # a == b must imply hash(a) == hash(b), also against int and Fraction
    reals = [0, 1, -2, 10**30, Fraction(1, 3), Fraction(-7, 2)]
    reals += [random_scalar(rng).re for _ in range(20)]
    for x in reals:
        assert gr(x) == x and hash(gr(x)) == hash(x)
        assert hash(gr(x)) == hash(gr(Fraction(x)) + gr(0, 1) - gr(0, 1))
    table = {gr(2): "two", gr("1/3"): "third", gr(1, 1): "1+i"}
    assert table.get(2) == "two"
    assert table.get(Fraction(1, 3)) == "third"
    assert table.get(gr(1, 1)) == "1+i"
    assert {2, gr(2), Fraction(2)} == {2}
    for _ in range(20):
        a = random_scalar(rng)
        assert hash(a) == hash(a * gr(1) + gr(0))


_hash_parts = st.integers(-(10**25), 10**25) | st.fractions(max_denominator=10**12)


@given(_hash_parts, _hash_parts | st.just(0), st.integers(1, 10**6))
@example(0, 0, 1)
@example(-1, 0, 7)  # hash(-1) is -2 for ints, Fractions and scalars alike
@example(Fraction(-1, 3), Fraction(5, 2), 4)
def test_scalar_hash_is_the_same_whichever_constructor_built_it(re, im, scale):
    # integer, non-integer real and Gaussian values, built by every
    # constructor; the integer kernels' numerators may be unreduced
    re, im = Fraction(re), Fraction(im)
    den = lcm(re.denominator, im.denominator) * scale
    built = [
        GaussianRational(re, im),
        GaussianRational.from_string(str(GaussianRational(re, im))),
        _of_parts(re, im),
        _from_numerators(int(re * den), int(im * den), den),
    ]
    if not im:
        built += [re, GaussianRational(re)]
        if re.denominator == 1:
            built += [int(re), GaussianRational(int(re))]
    assert all(b == built[0] for b in built)
    assert {hash(b) for b in built} == {hash(built[0])}
    if not im:
        assert hash(built[0]) == hash(re)


def test_poly_shift_examples():
    # x^2 shifted by 1/2
    assert poly(0, 0, 1).shift(gr("1/2")) == poly("1/4", 1, 1)
    # zero polynomial
    assert DensePolynomial.zero().shift(gr(5)) == DensePolynomial.zero()
    # x shifted by -1
    assert poly(0, 1).shift(gr(-1)) == poly(-1, 1)


def test_poly_shift_round_trip(rng):
    for _ in range(100):
        p = random_poly(rng, 5)
        h = random_scalar(rng)
        assert p.shift(h).shift(-h) == p


# shifts with denominators up to 12, so they differ from the coefficients'
_wide = st.fractions(min_value=-9, max_value=9, max_denominator=12)
_shifts = (
    st.integers(-5, 5)
    | st.builds(GaussianRational, _wide)
    | st.builds(GaussianRational, _wide, _wide)
)


@given(p=st.lists(_scalars, max_size=7).map(DensePolynomial), h=_shifts)
@example(p=DensePolynomial.zero(), h=gr(5))
@example(p=poly(gr("2/3", 1)), h=gr("1/2"))
@example(p=poly(1, gr("-1/2", 2), 3), h=gr(0))
@example(p=poly(1, 0, -2, 1), h=3)
@example(p=poly("1/3", gr("1/2", "1/5"), "-2/7", 1), h=gr("3/4", "-5/6"))
@example(p=poly(gr(0, 1), 0, gr("1/6", -1)), h=gr(0, "1/11"))
def test_shift_matches_horner_oracle(p, h):
    shifted = p.shift(h)
    assert shifted == oracles.shift(p, h)
    if p.degree < 1 or not h:
        assert shifted is p


def test_poly_divmod_and_gcd(rng):
    # the oracle long division and Euclidean gcd that check coprimality
    for _ in range(50):
        a = random_poly(rng, 4)
        b = random_poly(rng, 2)
        if b.is_zero():
            continue
        q, r = oracles.poly_divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
    g = oracles.poly_gcd(poly(-1, 0, 1), poly(1, 1))  # (x^2-1, x+1)
    assert g == poly(1, 1)
    assert oracles.poly_gcd(poly(0, 2), poly(0, 0, 3)) == poly(0, 1)
    assert oracles.poly_gcd(poly(), poly()).is_zero()


def _quotient(P, a, k):
    """P / (x - a)^k, as the Q of the one pole c / (x - a)^k with c = 1."""
    return q_from_principal_parts(P, PrincipalParts({a: [0] * (k - 1) + [1]}))


def test_factored_expand_and_quotient():
    P = fp(0, 1)
    assert P.expand() == poly(0, -1, 1)
    assert P.degree == 2
    assert _quotient(P, gr(0), 1) == poly(-1, 1)
    with pytest.raises(ValueError):
        _quotient(P, gr(5), 1)
    with pytest.raises(ValueError):
        fp((0, 1), (0, 2))  # duplicate root


# ----------------------------------------------------------------- series


def test_series_of_rational_examples():
    # geometric: 1/(x - 1/2)
    s = series_of_rational(poly(1), poly("-1/2", 1), 3)
    assert s == TruncatedSeries([1, gr("1/2"), gr("1/4"), gr("1/8")])
    # 1/x
    assert series_of_rational(poly(1), poly(0, 1), 2) == TruncatedSeries([1, 0, 0])
    # differentiated geometric: 1/(x-1)^2 = sum n x^{-n-1}
    assert series_of_rational(poly(1), poly(1, -2, 1), 3) == TruncatedSeries(
        [0, 1, 2, 3]
    )


def test_series_reads_scalars_off_its_integers():
    s = TruncatedSeries([0, gr(0, "1/2"), gr("1/3", 1)])
    assert s.numerators() == ([0, 0, 2], [0, 3, 6], 6)
    assert s.first_nonzero() == 1
    assert TruncatedSeries([0, 0]).first_nonzero() is None
    assert s[-1] == gr("1/3", 1)
    assert list(s) == list(s.coeffs) == [0, gr(0, "1/2"), gr("1/3", 1)]
    assert s.to_json() == ["0/1+0/1i", "0/1+1/2i", "1/3+1/1i"]


def test_series_truncate_bounds():
    s = TruncatedSeries([1, 2, 3, 4, 5])
    assert s.truncate(0) == TruncatedSeries([1])
    assert s.truncate(4) == s
    with pytest.raises(ValueError, match="cannot extend"):
        s.truncate(5)
    for n in (-1, -3):
        with pytest.raises(ValueError, match=f"n = {n}"):
            s.truncate(n)


def test_series_requires_proper_fraction():
    with pytest.raises(ValueError):
        series_of_rational(poly(0, 1), poly(1, 1), 3)
    with pytest.raises(ValueError):
        series_of_rational(poly(1), DensePolynomial.zero(), 3)


def test_series_rejects_negative_order():
    for N in (-1, -3):
        with pytest.raises(ValueError, match=f"N = {N}"):
            series_of_rational(poly(1), poly(0, 1), N)
        # the empty principal part has a constant denominator
        with pytest.raises(ValueError, match=f"N = {N}"):
            PrincipalParts().series(N)


def test_series_defining_relation(rng):
    # independent check: R(x) = S(x) * sum c_n x^{-n-1} up to the tail
    for _ in range(30):
        S = random_poly(rng, 4)
        if S.degree < 1:
            continue
        R = random_poly(rng, S.degree - 1)
        c = series_of_rational(R, S, 12)
        m = S.degree
        for j in range(m):
            acc = gr(0)
            for n in range(12 + 1):
                if 0 <= j + n + 1 <= m:
                    acc = acc + S.coefficient(j + n + 1) * c[n]
            assert acc == R.coefficient(j)


@st.composite
def proper_fractions(draw):
    """R/S with S of any degree, leading coefficient and denominators, and
    R zero or of any degree below deg S, deg S - 1 included."""
    S = DensePolynomial(
        draw(st.lists(_scalars, max_size=6)) + [draw(_scalars.filter(bool))]
    )
    deg_r = draw(st.integers(-1, S.degree - 1))
    if deg_r < 0:
        return DensePolynomial.zero(), S
    low = draw(st.lists(_scalars, min_size=deg_r, max_size=deg_r))
    return DensePolynomial(low + [draw(_scalars.filter(bool))]), S


@given(RS=proper_fractions(), N=st.integers(0, 15))
@example(RS=(DensePolynomial.zero(), poly(1, gr(2, 3))), N=6)
@example(RS=(poly(1, 2), poly(gr("1/2", 1), 0, gr("-2/3", "1/5"))), N=0)
def test_series_matches_scalar_oracle(RS, N):
    R, S = RS
    assert series_of_rational(R, S, N) == oracles.series_of_rational(R, S, N)


# ------------------------------------------------------- partial fractions


def test_partial_fractions_examples():
    P = fp(0, 1)
    one = poly(1)
    parts = partial_fractions(one, P)
    assert parts.coefficient(gr(0), 1) == gr(-1)
    assert parts.coefficient(gr(1), 1) == gr(1)
    # residue-oracle case: R = -x-1 over x(x-1)
    parts2 = partial_fractions(poly(-1, -1), P)
    assert parts2.coefficient(gr(0), 1) == gr(1)
    assert parts2.coefficient(gr(1), 1) == gr(-2)
    # already a principal part: 1/x^2
    parts3 = partial_fractions(one, fp((0, 2)))
    assert parts3.entries[gr(0)] == (gr(0), gr(1))


def test_partial_fractions_simple_pole_residue_oracle(rng):
    # at a simple root a, the coefficient is R(a) / prod_{b != a} (a-b)^{m_b}
    P = fp(0, 2, gr("7/2"))
    for _ in range(25):
        R = random_poly(rng, P.degree - 1)
        parts = partial_fractions(R, P)
        for a, _ in P.roots:
            expected = oracles.evaluate(R, a) / oracles.evaluate(_quotient(P, a, 1), a)
            assert parts.coefficient(a, 1) == expected


def test_partial_fractions_recombine(rng):
    for P in (fp(0, 1), fp((0, 2), (1, 2)), fp((gr("1/3"), 1), (gr(0, 1), 2))):
        for _ in range(20):
            R = random_poly(rng, P.degree - 1)
            parts = partial_fractions(R, P)
            num, den = parts.to_rational()
            # num/den == R/P exactly, cleared of denominators
            assert num * P.expand() == R * den


@st.composite
def factored_with_numerator(draw):
    """P with up to four roots, complex ones and pairs an integer apart
    among them, of multiplicities 1..4, and R with deg R < deg P."""
    roots = draw(st.lists(_scalars, min_size=1, max_size=2, unique=True))
    for a in list(roots):
        if draw(st.booleans()):
            b = a + draw(st.integers(-3, 3).filter(bool))
            if b not in roots:
                roots.append(b)
    P = FactoredPolynomial((a, draw(st.integers(1, 4))) for a in roots)
    R = DensePolynomial(draw(st.lists(_scalars, max_size=P.degree)))
    return R, P


@given(RP=factored_with_numerator())
@example(RP=(poly(1, 0, 0, 0, 1), fp((0, 4), (1, 1))))
@example(RP=(poly(gr(1, 1), 2), fp((gr(0, 1), 2), (gr(2, 1), 1))))
def test_partial_fractions_matches_shift_oracle(RP):
    R, P = RP
    assert partial_fractions(R, P) == PrincipalParts(oracles.partial_fractions(R, P))


@given(RP=factored_with_numerator())
@example(RP=(poly(1, 0, 0, 0, 1), fp((0, 4), (1, 1))))
@example(RP=(poly(gr(1, 1), 2), fp((gr(0, 1), 2), (gr(2, 1), 1))))
# R shares the factor x with P, so the pole at 0 has order 1 < mult 2
@example(RP=(poly(0, 3, 1), fp((0, 2), (1, 1))))
def test_recombination_matches_oracles(RP):
    R, P = RP
    parts = partial_fractions(R, P)
    Q = q_from_principal_parts(P, parts)
    assert Q == R
    assert Q == oracles.q_from_principal_parts(P, parts)
    assert parts.to_rational() == oracles.to_rational(parts)


@st.composite
def quotient_groups(draw):
    """P and groups of (a, k, c) terms over its roots: orders mixed, in any
    order and falling, zero coefficients, and roots read again in later
    groups."""
    _, P = draw(factored_with_numerator())
    term = st.sampled_from(P.roots).flatmap(
        lambda am: st.tuples(
            st.just(am[0]), st.integers(1, am[1]), st.just(gr(0)) | _scalars
        )
    )
    groups = st.lists(st.lists(term, min_size=1, max_size=6), min_size=1, max_size=5)
    return P, draw(groups)


@given(case=quotient_groups())
# a root at orders 3, 1, 2 in one group, a zero term, and both roots again
# later, where k falls (2 after 3) and rises past a let-go chain
@example(case=(fp((0, 3), (1, 2)), [
    [(gr(0), 3, gr(2)), (gr(0), 1, gr(-1)), (gr(1), 2, gr(0)), (gr(0), 2, gr(1, 1))],
    [(gr(1), 2, gr("1/3")), (gr(0), 2, gr(5))],
    [(gr(1), 1, gr(1)), (gr(0), 3, gr(-2)), (gr(1), 2, gr(7))],
]))
def test_kept_quotient_chains_match_recombination(case):
    # each group's sum of c P/(x - a)^k, with every root's quotients kept
    # across the terms and groups, against one product of root factors per
    # term
    P, groups = case
    index = {a: i for i, (a, _) in enumerate(P.roots)}
    cleared = []
    for terms in groups:
        re, im, E = _clear_denominators(c for *_, c in terms)
        cleared.append(
            ([(index[a], k, x, y) for (a, k, _), x, y in zip(terms, re, im)], E)
        )
    for terms, q in zip(groups, _q_sums(P, cleared), strict=True):
        parts = [(a, [0] * (k - 1) + [c]) for a, k, c in terms]
        assert q == oracles.q_from_principal_parts(P, parts)


def test_chains_at_their_multiplicity_are_let_go():
    # a sum over simple poles holds one chain at a time, not one per root:
    # its peak memory does not grow with the number of poles
    P = fp(*range(200))
    P.expand()

    def peak(n: int) -> int:
        parts = PrincipalParts({a: [1] for a in range(n)})
        tracemalloc.start()
        try:
            q_from_principal_parts(P, parts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200) < 2 * peak(20)


def test_recombination_needs_each_pole_to_divide():
    P = fp((0, 2), 1)
    assert q_from_principal_parts(P, PrincipalParts()) == poly()
    assert q_from_principal_parts(P, PrincipalParts({0: [0, 1]})) == poly(-1, 1)
    # the message names the first order that is both nonzero and too high
    cases = (
        ({0: [1, 0, 0, 2]}, "(x - 0/1+0/1i)^4 does not divide"),
        ({1: [1, 0, 2]}, "(x - 1/1+0/1i)^3 does not divide"),
        ({5: [0, 3]}, "(x - 5/1+0/1i)^2 does not divide"),
        ({0: [1], gr(0, 1): [1]}, "(x - 0/1+1/1i)^1 does not divide"),
    )
    for entries, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            q_from_principal_parts(P, PrincipalParts(entries))
    with pytest.raises(ValueError, match="does not divide"):
        q_from_principal_parts(fp(), PrincipalParts({0: [1]}))


@st.composite
def factored_polys(draw):
    """P with up to four Gaussian-rational roots of multiplicities 1..3."""
    roots = draw(st.lists(_scalars, max_size=4, unique=True))
    return FactoredPolynomial((a, draw(st.integers(1, 3))) for a in roots)


@given(P=factored_polys())
@example(P=fp((gr("1/2", "-1/3"), 3), (gr(2, 1), 1), (gr("-3/4"), 2)))
def test_root_products_match_repeated_multiplication(P):
    assert P.expand() == oracles.root_product(P.roots)
    for a, m in P.roots:
        for k in range(1, m + 1):
            assert _quotient(P, a, k) == oracles.root_product(
                (b, e - k if b == a else e) for b, e in P.roots
            )
    parts = PrincipalParts({a: [1] * m for a, m in P.roots})
    assert parts.to_rational()[1] == oracles.root_product(P.roots)


@given(
    factors=st.lists(
        st.tuples(_scalars, st.integers(1, 4)), max_size=4, unique_by=lambda f: f[0]
    ),
    size=st.integers(1, 18),
)
@example(factors=[], size=1)
@example(factors=[(gr("1/2", "-1/3"), 4), (gr("-3/4"), 2)], size=3)
def test_truncated_root_products_match_oracle(factors, size):
    # the s slots kept of a degree-d product sit over D^(d + 1 - s); without
    # that factor a truncation is wrong whenever the roots have a denominator
    full = oracles.root_product(factors)
    unshifted = _clear_denominators([gr(0)])
    P = FactoredPolynomial(factors)
    assert _shifted_product(P, unshifted) == full
    assert _shifted_product(P, unshifted, size) == DensePolynomial(full.coeffs[:size])


# integer, Gaussian and half-integer shifts, the last as the ladders of the
# algebra take them
_product_shifts = st.lists(
    _shifts.map(_as_scalar)
    | st.integers(-4, 4).map(lambda s: GaussianRational(Fraction(2 * s + 1, 2))),
    max_size=3,
)


@given(P=factored_polys(), shifts=_product_shifts)
@example(P=fp(), shifts=[])
@example(P=fp(), shifts=[gr("1/2"), gr("-3/2")])
@example(P=fp(0, 1), shifts=[])
@example(P=fp(gr("1/2"), (gr("-3/2"), 2)), shifts=[gr("1/2"), gr("-5/2")])
@example(
    P=fp((gr("1/2", "-1/3"), 2), (gr(2, 1), 1)),
    shifts=[gr("3/4", "-5/6"), gr(0, "1/11"), gr("-1/2")],
)
def test_shifted_products_match_shift_oracle(P, shifts):
    # prod_h P(x + h), whole and cut to each size, against P shifted by
    # Horner's rule and multiplied out one factor at a time; half-integer
    # roots under half-integer shifts leave integer roots, whose product
    # must come out over denominator 1
    full = DensePolynomial.one()
    for h in shifts:
        full = full * oracles.shift(oracles.root_product(P.roots), h)
    cleared = _clear_denominators(shifts)
    assert _shifted_product(P, cleared) == full
    for size in range(1, full.degree + 2):
        assert _shifted_product(P, cleared, size) == DensePolynomial(full.coeffs[:size])


def test_partial_fractions_degree_guard():
    with pytest.raises(ValueError):
        partial_fractions(poly(0, 0, 1), fp(0, 1))
    with pytest.raises(ValueError):
        partial_fractions(poly(1), fp())


def test_series_round_trip_with_partial_fractions(rng):
    # series of R/S equals the series of its recombined principal parts
    for _ in range(100):
        P = fp(0, 1, (3, rng.randint(1, 2)))
        R = random_poly(rng, P.degree - 1)
        direct = series_of_rational(R, P.expand(), 30)
        assert partial_fractions(R, P).series(30) == direct


# ------------------------------------------------- the two polynomial forms


@st.composite
def _pade_polys(draw):
    """The S or the R of a Pade approximant of a drawn scalar series."""
    series = TruncatedSeries(draw(st.lists(_scalars, min_size=1, max_size=12)))
    approx = pade_approximant(series, draw(st.integers(0, (series.order + 1) // 2)))
    return draw(st.sampled_from((approx.S, approx.R)))


@st.composite
def _recovered_qs(draw):
    """The Q that q_from_moments recovers from a drawn trace's moments."""
    t = draw(_scalars.filter(bool))
    P = draw(factored_polys().filter(lambda P: P.degree))
    Q = DensePolynomial(draw(st.lists(_scalars, max_size=trace_dim(P, t))))
    N = P.degree - 1 + draw(st.integers(0, 4))
    return q_from_moments(P, t, TraceSpec(P, t, Q).moments(N))


_scalar_lists = st.lists(_scalars, max_size=7)

# every producer of a DensePolynomial: the scalar constructor and from_json,
# which keep scalars, and the integer kernels, which hand over numerators
_POLYS = (
    _scalar_lists.map(DensePolynomial)
    | _scalar_lists.map(lambda cs: DensePolynomial.from_json(map(str, cs)))
    | st.builds(DensePolynomial.shift, _scalar_lists.map(DensePolynomial), _shifts)
    | st.builds(
        _shifted_product,
        factored_polys(),
        _product_shifts.map(_clear_denominators),
        st.none() | st.integers(1, 10),
    )
    | factored_polys().map(FactoredPolynomial.expand)
    | factored_with_numerator().map(
        lambda RP: q_from_principal_parts(RP[1], partial_fractions(*RP))
    )
    | _pade_polys()
    | _recovered_qs()
)


@settings(max_examples=120)
@given(p=_POLYS)
def test_kept_numerators_are_the_cleared_scalars(p):
    # whatever made it, a polynomial holds what its scalars clear to, and
    # the polynomial made from those scalars, or from those integers, also
    # unreduced and with zero pairs on top, compares and hashes equal to it
    re, im, den = p._numerators()
    assert (re, im, den) == _clear_denominators(p.coeffs)
    assert den > 0 and p.degree == len(re) - 1 == len(p.coeffs) - 1
    for twin in (
        DensePolynomial(p.coeffs),
        DensePolynomial._of_numerators(list(re), list(im), den),
        DensePolynomial._of_numerators(
            [6 * x for x in re] + [0, 0], [6 * y for y in im] + [0, 0], 6 * den
        ),
    ):
        assert twin == p and hash(twin) == hash(p)
        assert str(twin) == str(p) and twin.to_json() == p.to_json()


def test_zero_numerators_are_the_zero_polynomial():
    for size in range(4):
        zero = DensePolynomial._of_numerators([0] * size, [0] * size, 6)
        assert zero.degree == -1 and zero.is_zero() and not zero
        assert zero._numerators() == ([], [], 1) and zero.coeffs == ()
        assert zero == DensePolynomial.zero() and str(zero) == "0"
        assert hash(zero) == hash(DensePolynomial.zero())


def test_polynomial_forms_are_read_only():
    p = DensePolynomial._of_numerators([1, 2], [0, 3], 4)
    for name in ("coeffs", "_coeffs", "_num"):
        with pytest.raises(AttributeError):
            setattr(p, name, ())
    assert p.coeffs == (gr("1/4"), gr("1/2", "3/4"))


# ----------------------------------------------------------------- cosets


def test_coset_key_examples():
    assert coset_key(gr("3/2")) == (Fraction(0), Fraction(1, 2))
    assert coset_key(gr("-1/2")) == (Fraction(0), Fraction(1, 2))
    assert coset_key(gr("1/3", 1)) == (Fraction(1), Fraction(1, 3))


def test_coset_key_integer_difference_law(rng):
    for _ in range(100):
        a = random_scalar(rng)
        b = random_scalar(rng)
        same = coset_key(a) == coset_key(b)
        diff = a - b
        assert same == (diff.im == 0 and diff.re.denominator == 1)


# ----------------------------------------------------------------- parser


def test_parse_factored_grammar():
    assert parse_factored("x*(x-1)") == fp(0, 1)
    assert parse_factored("x(x-1)") == fp(0, 1)
    assert parse_factored("x^2(x-1)^2") == fp((0, 2), (1, 2))
    assert parse_factored("(x+1/2)^2(x-3/2)^2") == fp((gr("-1/2"), 2), (gr("3/2"), 2))
    assert parse_factored("x(x-1/3)") == fp(0, gr("1/3"))
    assert parse_factored("(x-1/2i)") == fp(gr(0, Fraction(1, 2)))
    with pytest.raises(ValueError):
        parse_factored("x + 1")
    with pytest.raises(ValueError):
        parse_factored("(y-1)")
    # repeated factors merge, in any order, into the constructor's sorted form
    assert parse_factored("(x-1)x(x-1)^2x^0") == fp((0, 1), (1, 3))
    assert parse_factored("(x-1)x").roots == fp(1, 0).roots
    # a root whose exponents sum to 0 is refused, as the constructor does
    for text in ("x^0", "x(x-1)^0", "(x-1)^0(x-2)"):
        with pytest.raises(ValueError, match="multiplicities must be >= 1"):
            parse_factored(text)
