"""Normal forms, grading, and the structure maps of the algebra family."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kleintrace import (
    AlgebraElement,
    DensePolynomial,
    FactoredPolynomial,
    GaussianRational,
    MorphismSpec,
    apply_gt,
    morphism_apply,
    multiply_normal,
)
from kleintrace.algebra import _winding_reduction
from kleintrace.catalog import CATALOG_P
from kleintrace.selftest import random_element

import oracles

from conftest import fp, gr, poly

P = fp(0, 1)  # x(x-1)


def u(amb=P):
    return AlgebraElement.u(amb)


def v(amb=P):
    return AlgebraElement.v(amb)


def z(amb=P):
    return AlgebraElement.z(amb)


# -------------------------------------------------------------- relations


def test_defining_relations():
    # uv = P(z - 1/2) = z^2 - 2z + 3/4
    assert (u() * v()).comps == {0: poly("3/4", -2, 1)}
    # vu = P(z + 1/2) = z^2 - 1/4
    assert (v() * u()).comps == {0: poly("-1/4", 0, 1)}
    # zu = u(z+1), forced by associativity
    assert (z() * u()).comps == {1: poly(1, 1)}
    # zv = v(z-1)
    assert (z() * v()).comps == {-1: poly(-1, 1)}


def test_commutators_match_grading():
    for k, gen in ((1, u()), (-1, v())):
        ad = z() * gen - gen * z()
        assert ad == gen.scale(k)


def test_mixed_winding_powers():
    # u^2 v = u P(z - 1/2); v u^2 = u P(z + 3/2)
    lhs = u() * u() * v()
    assert lhs.windings() == [1]
    assert lhs.component(1) == poly("3/4", -2, 1)
    rhs = v() * u() * u()
    assert rhs.windings() == [1]
    assert rhs.component(1) == P.expand().shift(gr("3/2"))


def _ladder(P, j, k):
    """w_j w_k in normal form, one cancelled pair at a time:
    u^j v^b = u^(j-1) v^(b-1) P(z - b + 1/2) and
    v^a u^b = v^(a-1) u^(b-1) P(z + b - 1/2), each P shifted by the oracle."""
    if j == 0 or k == 0 or (j > 0) == (k > 0):
        return j + k, DensePolynomial.one()
    half = GaussianRational(Fraction(1, 2))
    if j > 0:
        w, factor = _ladder(P, j - 1, k + 1)
        return w, factor * oracles.shift(P.expand(), half + k)
    w, factor = _ladder(P, j + 1, k - 1)
    return w, factor * oracles.shift(P.expand(), k - half)


def _check_ladders(P):
    for j in range(-4, 5):
        for k in range(-4, 5):
            assert _winding_reduction(P, j, k) == _ladder(P, j, k), (P, j, k)


@pytest.mark.parametrize("name", [name for name, _ in CATALOG_P])
def test_winding_reduction_matches_oracle_on_catalog(name):
    _check_ladders(dict(CATALOG_P)[name])


_part = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def ladder_polys(draw):
    """P with one to three Gaussian-rational roots of multiplicity 1..3,
    some of them an integer apart, so that shifted roots coincide."""
    roots = [GaussianRational(draw(_part), draw(_part | st.just(Fraction(0))))]
    if draw(st.booleans()):
        roots.append(roots[0] + draw(st.integers(1, 3)))
    if draw(st.booleans()):
        other = GaussianRational(draw(_part), draw(_part))
        if other not in roots:
            roots.append(other)
    return FactoredPolynomial((a, draw(st.integers(1, 3))) for a in roots)


@settings(max_examples=15)
@given(P=ladder_polys())
@example(P=fp((gr("1/2", "-1/3"), 2), (gr("3/2", "-1/3"), 1)))
@example(P=fp())
def test_winding_reduction_matches_oracle(P):
    _check_ladders(P)


@st.composite
def elements(draw, P):
    """An element over P with windings in -4..4 and components of degree
    at most 2."""
    windings = draw(st.sets(st.integers(-4, 4), max_size=4))
    coeffs = st.lists(st.builds(GaussianRational, _part, _part), min_size=1, max_size=3)
    return AlgebraElement(P, {k: DensePolynomial(draw(coeffs)) for k in windings})


@st.composite
def odd_or_even_polys(draw):
    """``ladder_polys``, with deg P odd or even as drawn."""
    P = draw(ladder_polys())
    if P.degree % 2 != draw(st.integers(0, 1)):
        (a, m), *rest = P.roots
        P = FactoredPolynomial([(a, m + 1), *rest])
    return P


@settings(max_examples=30)
@given(P=odd_or_even_polys(), data=st.data())
def test_products_match_laurent_oracle(P, data):
    a, b = data.draw(elements(P)), data.draw(elements(P))
    assert oracles.laurent_image(P, (a * b).comps) == oracles.multiply_normal(
        P, a.comps, b.comps
    )


@pytest.mark.parametrize("kind", ["gt", "negate", "shift", "pullback"])
@settings(max_examples=25)
@given(P=odd_or_even_polys(), data=st.data())
def test_structure_maps_match_substitution_oracle(kind, P, data):
    scalar = st.builds(GaussianRational, _part, _part)
    if kind == "gt":
        m = MorphismSpec.gt(data.draw(scalar.filter(bool)))
    elif kind == "negate":
        m = MorphismSpec.negate()
    elif kind == "shift":
        m = MorphismSpec.shift(data.draw(scalar))
    else:
        # P = P1 Q1 Q2, with Q1 and Q2 among the roots of P
        q1, q2 = (
            FactoredPolynomial(data.draw(st.lists(st.sampled_from(P.roots), unique=True)))
            for _ in range(2)
        )
        P = P * q1 * q2
        m = MorphismSpec.pullback(q1, q2)
    a = data.draw(elements(P))
    image = morphism_apply(m, a)
    target, expected = oracles.morphism_apply(m, P, a.comps)
    assert image.P == target
    assert oracles.laurent_image(target, image.comps) == expected


def test_ambient_mismatch_rejected():
    other = fp(0, 2)
    with pytest.raises(ValueError):
        multiply_normal(u(), u(other))


def test_associativity_300_random_triples(rng):
    for _ in range(300):
        a = random_element(rng, P, max_wind=2, max_deg=2)
        b = random_element(rng, P, max_wind=2, max_deg=2)
        c = random_element(rng, P, max_wind=1, max_deg=1)
        assert (a * b) * c == a * (b * c)


def test_grading_is_additive(rng):
    for _ in range(50):
        a = random_element(rng, P)
        b = random_element(rng, P)
        prod = a * b
        for k in prod.windings():
            acc = AlgebraElement.zero(P)
            for i in a.windings():
                acc = acc + oracles.grade_project(a, i) * oracles.grade_project(b, k - i)
            assert acc.component(k) == prod.component(k)


def test_powers_match_repeated_multiplication(rng):
    for amb in (P, fp((gr("1/2"), 2), (gr(0, 1), 1))):
        for _ in range(5):
            a = random_element(rng, amb, max_wind=1, max_deg=1)
            expected = AlgebraElement.one(amb)
            for n in range(7):
                assert a**n == expected, n
                expected = expected * a
            with pytest.raises(ValueError):
                a ** -1


def test_grade_project_examples(rng):
    a = u() + z() * z()
    assert oracles.grade_project(a, 0).comps == {0: poly(0, 0, 1)}
    assert oracles.grade_project(a, 1) == u()
    assert oracles.grade_project(u() * v(), 0) == u() * v()
    for _ in range(20):
        elt = random_element(rng, P)
        total = AlgebraElement.zero(P)
        for k in elt.windings():
            total = total + oracles.grade_project(elt, k)
        assert total == elt
        # ad z acts on the k-component as multiplication by k
        for k in elt.windings():
            part = oracles.grade_project(elt, k)
            assert z() * part - part * z() == part.scale(k)


# -------------------------------------------------------------- morphisms


def test_gt_examples_and_automorphism(rng):
    t = gr(2)
    assert apply_gt(u(), t) == u().scale(gr("1/2"))
    assert apply_gt(v(), t) == v().scale(2)
    assert apply_gt(z(), t) == z()
    for _ in range(200):
        a = random_element(rng, P)
        b = random_element(rng, P)
        assert apply_gt(a * b, t) == apply_gt(a, t) * apply_gt(b, t)
        assert apply_gt(apply_gt(a, t), gr(1) / t) == a


def test_gt_rejects_zero():
    with pytest.raises(ValueError):
        MorphismSpec.gt(0)


def test_negate_examples():
    neg = MorphismSpec.negate()
    assert morphism_apply(neg, z()) .comps == {0: poly(0, -1)}
    target = neg.target(P)
    assert target == fp(0, -1)
    # homomorphism property: image of uv equals product of images
    img_u = morphism_apply(neg, u())
    img_v = morphism_apply(neg, v())
    assert morphism_apply(neg, u() * v()) == img_u * img_v


def test_negate_intertwines_scalings(rng):
    neg = MorphismSpec.negate()
    for t in (gr(2), gr(0, 1), gr("1/3")):
        for _ in range(30):
            a = random_element(rng, P)
            lhs = morphism_apply(neg, apply_gt(a, t))
            rhs = apply_gt(morphism_apply(neg, a), gr(1) / t)
            assert lhs == rhs


def test_shift_moves_defining_polynomial():
    sh = MorphismSpec.shift(gr(1))
    assert sh.target(P) == fp(-1, 0)
    # relation check in the target: images satisfy uv = P_target(z - 1/2)
    img_u = morphism_apply(sh, u())
    img_v = morphism_apply(sh, v())
    prod = img_u * img_v
    assert prod.component(0) == sh.target(P).expand().shift(gr("-1/2"))


def test_shift_composes_to_identity(rng):
    sh = MorphismSpec.shift(gr("1/2"))
    back = MorphismSpec.shift(gr("-1/2"))
    for _ in range(20):
        a = random_element(rng, P)
        assert morphism_apply(back, morphism_apply(sh, a)) == a


def test_pullback_example():
    # from the algebra of x(x-1) to the algebra of (x-1): u -> (z-1/2) u
    big = fp(0, 1)
    pb = MorphismSpec.pullback(fp(0), fp())
    assert pb.target(big) == fp(1)
    img = morphism_apply(pb, u(big))
    # normal form of (z - 1/2) u is u (z + 1/2)
    assert img.comps == {1: poly("1/2", 1)}
    assert morphism_apply(pb, z(big)) == z(fp(1))


def test_pullback_is_homomorphism(rng):
    big = fp((0, 2), (1, 1))
    pb = MorphismSpec.pullback(fp(0), fp())
    for _ in range(60):
        a = random_element(rng, big, max_wind=2, max_deg=2)
        b = random_element(rng, big, max_wind=2, max_deg=2)
        lhs = morphism_apply(pb, a * b)
        rhs = morphism_apply(pb, a) * morphism_apply(pb, b)
        assert lhs == rhs


def test_pullback_commutes_with_scaling(rng):
    big = fp((0, 2), (1, 1))
    pb = MorphismSpec.pullback(fp(0), fp())
    t = gr(0, 1)
    for _ in range(40):
        a = random_element(rng, big)
        assert morphism_apply(pb, apply_gt(a, t)) == apply_gt(
            morphism_apply(pb, a), t
        )


def test_pullback_divisibility_guard():
    with pytest.raises(ValueError):
        MorphismSpec.pullback(fp(5), fp()).target(P)


def test_json_round_trip(rng):
    for _ in range(10):
        a = random_element(rng, P)
        assert AlgebraElement.from_json(a.to_json()) == a
