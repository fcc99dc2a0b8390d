"""Normal forms, grading, and the structure maps of the algebra family."""

import pytest

from kleintrace import (
    AlgebraElement,
    MorphismSpec,
    apply_gt,
    morphism_apply,
    multiply_normal,
)
from kleintrace.selftest import random_element

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
                acc = acc + a.grade_project(i) * b.grade_project(k - i)
            assert acc.component(k) == prod.component(k)


def test_grade_project_examples(rng):
    a = u() + z() * z()
    assert a.grade_project(0).comps == {0: poly(0, 0, 1)}
    assert a.grade_project(1) == u()
    assert (u() * v()).grade_project(0) == u() * v()
    for _ in range(20):
        elt = random_element(rng, P)
        total = AlgebraElement.zero(P)
        for k in elt.windings():
            total = total + elt.grade_project(k)
        assert total == elt
        # ad z acts on the k-component as multiplication by k
        for k in elt.windings():
            part = elt.grade_project(k)
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
