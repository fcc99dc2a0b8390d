"""Exact linear algebra: the fraction-free forward elimination against the
Fraction row reduction it replaced (kept in ``oracles``)."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleintrace import GaussianRational, linalg

import oracles

from conftest import gr

_parts = st.fractions(min_value=-9, max_value=9, max_denominator=12)
scalars = st.one_of(
    st.just(GaussianRational(0)),
    st.builds(GaussianRational, _parts),
    st.builds(GaussianRational, _parts, _parts),
)


@st.composite
def matrices(draw):
    """Small matrices over Q(i), often with zero, repeated or dependent rows."""
    cols = draw(st.integers(1, 6))
    real = draw(st.booleans())
    entry = st.builds(GaussianRational, _parts) if real else scalars
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "copy", "combination")))
        if kind == "zero" or not rows:
            row = [GaussianRational(0)] * cols
        elif kind == "copy":
            row = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(entry)
            row = [x + c * y for x, y in zip(a, b)]
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


@given(matrices())
def test_rank_matches_fraction_rref(rows):
    assert linalg.rank(rows) == oracles.rank(rows)


@pytest.mark.parametrize("cols", [0, 1, 4])
def test_empty_system(cols):
    # no rows, and rows without a pivot of each width
    assert linalg.rank([]) == 0
    assert linalg.rank([[gr(0)] * cols] * 3) == 0


_big = st.fractions(min_value=-(3**40), max_value=3**40, max_denominator=7**25)


@given(
    st.lists(
        st.lists(st.builds(GaussianRational, _big, _big), min_size=4, max_size=4),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.builds(GaussianRational, _parts, _parts), min_size=2, max_size=2),
)
def test_rank_of_big_gaussian_entries(rows, weights):
    # a combination of the first and last rows, with Gaussian weights, keeps
    # the rank; the forward elimination divides exactly all the way down
    extra = [weights[0] * x + weights[1] * y for x, y in zip(rows[0], rows[-1])]
    assert linalg.rank(rows + [extra]) == oracles.rank(rows + [extra])


def test_rank_of_large_gaussian_entries():
    # entries with big numerators and denominators and non-real pivots
    big = Fraction(3**40, 7**25)
    rows = [
        [gr(big, 1), gr(2, -big), gr(0, 5)],
        [gr(1, big), gr(-big, 2), gr(5)],
        [gr(big + 1, 1 + big), gr(2 - big, 2 - big), gr(5, 5)],
    ]
    assert linalg.rank(rows) == oracles.rank(rows) == 2


def test_inexact_division_raises():
    with pytest.raises(ArithmeticError):
        linalg._exact_quotients([6, 7], 3)
    assert linalg._exact_quotients([6, -9], 3) == [2, -3]

