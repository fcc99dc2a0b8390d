"""Exact linear algebra: the fraction-free elimination against the Fraction
row reduction it replaced (kept in ``oracles``)."""

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
    return rows, cols


@given(matrices())
def test_rank_and_kernel_match_fraction_rref(case):
    rows, cols = case
    assert linalg.rank(rows) == oracles.rank(rows)
    basis = linalg.kernel_basis(rows, cols=cols)
    assert basis == oracles.kernel_basis(rows, cols)
    for vec in basis:
        for row in rows:
            assert sum((a * x for a, x in zip(row, vec)), gr(0)) == 0


@pytest.mark.parametrize("cols", [0, 1, 4])
def test_empty_system(cols):
    assert linalg.rank([]) == 0
    assert linalg.kernel_basis([], cols=cols) == oracles.kernel_basis([], cols)
    with pytest.raises(ValueError):
        linalg.kernel_basis([])


def test_kernel_of_large_gaussian_entries():
    # entries with big numerators and denominators and non-real pivots
    big = Fraction(3**40, 7**25)
    rows = [
        [gr(big, 1), gr(2, -big), gr(0, 5)],
        [gr(1, big), gr(-big, 2), gr(5)],
        [gr(big + 1, 1 + big), gr(2 - big, 2 - big), gr(5, 5)],
    ]
    assert linalg.rank(rows) == oracles.rank(rows) == 2
    assert linalg.kernel_basis(rows) == oracles.kernel_basis(rows, 3)


def test_inexact_division_raises():
    with pytest.raises(ArithmeticError):
        linalg._exact_quotients([6, 7], 3)
    assert linalg._exact_quotients([6, -9], 3) == [2, -3]
