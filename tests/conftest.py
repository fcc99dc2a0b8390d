"""Shared builders for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from kleintrace import DensePolynomial, FactoredPolynomial, GaussianRational

# property tests draw the same examples on every run and never time out, so
# the suite stays deterministic on a host whose speed varies
settings.register_profile(
    "kleintrace", derandomize=True, deadline=None, max_examples=60
)
settings.load_profile("kleintrace")


def gr(re, im=0) -> GaussianRational:
    """Scalar shorthand: gr(1,2) = 1 + 2i, gr('3/2') = 3/2."""
    if isinstance(re, str):
        base = GaussianRational.from_string(re)
        return base if not im else base + GaussianRational(0, im)
    return GaussianRational(Fraction(re), Fraction(im))


def poly(*coeffs) -> DensePolynomial:
    """Ascending-coefficient polynomial from ints/Fractions/strings."""
    return DensePolynomial(
        GaussianRational.from_string(c) if isinstance(c, str) else c
        for c in coeffs
    )


def fp(*roots) -> FactoredPolynomial:
    """Factored polynomial from (root, mult) pairs or bare roots."""
    pairs = []
    for item in roots:
        if isinstance(item, tuple):
            pairs.append(item)
        else:
            pairs.append((item, 1))
    return FactoredPolynomial(pairs)


@pytest.fixture
def rng() -> random.Random:
    return random.Random("kleintrace-tests")
