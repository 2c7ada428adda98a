"""Shared fixtures: the recurring worked-example section systems."""

import pytest

from okv.polynomials import parse_polynomial
from okv.spaces import reduce_to_basis

COUNTEREXAMPLE_SECTIONS = ("1", "x", "y + x*y^3", "x*y")

BOTT_SAMELSON_SECTIONS = (
    "1",
    "x",
    "y",
    "z",
    "x*z",
    "y*z",
    "x^2*z + x*y",
    "x*y*z + y^2",
)


def space_from(strings, variables):
    polys = [parse_polynomial(s, variables) for s in strings]
    return reduce_to_basis(polys, variables=tuple(variables))


@pytest.fixture
def counterexample_space():
    return space_from(COUNTEREXAMPLE_SECTIONS, ("x", "y"))


@pytest.fixture
def bott_samelson_space():
    return space_from(BOTT_SAMELSON_SECTIONS, ("x", "y", "z"))
