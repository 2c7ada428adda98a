"""Flag valuations, valuation images, restricted systems, saturation."""

import pytest

from okv.errors import ValidationError
from okv.polynomials import parse_polynomial
from okv.spaces import contains, product_space, reduce_to_basis
from okv.valuation import (
    nu,
    nu_image,
    nu_prefix_image,
    restricted_system,
    saturation_check,
    saturation_from_values,
)


def P3(text):
    return parse_polynomial(text, ("x", "y", "z"))


def P2(text):
    return parse_polynomial(text, ("x", "y"))


BOTT_SAMELSON_TABLE = [
    ("1", (0, 0, 0)),
    ("x", (1, 0, 0)),
    ("y", (0, 1, 0)),
    ("z", (0, 0, 1)),
    ("x*z", (1, 0, 1)),
    ("y*z", (0, 1, 1)),
    ("x*(x*z + y)", (1, 1, 0)),
    ("y*(x*z + y)", (0, 2, 0)),
]


def test_valuation_table_three_variables():
    for text, expected in BOTT_SAMELSON_TABLE:
        assert nu(P3(text)) == expected


def test_valuation_of_constant():
    assert nu(P2("1")) == (0, 0)


def test_valuation_of_zero_rejected():
    with pytest.raises(ValidationError):
        nu(P2("x - x"))


def test_valuation_witness_combination():
    # x*(y + x*y^3) - x*y expands to x^2*y^3
    witness = P2("x") * P2("y + x*y^3") - P2("x*y")
    assert witness == P2("x^2*y^3")
    assert nu(witness) == (2, 3)


def test_nu_image_counterexample(counterexample_space):
    assert nu_image(counterexample_space) == {
        (0, 0),
        (1, 0),
        (0, 1),
        (1, 1),
    }


def test_nu_image_of_square_gains_one_point(counterexample_space):
    square = product_space(counterexample_space, counterexample_space)
    base = {(0, 0), (1, 0), (0, 1), (1, 1)}
    sums = {tuple(a + b for a, b in zip(u, v)) for u in base for v in base}
    image = nu_image(square)
    assert image == sums | {(2, 3)}
    assert len(image) == 10


def test_nu_image_singleton():
    space = reduce_to_basis([P2("x")])
    assert nu_image(space) == {(1, 0)}


def test_nu_image_zero_space_is_empty_not_error():
    space = reduce_to_basis([], variables=("x", "y"))
    assert nu_image(space) == set()


def test_image_size_equals_dimension(bott_samelson_space):
    cube = product_space(
        product_space(bott_samelson_space, bott_samelson_space), bott_samelson_space
    )
    assert len(nu_image(cube)) == cube.dimension


def test_prefix_image(counterexample_space):
    assert nu_prefix_image(counterexample_space, 1) == {(0,), (1,)}
    assert nu_prefix_image(counterexample_space, 0) == {()}
    assert nu_prefix_image(counterexample_space, 2) == nu_image(counterexample_space)


def test_prefix_image_bott_samelson(bott_samelson_space):
    assert nu_prefix_image(bott_samelson_space, 1) == {(0,), (1,)}


def test_prefix_out_of_range(counterexample_space):
    with pytest.raises(ValidationError):
        nu_prefix_image(counterexample_space, 3)


def test_restricted_system_of_square_contains_cube(counterexample_space):
    square = product_space(counterexample_space, counterexample_space)
    restricted = restricted_system(square, (2,))
    y_cubed = parse_polynomial("y^3", ("y",))
    assert contains(restricted, y_cubed)


def test_restricted_square_of_restriction_misses_cube(counterexample_space):
    v1 = restricted_system(counterexample_space, (1,))
    assert [p.as_dict() for p in v1.basis] == [{(0,): 1}, {(1,): 1}]
    v1sq = product_space(v1, v1)
    assert not contains(v1sq, parse_polynomial("y^3", ("y",)))
    assert contains(v1sq, parse_polynomial("y^2", ("y",)))


def test_restricted_system_empty_orders_is_identity(counterexample_space):
    same = restricted_system(counterexample_space, ())
    assert same.basis == counterexample_space.basis


def test_restricted_system_can_be_zero():
    space = reduce_to_basis([P2("x"), P2("x*y")])
    assert restricted_system(space, (2,)).is_zero


def test_restricted_system_zero_orders_restrict(bott_samelson_space):
    restricted = restricted_system(bott_samelson_space, (0,))
    image = {str(p) for p in restricted.basis}
    assert image == {"1", "y", "z", "y*z", "y^2"}


def test_saturation_from_values():
    gapped = saturation_from_values({0, 1, 3})
    assert not gapped.saturated and gapped.interval == (0, 3)
    full = saturation_from_values({0, 1})
    assert full.saturated and full.interval == (0, 1)
    with pytest.raises(ValidationError):
        saturation_from_values(set())


def test_saturation_of_restricted_system(counterexample_space):
    record = saturation_check(counterexample_space, (1,))
    assert record.saturated
    assert record.values == frozenset({0, 1})


def test_saturation_requires_nonzero_restriction():
    space = reduce_to_basis([P2("x")])
    with pytest.raises(ValidationError):
        saturation_check(space, (2,))
