"""Reduced echelon bases of polynomial spaces."""

from fractions import Fraction

import pytest

from okv.errors import ResourceCapError, ValidationError
from okv.fields import QQ
from okv import spaces
from okv.polynomials import parse_polynomial
from okv.spaces import contains, is_subspace, product_space, reduce_mod, reduce_to_basis


def P(text, variables=("x", "y")):
    return parse_polynomial(text, variables, QQ)


def basis_dicts(space):
    return [p.as_dict() for p in space.basis]


def brute_rank(polys):
    """Independent rank oracle: naive elimination over a fixed column list."""
    columns = sorted({e for p in polys for e in p.as_dict()})
    rows = [[Fraction(p.as_dict().get(c, 0)) for c in columns] for p in polys]
    rank = 0
    for col in range(len(columns)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_two_row_elimination():
    space = reduce_to_basis([P("x*y"), P("x*y + x^2*y^3")])
    assert space.leading_exponents() == [(1, 1), (2, 3)]
    assert basis_dicts(space) == [{(1, 1): 1}, {(2, 3): 1}]


def test_already_reduced_is_kept():
    space = reduce_to_basis([P("1"), P("x")])
    assert basis_dicts(space) == [{(0, 0): 1}, {(1, 0): 1}]


def test_dependent_rows_collapse():
    space = reduce_to_basis([P("x"), P("2*x")])
    assert space.dimension == 1
    assert basis_dicts(space) == [{(1, 0): 1}]


def test_reduction_idempotent(counterexample_space):
    again = reduce_to_basis(counterexample_space.basis)
    assert again.basis == counterexample_space.basis


def test_dimension_matches_rank_oracle(counterexample_space):
    polys = [
        P("x + y"),
        P("x - y"),
        P("2*x"),
        P("x*y + y"),
        P("x*y - y + x"),
    ]
    assert reduce_to_basis(polys).dimension == brute_rank(polys)


def test_full_reduction_pivot_occurs_once():
    space = reduce_to_basis([P("1 + x + y"), P("x + y^2"), P("y + x^2")])
    pivots = space.leading_exponents()
    for p in space.basis:
        for e in p.as_dict():
            if e != p.leading_exponent():
                assert e not in pivots


def test_mixed_variables_rejected():
    with pytest.raises(ValidationError, match="mixed"):
        reduce_to_basis([P("x"), parse_polynomial("z", ("z",))])


def test_empty_input_needs_variables():
    space = reduce_to_basis([], variables=("x", "y"))
    assert space.dimension == 0 and space.is_zero
    with pytest.raises(ValidationError):
        reduce_to_basis([])


def test_product_space_counterexample_dimension(counterexample_space):
    square = product_space(counterexample_space, counterexample_space)
    assert square.dimension == 10
    assert square.grade == 2
    products = [p * q for p in counterexample_space.basis for q in counterexample_space.basis]
    assert brute_rank(products) == 10


def test_product_with_constants_is_identity(counterexample_space):
    ones = reduce_to_basis([P("1")], grade=0)
    prod = product_space(counterexample_space, ones)
    assert prod.basis == counterexample_space.basis
    assert prod.grade == counterexample_space.grade


def test_product_of_monomial_spaces():
    a = reduce_to_basis([P("x")])
    b = reduce_to_basis([P("y")])
    assert basis_dicts(product_space(a, b)) == [{(1, 1): 1}]


def test_product_dimension_bound(counterexample_space):
    square = product_space(counterexample_space, counterexample_space)
    assert square.dimension <= counterexample_space.dimension ** 2


def test_membership_by_reduction(counterexample_space):
    assert contains(counterexample_space, P("x + 3*(y + x*y^3)"))
    assert not contains(counterexample_space, P("y"))
    # reducing y substitutes the pivot y + x*y^3 and leaves -x*y^3
    assert reduce_mod(counterexample_space, P("y")) == P("-x*y^3")


def test_subspace_check(counterexample_space):
    small = reduce_to_basis([P("1"), P("x"), P("x*y")])
    assert is_subspace(small, counterexample_space)
    assert not is_subspace(counterexample_space, small)


def test_subspace_check_builds_one_echelon(counterexample_space, monkeypatch):
    built = []

    class Counting(spaces.Echelon):
        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(spaces, "Echelon", Counting)
    small = reduce_to_basis([P("1"), P("x"), P("x*y")])
    built.clear()
    assert is_subspace(small, counterexample_space)
    assert len(built) == 1
    assert all(contains(counterexample_space, p) for p in small.basis)
    assert len(built) == 1 + small.dimension


def test_monomial_cap_enforced():
    with pytest.raises(ResourceCapError):
        reduce_to_basis([P("1 + x + y + x*y")], cap_monomials=2)
