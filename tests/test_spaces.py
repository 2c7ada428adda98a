"""Reduced echelon bases of polynomial spaces."""

from fractions import Fraction

import pytest

from okv.errors import ResourceCapError, ValidationError
from okv.fields import QQ
from okv import spaces
from okv.polynomials import Polynomial, parse_polynomial
from okv.semigroups import build_gamma
from okv.spaces import contains, is_subspace, product_space, reduce_to_basis


def P(text, variables=("x", "y")):
    return parse_polynomial(text, variables, QQ)


def basis_dicts(space):
    return [dict(p.terms) for p in space.basis]


def brute_rank(polys):
    """Independent rank oracle: naive elimination over a fixed column list."""
    columns = sorted({e for p in polys for e in dict(p.terms)})
    rows = [[Fraction(dict(p.terms).get(c, 0)) for c in columns] for p in polys]
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
    assert [p.leading_exponent() for p in space.basis] == [(1, 1), (2, 3)]
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
    pivots = [p.leading_exponent() for p in space.basis]
    for p in space.basis:
        for e in dict(p.terms):
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
    products = [p * q for p in counterexample_space.basis for q in counterexample_space.basis]
    assert brute_rank(products) == 10


def test_product_with_constants_is_identity(counterexample_space):
    ones = reduce_to_basis([P("1")])
    prod = product_space(counterexample_space, ones)
    assert prod.basis == counterexample_space.basis


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
    assert contains(counterexample_space, P("y") - P("-x*y^3"))


def test_membership_rejects_other_variables(counterexample_space):
    with pytest.raises(ValidationError, match="variable mismatch in reduction"):
        contains(counterexample_space, P("x", ("x", "z")))


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


def test_product_space_cap_trips_before_any_product(monkeypatch):
    space = reduce_to_basis([P("1 + x"), P("y + x*y")])
    products = []
    multiply = Polynomial.__mul__

    def counting(a, b):
        products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    # 4 terms times 4 terms: 16 candidate terms, checked before any product
    with pytest.raises(ResourceCapError, match="in product space: 16 > 15"):
        product_space(space, space, cap_monomials=15)
    assert products == []
    assert product_space(space, space, cap_monomials=16).dimension == 3
    assert len(products) == 4


def test_int_input_gives_the_monic_basis_of_its_fraction_copy():
    """Int coefficients are rationals: the basis of 2*y + 3*x and 1 is
    y + 3/2*x and 1, as from `Fraction` input, and subduction accepts it."""
    variables = ("x", "y")
    ints = [Polynomial.from_dict(variables, {(0, 1): 2, (1, 0): 3}),
            Polynomial.from_dict(variables, {(0, 0): 1})]
    rationals = [Polynomial.from_dict(variables, {e: Fraction(c) for e, c in p.terms})
                 for p in ints]
    space, expected = reduce_to_basis(ints), reduce_to_basis(rationals)
    assert space == expected
    assert [str(p) for p in space.basis] == ["1", "y + 3/2*x"]
    assert all(p.terms[0][1] == 1 for p in space.basis)
    assert build_gamma(space, 4) == build_gamma(expected, 4)
