"""Graded semigroups: slices, generators, generation reports, normality."""

import itertools
from fractions import Fraction

import pytest

from okv.errors import ValidationError
from okv.semigroups import (
    build_gamma,
    check_degree_one_generation,
    gamma_from_generators,
    gamma_from_slices,
    hilbert_counts,
    minimal_generators,
    okounkov_body_estimate,
    semigroup_normality_check,
)

ELLIPTIC_GOOD = [(1, (0,)), (1, (1,)), (1, (3,))]


def brute_slices(generators, max_degree):
    """Oracle: enumerate all generator multisets degree by degree."""
    dim = len(generators[0][1])
    slices = [{(0,) * dim}]
    for m in range(1, max_degree + 1):
        acc = set()
        for gm, gu in generators:
            if gm <= m:
                for w in slices[m - gm]:
                    acc.add(tuple(a + b for a, b in zip(w, gu)))
        slices.append(acc)
    return slices


def elliptic_bad_gamma(max_degree):
    slices = [{(0,)}] + [
        {(r,) for r in range(0, 3 * m - 1 + 1)} for m in range(1, max_degree + 1)
    ]
    return gamma_from_slices(slices, 1)


def test_gamma_from_generators_degree_two_slice():
    gamma = gamma_from_generators(ELLIPTIC_GOOD, 2)
    assert gamma.slice(2) == {(0,), (1,), (2,), (3,), (4,), (6,)}
    assert gamma.slice(2) == frozenset(brute_slices(ELLIPTIC_GOOD, 2)[2])


def test_gamma_single_generator_zero_value():
    gamma = gamma_from_generators([(1, (0,))], 3)
    assert [set(s) for s in gamma.slices] == [{(0,)}] * 4


def test_gamma_from_slices_matches_comprehension():
    gamma = elliptic_bad_gamma(4)
    assert gamma.slice(1) == {(0,), (1,), (2,)}
    assert gamma.slice(4) == {(r,) for r in range(12)}


def test_build_gamma_counterexample(counterexample_space):
    gamma = build_gamma(counterexample_space, 2)
    assert hilbert_counts(gamma) == [1, 4, 10]
    assert (2, 3) in gamma.slice(2)


def test_build_gamma_degree_zero(counterexample_space):
    gamma = build_gamma(counterexample_space, 0)
    assert hilbert_counts(gamma) == [1]


def test_build_gamma_bott_samelson_degree_one(bott_samelson_space):
    gamma = build_gamma(bott_samelson_space, 2)
    assert gamma.slice(1) == {
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 0, 1),
        (0, 1, 1),
        (1, 1, 0),
        (0, 2, 0),
    }


def test_minimal_generators_elliptic_good():
    for bound in (2, 4, 6):
        gamma = gamma_from_generators(ELLIPTIC_GOOD, bound)
        assert minimal_generators(gamma) == [(1, (0,)), (1, (1,)), (1, (3,))]


def test_minimal_generators_elliptic_bad_growth():
    gamma = elliptic_bad_gamma(3)
    assert minimal_generators(gamma) == [
        (1, (0,)),
        (1, (1,)),
        (1, (2,)),
        (2, (5,)),
        (3, (8,)),
    ]
    counts = [len(minimal_generators(elliptic_bad_gamma(m))) for m in range(2, 7)]
    assert counts == sorted(counts) and len(set(counts)) == len(counts)


def test_minimal_generators_origin_only():
    gamma = gamma_from_slices([{(0,)}, set(), set()], 1)
    assert minimal_generators(gamma) == []
    assert hilbert_counts(gamma) == [1, 0, 0]


def test_generation_report_inconclusive_without_degrees():
    gamma = gamma_from_slices([{(0,)}], 1)
    assert check_degree_one_generation(gamma).status == "inconclusive"


def test_product_dimension_equality_on_monomial_spaces():
    from okv.polynomials import parse_polynomial
    from okv.spaces import product_space, reduce_to_basis

    a = reduce_to_basis([parse_polynomial(s, ("x", "y")) for s in ("1", "x")])
    b = reduce_to_basis([parse_polynomial(s, ("x", "y")) for s in ("1", "y^3")])
    assert product_space(a, b).dimension == a.dimension * b.dimension


def test_minimal_generators_regenerate_same_semigroup(counterexample_space):
    gamma = build_gamma(counterexample_space, 2)
    gens = minimal_generators(gamma)
    assert [g for g in gens if g[0] == 2] == [(2, (2, 3))]
    regenerated = gamma_from_generators(gens, gamma.max_degree)
    assert regenerated.slices == gamma.slices


def test_degree_one_generation_strict_growth(counterexample_space):
    gamma = build_gamma(counterexample_space, 2)
    report = check_degree_one_generation(gamma)
    assert report.status == "strict-growth"
    assert report.witness == (2, (2, 3))


def test_degree_one_generation_bott_samelson(bott_samelson_space):
    gamma = build_gamma(bott_samelson_space, 3)
    report = check_degree_one_generation(gamma)
    assert report.status == "generated-in-degree-one"
    # oracle: iterated sumsets of the degree-one slice
    s1 = set(gamma.slice(1))
    acc = set(s1)
    for m in (2, 3):
        acc = {tuple(a + b for a, b in zip(u, v)) for u in acc for v in s1}
        assert acc == set(gamma.slice(m))


def test_degree_one_generation_trivial_bound():
    gamma = gamma_from_generators(ELLIPTIC_GOOD, 1)
    assert check_degree_one_generation(gamma).status == "generated-in-degree-one"


def test_hilbert_counts_elliptic_good():
    gamma = gamma_from_generators(ELLIPTIC_GOOD, 4)
    assert hilbert_counts(gamma) == [1, 3, 6, 9, 12]


def test_okounkov_body_elliptic_good():
    gamma = gamma_from_generators(ELLIPTIC_GOOD, 3)
    body = okounkov_body_estimate(gamma)
    assert body.vertices == ((0,), (3,))


def test_okounkov_body_counterexample(counterexample_space):
    gamma = build_gamma(counterexample_space, 2)
    body = okounkov_body_estimate(gamma)
    assert set(body.vertices) == {(0, 0), (1, 0), (0, 1), (1, Fraction(3, 2))}


def test_okounkov_body_singleton():
    gamma = gamma_from_generators([(1, (2, 5))], 2)
    body = okounkov_body_estimate(gamma)
    assert body.vertices == ((2, 5),)
    assert body.affine_dim == 0


def test_normality_elliptic_good_missing_two():
    gamma = gamma_from_generators(ELLIPTIC_GOOD, 1)
    record = semigroup_normality_check(gamma)
    assert not record.normal
    assert record.missing == frozenset({(2,)})


def test_normality_bott_samelson(bott_samelson_space):
    record = semigroup_normality_check(build_gamma(bott_samelson_space, 3))
    assert record.normal
    assert record.lattice_count == 64
    assert record.dilation == 3


def test_normality_square_from_own_lattice_points():
    corners = [(1, u) for u in itertools.product((0, 1), repeat=2)]
    gamma = gamma_from_generators(corners, 2)
    record = semigroup_normality_check(gamma)
    assert record.normal


def test_normality_needs_enough_degrees():
    gamma = gamma_from_generators([(1, (0, 0)), (1, (1, 0)), (1, (0, 1))], 1)
    with pytest.raises(ValidationError):
        semigroup_normality_check(gamma)


def test_slice_bounds_checked():
    gamma = gamma_from_generators(ELLIPTIC_GOOD, 2)
    with pytest.raises(ValidationError):
        gamma.slice(3)
