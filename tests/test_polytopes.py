"""Exact hulls, lattice points, faces, and H/V cross-validation."""

import itertools
import random
from fractions import Fraction

import pytest

from okv.errors import ValidationError
from okv.polytopes import (
    convex_hull,
    empty_polytope,
    face_restriction,
    in_convex_hull,
    lattice_points,
    normalized_volume,
    polytope_from_halfspaces,
    polytopes_equal,
)

from oracles import oracle_in_hull

BOTT_SAMELSON_POINTS = [
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 0),
    (0, 2, 0),
]

TRAPEZOID = [(0, 0), (0, 1), (3, 1), (1, 0)]


def test_hull_of_unit_square_is_itself():
    square = convex_hull([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert square.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert square.affine_dim == 2


def test_hull_interval_from_three_values():
    hull = convex_hull([(0,), (1,), (3,)])
    assert hull.vertices == ((0,), (3,))
    assert hull.affine_dim == 1


def test_hull_eight_points_has_seven_vertices():
    hull = convex_hull(BOTT_SAMELSON_POINTS)
    assert len(hull.vertices) == 7
    assert (0, 1, 0) not in hull.vertices
    # oracle: the midpoint is a combination of the others, the rest are not
    for p in BOTT_SAMELSON_POINTS:
        others = [q for q in BOTT_SAMELSON_POINTS if q != p]
        inside = oracle_in_hull(p, others)
        assert inside == (p == (0, 1, 0))


def test_hull_matches_oracle_membership_random_points():
    rng = random.Random(7)
    hull = convex_hull(BOTT_SAMELSON_POINTS)
    for _ in range(60):
        p = tuple(Fraction(rng.randint(-4, 8), 4) for _ in range(3))
        assert hull.contains(p) == oracle_in_hull(p, BOTT_SAMELSON_POINTS)


def test_lower_dimensional_hull_carries_equalities():
    hull = convex_hull([(0, 0, 0), (1, 1, 0), (2, 2, 0)])
    assert hull.affine_dim == 1
    assert hull.vertices == ((0, 0, 0), (2, 2, 0))
    assert not hull.contains((1, Fraction(3, 2), 0))
    assert hull.contains((Fraction(1, 2), Fraction(1, 2), 0))


def test_point_polytope():
    hull = convex_hull([(2, 3)])
    assert hull.affine_dim == 0
    assert hull.vertices == ((2, 3),)
    assert hull.contains((2, 3))
    assert not hull.contains((2, 4))


def test_trapezoid_lattice_points():
    trapezoid = convex_hull(TRAPEZOID)
    pts = lattice_points(trapezoid, 1)
    # rows enumerated by hand: y = 0 gives x in 0..1, y = 1 gives x in 0..3
    assert pts == {(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (3, 1)}
    assert len(pts) == 6
    doubled = lattice_points(trapezoid, 2)
    by_rows = {
        (x, y)
        for y in range(3)
        for x in range(0, 7)
        if x <= 2 + 2 * y  # doubled slanted edge: x - 2 y <= 2
        if x >= 0 and y <= 2
    }
    assert doubled == by_rows
    assert len(doubled) == 15


def test_unit_segment_lattice_points():
    seg = convex_hull([(0,), (1,)])
    assert lattice_points(seg, 1) == {(0,), (1,)}


def test_lattice_points_of_dilated_hull_oracle():
    hull = convex_hull(BOTT_SAMELSON_POINTS)
    box = itertools.product(range(-1, 4), range(-1, 7), range(-1, 4))
    expected = {
        p
        for p in box
        if oracle_in_hull(tuple(Fraction(c, 3) for c in p), BOTT_SAMELSON_POINTS)
    }
    assert lattice_points(hull, 3) == expected
    assert len(expected) == 64


def test_face_restriction_of_hull():
    hull = convex_hull(BOTT_SAMELSON_POINTS)
    face = face_restriction(hull, 1)
    expected = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)])
    assert polytopes_equal(face, expected)
    assert face.vertices == ((0, 0), (0, 1), (1, 1), (2, 0))


def test_face_restriction_identity_and_empty():
    hull = convex_hull([(1,), (3,)])
    assert face_restriction(hull, 0) is hull
    assert face_restriction(hull, 1).is_empty


def test_polytope_from_halfspaces_round_trip():
    trapezoid = convex_hull(TRAPEZOID)
    rebuilt = polytope_from_halfspaces(trapezoid.halfspaces, 2)
    assert polytopes_equal(rebuilt, trapezoid)


def test_empty_polytope_membership():
    empty = empty_polytope(2)
    assert empty.is_empty
    assert not empty.contains((0, 0))
    assert lattice_points(empty, 1) == set()


def test_hull_rejects_empty_and_mixed():
    with pytest.raises(ValidationError):
        convex_hull([])
    with pytest.raises(ValidationError):
        convex_hull([(0, 0), (1,)])


def test_oracle_membership_on_affinely_dependent_points():
    collinear = [(0, 0), (2, 2), (4, 4)]
    assert oracle_in_hull((1, 1), collinear)
    assert oracle_in_hull((4, 4), collinear)
    assert not oracle_in_hull((5, 5), collinear)
    assert not oracle_in_hull((1, 2), collinear)
    planar = [(0, 0, 1), (2, 0, 1), (0, 2, 1), (2, 2, 1), (1, 1, 1)]
    assert oracle_in_hull((1, Fraction(3, 2), 1), planar)
    assert oracle_in_hull((2, 2, 1), planar)
    assert not oracle_in_hull((1, 1, 0), planar)
    assert not oracle_in_hull((3, 0, 1), planar)
    assert oracle_in_hull((0, 0), [(0, 0), (0, 0)])
    assert not oracle_in_hull((0, 0), [])


def test_in_convex_hull_matches_oracle():
    rng = random.Random(3)
    point_sets = (TRAPEZOID, BOTT_SAMELSON_POINTS, [(0, 0), (2, 2), (4, 4)],
                  [(0, 0, 1), (2, 0, 1), (0, 2, 1), (1, 1, 1)], [(1, 2)])
    for points in point_sets:
        dim = len(points[0])
        for _ in range(40):
            p = tuple(Fraction(rng.randint(-2, 8), rng.randint(1, 2)) for _ in range(dim))
            assert in_convex_hull(p, points) == oracle_in_hull(p, points)
        for p in points:
            assert in_convex_hull(p, points)
    assert not in_convex_hull((0, 0), [])
    assert not in_convex_hull((), [])


def test_in_convex_hull_rejects_mismatched_dimensions():
    with pytest.raises(ValidationError):
        in_convex_hull((0,), [(0, 0), (1, 1)])
    with pytest.raises(ValidationError):
        in_convex_hull((0,), [(0, 0), (1,)])
    with pytest.raises(ValidationError):
        in_convex_hull((0, 0, 0), [(0, 0), (1, 1)])


def test_cross_validation_hrep_vrep_random():
    rng = random.Random(11)
    for points in (TRAPEZOID, BOTT_SAMELSON_POINTS):
        hull = convex_hull(points)
        dim = hull.ambient_dim
        for _ in range(200):
            p = tuple(Fraction(rng.randint(-6, 12), rng.randint(1, 4)) for _ in range(dim))
            assert hull.contains(p) == oracle_in_hull(p, points)


def test_four_dimensional_hypercube_with_interior_points():
    corners = list(itertools.product((0, 2), repeat=4))
    extras = [(1, 1, 1, 1), (1, 0, 2, 1), (2, 1, 1, 0)]
    hull = convex_hull(corners + extras)
    assert set(hull.vertices) == set(corners)
    assert hull.affine_dim == 4
    assert len(hull.halfspaces) == 8
    assert hull.contains((1, 1, 1, 1))
    assert not hull.contains((1, 1, 1, Fraction(5, 2)))


def test_planar_points_in_four_dimensional_space():
    plane = [(i, j, i + j, 2 * i) for i in range(3) for j in range(3)]
    hull = convex_hull(plane)
    assert hull.affine_dim == 2
    assert set(hull.vertices) == {
        (0, 0, 0, 0),
        (0, 2, 2, 0),
        (2, 0, 2, 4),
        (2, 2, 4, 4),
    }
    assert hull.contains((1, 1, 2, 2))
    assert not hull.contains((1, 1, 2, 3))


def test_normalized_volume_by_shoelace_and_differences():
    trapezoid = convex_hull(TRAPEZOID)
    # shoelace over (0,0), (1,0), (3,1), (0,1) gives area 2, so 2! * 2 = 4
    assert normalized_volume(trapezoid) == 4
    hull = convex_hull(BOTT_SAMELSON_POINTS)
    assert normalized_volume(hull) == 6
    segment = convex_hull([(0, 0, 0), (2, 2, 0)])
    assert normalized_volume(segment) == 2
    point = convex_hull([(5, 7)])
    assert normalized_volume(point) == 1
    assert normalized_volume(empty_polytope(2)) == 0
    with pytest.raises(ValidationError):
        normalized_volume(convex_hull([(0, 0), (Fraction(1, 2), 0), (0, 1)]))


def test_vertices_tight_on_enough_facets():
    for points in (TRAPEZOID, BOTT_SAMELSON_POINTS):
        hull = convex_hull(points)
        for v in hull.vertices:
            tight = sum(
                1
                for n, c in hull.halfspaces
                if sum(a * b for a, b in zip(n, v)) == c
            )
            assert tight >= hull.affine_dim
