"""Differential checks of the hull path.

The body is built from normalized minimal generators and the hull by one
beneath-beyond pass in ambient coordinates; both are compared here with
slower references: the hull of every normalized slice point, the span-and-lift
hull okv used before (`span_lift_hull`), and the Caratheodory brute-force
oracles of tests/oracles.py for vertices, membership and lattice points.
Point sets of 9-16 points reach the rotation of boundary planes about
horizon ridges on most points, and the calls into elimination are counted:
only the starting simplex and the validation eliminate.  Faces read off the
vertices are compared with the halfspace slice, and the hull's ranks and
kernels (the starting facets and the equality normals), int rows in
`okv.echelon`, with the engine's `Fraction` path through `okv.linalg`; no hull
code calls `okv.linalg`.
"""

import ast
import itertools
import random
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okv import echelon, linalg, polytopes
from okv.echelon import Echelon
from okv.errors import InvariantError, ValidationError
from okv.jobs import load_fixture
from okv.polytopes import (
    RationalPolytope,
    _kernel,
    _rank,
    _scaled,
    _validate,
    convex_hull,
    face_restriction,
    lattice_points,
    polytope_from_halfspaces,
)
from okv.semigroups import (
    build_gamma,
    gamma_from_generators,
    minimal_generators,
    okounkov_body_estimate,
)

from oracles import oracle_in_hull, oracle_lattice_points, span_lift_hull


def all_slices_hull(semigroup):
    points = [
        tuple(Fraction(c, m) for c in u)
        for m in range(1, semigroup.max_degree + 1)
        for u in semigroup.slice(m)
    ]
    return convex_hull(points)


def assert_same_polytope(a, b):
    assert a.vertices == b.vertices
    assert a.halfspaces == b.halfspaces
    assert a.affine_dim == b.affine_dim


@st.composite
def generator_sets(draw):
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(1, 5))
    gens = [
        (draw(st.integers(1, 3)), tuple(draw(st.integers(0, 4)) for _ in range(dim)))
        for _ in range(count)
    ]
    return gens, dim, draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(generator_sets())
def test_body_from_generators_equals_hull_of_all_slices(case):
    gens, dim, max_degree = case
    gamma = gamma_from_generators(gens, max_degree, dim)
    if not any(gamma.slice(m) for m in range(1, max_degree + 1)):
        return
    assert_same_polytope(okounkov_body_estimate(gamma), all_slices_hull(gamma))


@pytest.mark.parametrize(
    "fixture,max_degree",
    [
        ("bott-samelson-u", 2),
        ("bott-samelson-u", 3),
        ("bott-samelson-m", 2),
        ("counterexample-p1xp1", 2),
        ("counterexample-p1xp1", 4),
    ],
)
def test_section_fixture_body_equals_hull_of_all_slices(fixture, max_degree):
    job = load_fixture(fixture, max_degree)
    gamma = build_gamma(job.section_space(), max_degree)
    assert_same_polytope(okounkov_body_estimate(gamma), all_slices_hull(gamma))


def random_point_set(rng, dim):
    """Small integer point sets with duplicates and, often, a flat span."""
    flat = rng.randint(0, dim)
    base = [rng.randint(-2, 2) for _ in range(dim)]
    directions = [[rng.randint(-1, 2) for _ in range(dim)] for _ in range(flat)]
    points = []
    for _ in range(rng.randint(1, 9 - dim)):
        if directions:
            weights = [rng.randint(-2, 2) for _ in directions]
            points.append(tuple(
                b + sum(w * d[i] for w, d in zip(weights, directions))
                for i, b in enumerate(base)
            ))
        else:
            points.append(tuple(rng.randint(0, 2) for _ in range(dim)))
    points += rng.sample(points, rng.randint(0, len(points)))
    return points


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_hull_vertices_and_membership_match_oracles(dim):
    rng = random.Random(100 + dim)
    for _ in range(12):
        points = random_point_set(rng, dim)
        distinct = sorted(set(points))
        hull = convex_hull(points)
        extreme = {
            p for p in distinct if not oracle_in_hull(p, [q for q in distinct if q != p])
        }
        assert set(hull.vertices) == extreme
        for _ in range(6):
            p = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(dim))
            assert hull.contains(p) == oracle_in_hull(p, distinct)
        for p in distinct:
            assert hull.contains(p)


@pytest.mark.parametrize(
    "points",
    [
        [()],
        [(Fraction(1, 2), Fraction(3, 2))],
        [(0, 0, 0), (Fraction(3, 2), Fraction(3, 2), 0)],
        [(0, 0, 1), (Fraction(5, 3), 0, 1), (0, Fraction(4, 3), 1)],
        [(0, 0), (Fraction(5, 2), 1), (1, Fraction(7, 3)), (Fraction(1, 2), 2)],
        [(0,), (Fraction(7, 4),)],
    ],
)
@pytest.mark.parametrize("dilation", [1, 2, 3])
def test_lattice_points_match_oracle(points, dilation):
    hull = convex_hull(points)
    assert lattice_points(hull, dilation) == oracle_lattice_points(points, dilation)


def test_validate_rejects_non_facet_halfspace():
    square = convex_hull([(0, 0), (0, 1), (1, 0), (1, 1)])
    corner_cut = ((1, 1), Fraction(2))  # supporting, but tight on one vertex only
    widened = RationalPolytope(2, square.vertices, square.halfspaces + (corner_cut,), 2)
    with pytest.raises(InvariantError):
        _validate(widened)


def test_validate_rejects_loose_equality():
    segment = convex_hull([(0, 0), (1, 0)])
    assert ((0, 1), 0) in segment.halfspaces and ((0, -1), 0) in segment.halfspaces
    moved = tuple(
        (n, Fraction(n[1])) if n[0] == 0 else (n, c) for n, c in segment.halfspaces
    )  # the pair y <= 0, -y <= 0 becomes y = 1, which no vertex meets
    with pytest.raises(InvariantError):
        _validate(RationalPolytope(2, segment.vertices, moved, 1))


@st.composite
def integer_matrices(draw):
    """(rows, ncols): integer rows of 1-5 columns with negative entries, zero
    rows, repeated rows and multiples, so often rank-deficient."""
    ncols = draw(st.integers(1, 5))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5, 2**70, -(2**70)])
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        if rows and draw(st.booleans()):
            scale = draw(st.sampled_from([1, -1, 2, -7]))
            rows.insert(at, [scale * v for v in rows[draw(st.integers(0, len(rows) - 1))]])
        else:
            rows.insert(at, [0] * ncols)
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_integer_echelon_rank_equals_rational_rank(case):
    rows, ncols = case
    form = Echelon()
    for row in rows:
        form.insert({j: v for j, v in enumerate(row) if v})
    reduced, pivots = linalg.rref(rows, ncols)
    assert _rank(rows) == len(form.rows) == len(reduced)
    assert sorted(form.rows) == pivots
    assert all(type(v) is int for row in form.rows.values() for v in row.values())


def _integer_direction(vector) -> list:
    """The primitive integer vector on the ray of a non-zero rational vector."""
    ints = _scaled(vector, reduce(lcm, (v.denominator for v in vector)))
    g = reduce(gcd, ints)
    return [v // g for v in ints]


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_integer_kernel_basis_equals_rational_nullspace(case):
    """Each integer kernel vector is the primitive form of the rational basis
    vector, which is one on its free column, and the basis is in the same order."""
    rows, d = case
    basis = _kernel(rows, d)
    rational = [_integer_direction(w) for w in linalg.nullspace(rows, d, Fraction(1))]
    assert basis == rational
    assert all(type(v) is int for w in basis for v in w)
    assert all(gcd(*w) == 1 for w in basis)


HULL = {"convex_hull", "_beneath_beyond", "_oriented_plane", "_validate", "_rank", "_kernel",
        "_primitive"}


def test_hull_construction_calls_nothing_in_linalg():
    """The whole hull, from the affine hull and the facet normals to the
    vertex and facet tests, the mapping back and the validation, stays in
    integers: of the module's functions only
    `polytope_from_halfspaces` may use `linalg`."""
    tree = ast.parse(Path(polytopes.__file__).read_text(encoding="utf-8"))
    from_linalg = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.endswith("linalg")
        for alias in node.names
    }
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert HULL <= set(functions)
    for name in sorted(set(functions) - {"polytope_from_halfspaces"}):
        used = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)}
        assert not used & ({"linalg"} | from_linalg), name


@st.composite
def affine_point_sets(draw):
    """Points in a random affine subspace of Q^d: base + rational
    combinations of k integer directions, 0 <= k <= d (often dependent)."""
    dim = draw(st.integers(1, 4))
    flat = draw(st.integers(0, dim))
    small = st.integers(-2, 2)
    base = [Fraction(draw(small), draw(st.integers(1, 2))) for _ in range(dim)]
    directions = [[draw(small) for _ in range(dim)] for _ in range(flat)]
    weights = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    points = []
    for _ in range(draw(st.integers(1, 8))):
        combo = [draw(weights) for _ in directions]
        points.append(tuple(
            b + sum((w * d[i] for w, d in zip(combo, directions)), Fraction(0))
            for i, b in enumerate(base)
        ))
    return points


@settings(max_examples=200, deadline=None)
@given(affine_point_sets())
def test_ambient_hull_equals_span_and_lift_hull(points):
    hull = convex_hull(points)
    assert (hull.vertices, hull.halfspaces, hull.affine_dim) == span_lift_hull(points)


@st.composite
def rotation_point_sets(draw):
    """9-16 points in dimension 1-4, so that many lie past the starting
    simplex and each new boundary plane comes from a rotation about a horizon
    ridge: either points of the grid {0,1,2}^d, with many coplanar and
    collinear points, or rational points on a span of lower dimension (of
    dimension 1 on a line)."""
    dim = draw(st.integers(1, 4))
    count = draw(st.integers(9, 16))
    if draw(st.booleans()):
        grid = st.tuples(*[st.integers(0, 2)] * dim)
        return draw(st.lists(grid, min_size=count, max_size=count))
    flat = draw(st.integers(1, max(dim - 1, 1)))
    small = st.integers(-2, 2)
    base = [Fraction(draw(small), draw(st.integers(1, 3))) for _ in range(dim)]
    directions = [[draw(small) for _ in range(dim)] for _ in range(flat)]
    weights = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    points = []
    for _ in range(count):
        combo = [draw(weights) for _ in directions]
        points.append(tuple(
            b + sum((w * d[i] for w, d in zip(combo, directions)), Fraction(0))
            for i, b in enumerate(base)
        ))
    return points


@settings(max_examples=150, deadline=None)
@given(rotation_point_sets())
def test_rotated_hull_equals_span_and_lift_hull(points):
    hull = convex_hull(points)
    assert (hull.vertices, hull.halfspaces, hull.affine_dim) == span_lift_hull(points)


def _body_points(fixture, max_degree):
    job = load_fixture(fixture, max_degree)
    gamma = build_gamma(job.section_space(), max_degree)
    return [tuple(Fraction(c, m) for c in u) for m, u in minimal_generators(gamma)]


@pytest.mark.parametrize(
    "points,nullspaces,ranks",
    [
        (lambda: _body_points("bott-samelson-m", 2), 5, 7),
        (lambda: _body_points("counterexample-p1xp1", 20), 4, 4),
        (lambda: list(itertools.product(range(3), repeat=3)), 5, 6),
    ],
    ids=["bsm-M2", "p1xp1-M20", "grid-3"],
)
def test_hull_eliminates_only_for_the_starting_simplex(points, nullspaces, ranks, monkeypatch):
    """`echelon.nullspace` runs for the k+1 facets of the starting simplex
    and for the one kernel of equality normals, k+2 calls whatever the number
    of points, and `_rank` once per facet, in `_validate`: no new boundary
    simplex and no boundary point eliminates.  (A kernel per new simplex and
    a rank per boundary point make 37 and 20 calls on bsm M2, 44 and 27 on
    p1xp1 M20.)"""
    calls = {"nullspace": 0, "rank": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(echelon, "nullspace", counted("nullspace", echelon.nullspace))
    monkeypatch.setattr(polytopes, "_rank", counted("rank", polytopes._rank))
    hull = convex_hull(points())
    assert (calls["nullspace"], calls["rank"]) == (nullspaces, ranks)
    assert nullspaces == hull.affine_dim + 2 and ranks == len(hull.halfspaces)


@st.composite
def body_point_sets(draw):
    """Body-style points u/m: integer vectors u in the span of k integer
    directions (often dependent), each over its own degree m in 1..9, so the
    lcm of the denominators is large; direction entries reach past 2**64."""
    dim = draw(st.integers(1, 4))
    flat = draw(st.integers(1, dim))
    entry = st.one_of(st.integers(-3, 3), st.integers(2**64, 2**66), st.integers(-2**66, -2**64))
    directions = [[draw(entry) for _ in range(dim)] for _ in range(flat)]
    points = []
    for _ in range(draw(st.integers(1, 8))):
        combo = [draw(st.integers(0, 3)) for _ in directions]
        u = [sum(w * d[i] for w, d in zip(combo, directions)) for i in range(dim)]
        m = draw(st.integers(1, 9))
        points.append(tuple(Fraction(c, m) for c in u))
    return points


@settings(max_examples=150, deadline=None)
@given(body_point_sets())
def test_integer_hull_equals_span_and_lift_hull_on_body_points(points):
    hull = convex_hull(points)
    assert (hull.vertices, hull.halfspaces, hull.affine_dim) == span_lift_hull(points)
    assert all(type(c) is Fraction for v in hull.vertices for c in v)
    assert all(type(c) is Fraction for _, c in hull.halfspaces)
    assert all(type(a) is int for n, _ in hull.halfspaces for a in n)


@st.composite
def orthant_polytopes(draw):
    """Hulls of small non-negative integer points, with many zero coordinates."""
    dim = draw(st.integers(1, 4))
    coordinate = st.integers(0, 3)
    points = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=7))
    return convex_hull(points)


@settings(max_examples=120, deadline=None)
@given(orthant_polytopes())
def test_face_restriction_equals_halfspace_slice(poly):
    for r in range(poly.ambient_dim + 1):
        face = face_restriction(poly, r)
        sliced = polytope_from_halfspaces(
            [(n[r:], c) for n, c in poly.halfspaces], poly.ambient_dim - r
        )
        assert_same_polytope(face, sliced)


def test_face_restriction_rejects_a_negative_leading_coordinate():
    poly = convex_hull([(-1, 0), (1, 0), (0, 1)])
    assert face_restriction(poly, 0) is poly
    with pytest.raises(ValidationError, match="negative coordinate"):
        face_restriction(poly, 1)
    # the slice x_1 = 0 cuts through the interior: it is not a face
    sliced = polytope_from_halfspaces([(n[1:], c) for n, c in poly.halfspaces], 1)
    assert sliced.vertices == ((0,), (1,))
