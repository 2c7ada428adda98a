"""Exact rational polytopes: V-representation, H-representation, lattice points.

Hulls are exact, with no floating point anywhere, in ambient coordinates.
The input points are scaled once by the lcm of their denominators, and the
hull is built and validated on those integer points; each integer facet is
mapped back through `_primitive`, so the output is the same as over the
rationals.  The affine hull of the input is found first, together
with its equality normals; one beneath–beyond pass then builds the hull
inside it: start from a simplex on affinely independent input points, and
for each further point delete the boundary simplices it sees and cone the
horizon ridges to it.  Each boundary hyperplane is taken orthogonal to the
equality normals, so coplanar simplices merge into one facet by their
primitive halfspace, and a point is a vertex when its tight facet normals
span the affine hull's directions.  Both representations are
cross-validated on construction.  Faces on coordinate hyperplanes are read
off the vertices.  Lattice points are scanned with integer arithmetic only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import ceil, floor, gcd, lcm, prod
from operator import mul

from .errors import InvariantError, ResourceCapError, ValidationError
from . import linalg
from .spaces import DEFAULT_MONOMIAL_CAP

Point = tuple  # tuple[Fraction, ...]
Halfspace = tuple  # (normal: tuple[int, ...], offset: Fraction), meaning <n, x> <= c


@dataclass(frozen=True)
class RationalPolytope:
    """A bounded convex polytope with matching V- and H-representations.

    `halfspaces` cut out exactly the polytope, including its affine hull
    (lower-dimensional polytopes carry pairs of opposite halfspaces).  The
    empty polytope has `affine_dim` -1 and one infeasible constraint.
    """

    ambient_dim: int
    vertices: tuple[Point, ...]
    halfspaces: tuple[Halfspace, ...]
    affine_dim: int

    @property
    def is_empty(self) -> bool:
        return self.affine_dim < 0

    def contains(self, point) -> bool:
        point = tuple(Fraction(c) for c in point)
        if len(point) != self.ambient_dim:
            raise ValidationError("point has wrong dimension")
        return all(_dot(n, point) <= c for n, c in self.halfspaces)


def _dot(a, b):
    return sum(map(mul, a, b))


def empty_polytope(ambient_dim: int) -> RationalPolytope:
    infeasible = ((0,) * ambient_dim, Fraction(-1))
    return RationalPolytope(ambient_dim, (), (infeasible,), -1)


# ---------------------------------------------------------------------------
# Exact linear programming: convex-combination feasibility.

def in_convex_hull(point, points) -> bool:
    """Exact test for membership of `point` in the hull of `points`."""
    points = [tuple(Fraction(c) for c in q) for q in points]
    point = tuple(Fraction(c) for c in point)
    if not points:
        return False
    dim = len(point)
    rows = [[q[i] for q in points] for i in range(dim)]
    rows.append([Fraction(1)] * len(points))
    rhs = list(point) + [Fraction(1)]
    return _phase_one_feasible(rows, rhs)


def _phase_one_feasible(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Feasibility of {A x = b, x >= 0} by phase-one simplex with Bland's rule."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    tableau = []
    b = []
    for i in range(m):
        row = list(rows[i])
        bi = rhs[i]
        if bi < 0:
            row = [-v for v in row]
            bi = -bi
        tableau.append(row + [Fraction(0)] * m)
        tableau[i][n + i] = Fraction(1)
        b.append(bi)
    basis = [n + i for i in range(m)]
    # reduced costs for minimizing the sum of artificial variables
    cost = [Fraction(0)] * (n + m)
    for j in range(n):
        cost[j] = -sum(tableau[i][j] for i in range(m))
    while True:
        entering = next((j for j in range(n + m) if cost[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = b[i] / coeff
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise InvariantError("unbounded phase-one objective")
        pivot = tableau[leaving][entering]
        tableau[leaving] = [v / pivot for v in tableau[leaving]]
        b[leaving] = b[leaving] / pivot
        for i in range(m):
            if i != leaving and tableau[i][entering]:
                f = tableau[i][entering]
                tableau[i] = [a - f * c for a, c in zip(tableau[i], tableau[leaving])]
                b[i] -= f * b[leaving]
        if cost[entering]:
            f = cost[entering]
            cost = [a - f * c for a, c in zip(cost, tableau[leaving])]
        basis[leaving] = entering
    residual = sum((b[i] for i in range(m) if basis[i] >= n), Fraction(0))
    return residual == 0


# ---------------------------------------------------------------------------
# Hull construction.

def _primitive(normal, offset):
    """The halfspace <normal, x> <= offset as the primitive integer vector on
    its ray: an integer normal and an integral offset, orientation kept."""
    *ints, off = _integer_direction([*normal, offset])
    return tuple(ints), Fraction(off)


def _affine_rank(points) -> int:
    """Dimension of the affine span of a non-empty point list."""
    diffs = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    return linalg.rank(diffs, len(points[0]))


def _scaled(values, scale: int) -> list:
    """`scale * v` as ints, for rationals v whose denominators divide `scale`."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _integer_direction(vector) -> list:
    """The primitive integer vector on the ray of a non-zero rational vector."""
    ints = _scaled(vector, reduce(lcm, (v.denominator for v in vector)))
    g = reduce(gcd, ints)
    return [v // g for v in ints]


def _oriented_plane(pts, face, inside, equalities):
    """Integer hyperplane through the points `face` inside the affine hull,
    with `inside` strictly below.

    The normal is orthogonal to the face and to every equality normal, so it
    lies in the hull's direction space.  `inside` is k+1 times the centroid
    of the starting simplex, an interior point of every hull the pass builds.
    """
    ridge = [pts[i] for i in face]
    diffs = [[a - b for a, b in zip(q, ridge[0])] for q in ridge[1:]]
    normal = _integer_direction(linalg.nullspace(diffs + equalities, len(inside), Fraction(1))[0])
    offset = _dot(normal, ridge[0])
    if _dot(normal, inside) > (len(face) + 1) * offset:
        return [-v for v in normal], -offset
    return normal, offset


def _beneath_beyond(pts, k: int, equalities) -> tuple[list[int], set]:
    """Vertex indices and facet hyperplanes (n, c), meaning <n, y> <= c, of
    the hull of integer points whose affine hull has dimension k and integer
    equality normals `equalities`.

    The boundary is kept as simplices, each a sorted tuple of k point
    indices.  A point sees a simplex when it lies strictly beyond its
    hyperplane; a point on or beneath every hyperplane lies in the hull.
    """
    simplex = [0]
    for i in range(1, len(pts)):
        if len(simplex) == k + 1:
            break
        if _affine_rank([pts[j] for j in simplex] + [pts[i]]) == len(simplex):
            simplex.append(i)
    inside = [sum(pts[i][t] for i in simplex) for t in range(len(pts[0]))]
    boundary = {}
    for skip in simplex:
        face = tuple(i for i in simplex if i != skip)
        boundary[face] = _oriented_plane(pts, face, inside, equalities)
    for idx, p in enumerate(pts):
        if idx in simplex:
            continue
        visible = [f for f, (n, c) in boundary.items() if _dot(n, p) > c]
        horizon: set = set()
        for face in visible:
            del boundary[face]
            for j in range(k):
                horizon ^= {face[:j] + face[j + 1:]}
        for ridge in horizon:
            face = tuple(sorted(ridge + (idx,)))
            boundary[face] = _oriented_plane(pts, face, inside, equalities)
    # Coplanar simplices share one primitive plane.  The facet normals lie
    # in the k-dimensional direction space, so a point is a vertex exactly
    # when its tight normals span it.
    facets = {(tuple(n), c) for n, c in boundary.values()}
    vertex_ids = []
    for idx in sorted({i for face in boundary for i in face}):
        tight = [n for n, c in facets if _dot(n, pts[idx]) == c]
        if linalg.rank(tight, len(pts[0])) == k:
            vertex_ids.append(idx)
    return vertex_ids, facets


def convex_hull(points) -> RationalPolytope:
    """Exact convex hull: irredundant vertices plus a validated H-representation."""
    pts = sorted({tuple(Fraction(c) for c in p) for p in points})
    if not pts:
        raise ValidationError("convex hull of an empty point set")
    ambient_dim = len(pts[0])
    if any(len(p) != ambient_dim for p in pts):
        raise ValidationError("points of mixed dimension")
    scale = lcm(*{c.denominator for p in pts for c in p})
    ints = [_scaled(p, scale) for p in pts]
    base = ints[0]
    diffs = [[c - b for c, b in zip(p, base)] for p in ints[1:]]
    basis, _ = linalg.rref(diffs, ambient_dim)
    k = len(basis)
    equalities = [
        _integer_direction(w) for w in linalg.nullspace(basis, ambient_dim, Fraction(1))
    ]
    if k == 0:
        vertex_ids = [0]
        halfspaces = set()
    else:
        vertex_ids, facets = _beneath_beyond(ints, k, equalities)
        # <n, y> <= c on the points y = scale * x is <n, x> <= c / scale
        halfspaces = {_primitive(n, Fraction(c, scale)) for n, c in facets}
    # equalities cutting out the affine hull, as opposite halfspace pairs
    for w in equalities:
        off = Fraction(_dot(w, base), scale)
        halfspaces.add(_primitive(w, off))
        halfspaces.add(_primitive([-v for v in w], -off))
    vertices = tuple(pts[i] for i in vertex_ids)
    poly = RationalPolytope(ambient_dim, vertices, tuple(sorted(halfspaces)), k)
    _validate(poly)
    return poly


def _validate(poly: RationalPolytope) -> None:
    """Cross-check both representations in integers: vertices and offsets
    are scaled by the lcm of their denominators."""
    scale = lcm(*{c.denominator for v in poly.vertices for c in v},
                *{c.denominator for _, c in poly.halfspaces})
    verts = [_scaled(v, scale) for v in poly.vertices]
    bounds = _scaled([c for _, c in poly.halfspaces], scale)
    for v in verts:
        tight = 0
        for (n, _), bound in zip(poly.halfspaces, bounds):
            val = _dot(n, v)
            if val > bound:
                raise InvariantError("vertex violates a halfspace")
            if val == bound:
                tight += 1
        if tight < poly.affine_dim:
            raise InvariantError("vertex tight on too few halfspaces")
    present = set(poly.halfspaces)
    for (n, c), bound in zip(poly.halfspaces, bounds):
        if (tuple(-a for a in n), -c) in present:
            continue  # an equality: with no vertex violating, tight on every vertex
        tight = [v for v in verts if _dot(n, v) == bound]
        if not tight or _affine_rank(tight) != poly.affine_dim - 1:
            raise InvariantError("halfspace not tight on a facet")


def polytope_from_halfspaces(halfspaces, ambient_dim: int) -> RationalPolytope:
    """Vertex enumeration for a bounded halfspace intersection.

    Candidates are the solutions of square tight subsystems; the input must
    describe a bounded set for the result to be meaningful.
    """
    halfspaces = [
        (tuple(Fraction(c) for c in n), Fraction(c0)) for n, c0 in halfspaces
    ]
    if ambient_dim == 0:
        feasible = all(c >= 0 for _, c in halfspaces)
        if not feasible:
            return empty_polytope(0)
        return RationalPolytope(0, ((),), (), 0)
    candidates = set()
    for subset in itertools.combinations(range(len(halfspaces)), ambient_dim):
        matrix = [list(halfspaces[i][0]) for i in subset]
        rhs = [halfspaces[i][1] for i in subset]
        sol = linalg.solve_unique(matrix, rhs)
        if sol is None:
            continue
        point = tuple(sol)
        if all(_dot(n, point) <= c for n, c in halfspaces):
            candidates.add(point)
    if not candidates:
        return empty_polytope(ambient_dim)
    return convex_hull(candidates)


def _lattice_runs(poly: RationalPolytope, dilation: int, cap_monomials: int):
    """The integer points of the dilated polytope as runs (prefix, xs), the
    points prefix + (x,) for x in the range xs, one per point of the bounding
    box of the first d-1 coordinates; in dimension 0, ((), range(1)) is ().

    An integer point x lies in the dilation exactly when <n, x> <=
    floor(dilation * c) for every halfspace, since the normals are integer,
    so the halfspaces give the range of xs directly, in integer arithmetic.
    The points of the whole bounding box, which bound the scan and the
    result, are checked against the monomial cap before the scan.
    """
    if dilation < 1:
        raise ValidationError("dilation factor must be at least 1")
    if poly.is_empty:
        return
    bounds = [(n, floor(dilation * c)) for n, c in poly.halfspaces]
    d = poly.ambient_dim
    if d == 0:
        if all(b >= 0 for _, b in bounds):
            yield (), range(1)
        return
    lo = [ceil(min(v[i] for v in poly.vertices) * dilation) for i in range(d)]
    hi = [floor(max(v[i] for v in poly.vertices) * dilation) for i in range(d)]
    box = prod(max(b - a + 1, 0) for a, b in zip(lo, hi))
    if box > cap_monomials:
        raise ResourceCapError(
            f"monomial cap exceeded by the lattice scan box: {box} > {cap_monomials}"
        )
    for prefix in itertools.product(*(range(a, b + 1) for a, b in zip(lo[:-1], hi[:-1]))):
        low, high = lo[-1], hi[-1]
        for n, b in bounds:
            slack = b - _dot(n, prefix)
            a = n[-1]
            if a > 0:
                high = min(high, slack // a)
            elif a < 0:
                low = max(low, -(slack // -a))
            elif slack < 0:
                high = low - 1
                break
        yield prefix, range(low, high + 1)


def lattice_points(
    poly: RationalPolytope, dilation: int = 1, cap_monomials: int = DEFAULT_MONOMIAL_CAP
) -> set:
    """All integer points of the dilated polytope (see `_lattice_runs`)."""
    runs = _lattice_runs(poly, dilation, cap_monomials)
    if poly.ambient_dim == 0:
        return {() for _ in runs}
    return {prefix + (x,) for prefix, xs in runs for x in xs}


def lattice_count(
    poly: RationalPolytope, dilation: int = 1, cap_monomials: int = DEFAULT_MONOMIAL_CAP
) -> int:
    """The number of integer points of the dilated polytope, counted run by
    run without building them (see `_lattice_runs`)."""
    return sum(len(xs) for _, xs in _lattice_runs(poly, dilation, cap_monomials))


def face_restriction(poly: RationalPolytope, r: int) -> RationalPolytope:
    """Face where the first r coordinates vanish, in the last d-r coordinates.

    The polytope must have no negative coordinate among the first r of any
    vertex; then each x_i >= 0 is valid on it, the slice x_1..x_r = 0 is a
    face, and the face is the hull of the vertices lying on it.
    """
    if not 0 <= r <= poly.ambient_dim:
        raise ValidationError(f"face index {r} out of range")
    if r == 0:
        return poly
    if any(c < 0 for v in poly.vertices for c in v[:r]):
        raise ValidationError(f"a vertex has a negative coordinate among the first {r}")
    on_face = [v[r:] for v in poly.vertices if not any(v[:r])]
    if not on_face:
        return empty_polytope(poly.ambient_dim - r)
    return convex_hull(on_face)


def polytopes_equal(a: RationalPolytope, b: RationalPolytope) -> bool:
    return a.ambient_dim == b.ambient_dim and a.vertices == b.vertices


def normalized_volume(
    poly: RationalPolytope, cap_monomials: int = DEFAULT_MONOMIAL_CAP, counts=()
) -> int:
    """Lattice-normalized volume (dimension factorial times the volume).

    Computed as the top finite difference of the lattice-point counts of the
    first dilations, so it requires integer vertices; full-dimensional
    comparisons across examples use this together with vertex and lattice
    counts.  `counts` may give the counts of the dilations 1, 2, ... already
    known; each other dilation is counted by a scan bounded by `cap_monomials`.
    """
    if poly.is_empty:
        return 0
    if any(c.denominator != 1 for v in poly.vertices for c in v):
        raise ValidationError("normalized volume needs integer vertices")
    d = poly.affine_dim
    if d == 0:
        return 1
    counts = [1, *counts[:d]]
    counts += [lattice_count(poly, k, cap_monomials) for k in range(len(counts), d + 1)]
    total = 0
    sign = 1 if d % 2 == 0 else -1
    binom = 1
    for i in range(d + 1):
        total += sign * binom * counts[i]
        sign = -sign
        binom = binom * (d - i) // (i + 1)
    return total
