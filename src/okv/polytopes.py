"""Exact rational polytopes: V-representation, H-representation, lattice points.

Hulls are exact, with no floating point anywhere, in ambient coordinates.
The input points are scaled once by the lcm L of their denominators, then
deduplicated and sorted as int tuples, and the hull is built and validated
on those integer points; each integer facet is mapped back through
`_primitive` and each vertex as `Fraction(x, L)`, so the output is the same
as over the rationals.  No `Fraction` arithmetic runs in between.
A greedy simplex on affinely independent input points spans the affine hull:
its size is the dimension and the kernel of its edges gives the equality
normals.  One beneath–beyond pass (Seidel) builds the hull inside it: start
from that simplex, and for each further point delete the boundary simplices
it sees and cone the horizon ridges to it.  Only the starting simplex's
facet planes and the equality normals come from elimination (int rows in
`okv.echelon`, fraction-free); each later plane is a rotation about its
horizon ridge of the two planes meeting there, the gift-wrapping step of
Chand–Kapur, in integers.  Each boundary hyperplane is orthogonal to the
equality normals, so coplanar simplices merge into one facet by their
primitive halfspace.  A point is a vertex when no other boundary point is
tight on every facet tight at it, a test of tightness bitmasks.  Both
representations are cross-validated on construction, with ranks.
Membership in the hull of a point set is read off the halfspaces of that
hull; no linear program is solved.  Faces on coordinate hyperplanes are
read off the vertices.  Lattice points are scanned with integer arithmetic
only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor, gcd, lcm, prod
from operator import mul

from .errors import DEFAULT_MONOMIAL_CAP, InvariantError, ValidationError, check_cap
from . import echelon, linalg
from .polynomials import Record

Point = tuple  # tuple[Fraction, ...]
Halfspace = tuple  # (normal: tuple[int, ...], offset: Fraction), meaning <n, x> <= c


class RationalPolytope(Record):
    """A bounded convex polytope with matching V- and H-representations.

    `halfspaces` cut out exactly the polytope, including its affine hull
    (lower-dimensional polytopes carry pairs of opposite halfspaces).  The
    empty polytope has `affine_dim` -1 and one infeasible constraint.
    """

    _fields = __slots__ = ("ambient_dim", "vertices", "halfspaces", "affine_dim")

    def __init__(self, ambient_dim: int, vertices: tuple[Point, ...],
                 halfspaces: tuple[Halfspace, ...], affine_dim: int):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "halfspaces", halfspaces)
        object.__setattr__(self, "affine_dim", affine_dim)

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
# Hull construction.

def _primitive(normal, offset: int, scale: int):
    """The halfspace <normal, y> <= offset on the points y = scale * x, for a
    primitive integer normal, as the primitive integer halfspace in x."""
    g = gcd(offset, scale)
    return tuple(v * (scale // g) for v in normal), Fraction(offset // g)


def _rank(rows) -> int:
    """Rank of integer rows: the size of their echelon form."""
    form = echelon.Echelon()
    for row in rows:
        form.insert({j: v for j, v in enumerate(row) if v})
    return len(form.rows)


def _kernel(rows, ncols: int) -> list:
    """Primitive integer vectors spanning the kernel of integer rows, one per
    free column, each 0 on the other free columns (`echelon.nullspace`)."""
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    return [[w.get(j, 0) for j in range(ncols)] for w in echelon.nullspace(sparse, ncols, 1)]


def _scaled(values, scale: int) -> list:
    """`scale * v` as ints, for rationals v whose denominators divide `scale`."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _oriented_plane(pts, face, inside, equalities):
    """Integer hyperplane through the points `face` inside the affine hull,
    with `inside` strictly below.

    The normal is orthogonal to the face and to every equality normal, so it
    lies in the hull's direction space.  `inside` is k+1 times the centroid
    of the starting simplex, an interior point of every hull the pass builds.
    """
    ridge = [pts[i] for i in face]
    diffs = [[a - b for a, b in zip(q, ridge[0])] for q in ridge[1:]]
    normal = _kernel(diffs + equalities, len(inside))[0]
    offset = _dot(normal, ridge[0])
    if _dot(normal, inside) > (len(face) + 1) * offset:
        return [-v for v in normal], -offset
    return normal, offset


def _beneath_beyond(pts, simplex, equalities) -> tuple[list[int], set]:
    """Vertex indices and facet hyperplanes (n, c), meaning <n, y> <= c, of
    the hull of integer points whose affine hull is spanned by the k+1 points
    `simplex` indexes and cut out by the integer normals `equalities`.

    The boundary is kept as simplices, each a sorted tuple of k point
    indices.  A point p sees a simplex when it lies strictly beyond its
    hyperplane; a point on or beneath every hyperplane lies in the hull.
    Only the starting simplex's planes are eliminated (`_oriented_plane`).
    Each horizon ridge lies in one seen simplex, with plane (n1, c1) and
    s1 = <n1, p> - c1 > 0, and in one unseen one, with (n2, c2) and
    s2 = <n2, p> - c2 <= 0; the plane through the ridge and p is the
    rotation s1 (n2, c2) - s2 (n1, c1), made primitive.  It vanishes on the
    ridge and on p, stays orthogonal to the equality normals, and is
    negative at every interior point, so it is the primitive outward plane
    that elimination would give.  The facets tight at a point cut out the
    least face holding it, so a boundary point is a vertex exactly when its
    bitmask of tight facets is contained in no other boundary point's.
    """
    k = len(simplex) - 1
    inside = [sum(pts[i][t] for i in simplex) for t in range(len(pts[0]))]
    boundary = {}
    for skip in simplex:
        face = tuple(i for i in simplex if i != skip)
        boundary[face] = _oriented_plane(pts, face, inside, equalities)
    for idx, p in enumerate(pts):
        if idx in simplex:
            continue
        visible = [face for face, (n, c) in boundary.items() if _dot(n, p) > c]
        if not visible:
            continue
        horizon = {}
        for face in visible:
            plane = boundary.pop(face)
            for j in range(k):
                ridge = face[:j] + face[j + 1:]
                if horizon.pop(ridge, None) is None:
                    horizon[ridge] = plane
        cones = []
        for face, (n2, c2) in boundary.items():
            for j in range(k):
                ridge = face[:j] + face[j + 1:]
                if ridge in horizon:
                    n1, c1 = horizon[ridge]
                    s1, s2 = _dot(n1, p) - c1, _dot(n2, p) - c2
                    n = [s1 * b - s2 * a for a, b in zip(n1, n2)]
                    g = gcd(*n)
                    plane = [v // g for v in n], (s1 * c2 - s2 * c1) // g
                    cones.append((tuple(sorted(ridge + (idx,))), plane))
        boundary.update(cones)
    # Coplanar simplices share one primitive plane, the facet's.
    facets = {(tuple(n), c) for n, c in boundary.values()}
    ids = sorted({i for face in boundary for i in face})
    masks = [sum(1 << b for b, (n, c) in enumerate(facets) if _dot(n, pts[i]) == c)
             for i in ids]
    vertex_ids = [i for i, m in zip(ids, masks) if sum(o & m == m for o in masks) == 1]
    return vertex_ids, facets


def convex_hull(points) -> RationalPolytope:
    """Exact convex hull of points with int or `Fraction` coordinates:
    irredundant vertices plus a validated H-representation."""
    points = list(points)
    scale = lcm(*{c.denominator for p in points for c in p})
    ints = sorted({tuple(_scaled(p, scale)) for p in points})
    if not ints:
        raise ValidationError("convex hull of an empty point set")
    ambient_dim = len(ints[0])
    if any(len(p) != ambient_dim for p in ints):
        raise ValidationError("points of mixed dimension")
    base, simplex, span = ints[0], [0], echelon.Echelon()
    for i in range(1, len(ints)):
        if len(simplex) == ambient_dim + 1:
            break
        span.insert({j: a - b for j, (a, b) in enumerate(zip(ints[i], base)) if a != b})
        if len(span.rows) == len(simplex):
            simplex.append(i)
    k = len(simplex) - 1
    edges = [[b - c for b, c in zip(ints[i], base)] for i in simplex[1:]]
    equalities = _kernel(edges, ambient_dim)
    vertex_ids, facets = _beneath_beyond(ints, simplex, equalities) if k else ([0], ())
    halfspaces = {_primitive(n, c, scale) for n, c in facets}
    # equalities cutting out the affine hull, as opposite halfspace pairs
    for w in equalities:
        off = _dot(w, base)
        halfspaces.add(_primitive(w, off, scale))
        halfspaces.add(_primitive([-v for v in w], -off, scale))
    vertices = tuple(tuple(Fraction(x, scale) for x in ints[i]) for i in vertex_ids)
    poly = RationalPolytope(ambient_dim, vertices, tuple(sorted(halfspaces)), k)
    _validate(poly)
    return poly


def in_convex_hull(point, points) -> bool:
    """Exact membership of `point` in the hull of `points`, read off the
    halfspaces of `convex_hull`; False when there are no points."""
    points = list(points)
    return bool(points) and convex_hull(points).contains(point)


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
        edges = ([a - b for a, b in zip(v, tight[0])] for v in tight[1:])
        if not tight or _rank(edges) != poly.affine_dim - 1:
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
    check_cap(box, cap_monomials, "monomial cap exceeded by the lattice scan box")
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
