"""Small independent oracles used by the test suites.

These deliberately avoid the library's own linear algebra and hull code so
expected values are computed along a second, unrelated path.
"""

import itertools
from fractions import Fraction
from math import gcd

from okv.degeneration import REES_PARAMETER
from okv.errors import ValidationError
from okv.polynomials import Polynomial
from okv.semigroups import GradedSemigroup, _Packing, gamma_from_generators
from okv.spaces import product_space, reduce_to_basis
from okv.valuation import nu_image


def solve_exact(matrix, rhs):
    """Plain Gaussian elimination; None when inconsistent or underdetermined."""
    n = len(matrix)
    width = len(matrix[0]) if n else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    row = 0
    pivots = []
    for col in range(width):
        pivot = next((i for i in range(row, n) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        aug[row] = [v / aug[row][col] for v in aug[row]]
        for i in range(n):
            if i != row and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
    for i in range(row, n):
        if aug[i][-1]:
            return None
    if len(pivots) < width:
        return None
    x = [Fraction(0)] * width
    for r, c in enumerate(pivots):
        x[c] = aug[r][-1]
    return x


def oracle_in_hull(point, points):
    """Caratheodory brute force over all subsets of at most dim+1 points.

    A hull point is a convex combination of affinely independent points,
    which have unique weights; subsets smaller than dim+1 are needed when
    the points are affinely dependent (collinear, coplanar in 3-D,
    duplicated)."""
    dim = len(point)
    for size in range(1, min(dim + 1, len(points)) + 1):
        for subset in itertools.combinations(points, size):
            matrix = [[Fraction(q[i]) for q in subset] for i in range(dim)]
            matrix.append([Fraction(1)] * len(subset))
            sol = solve_exact(matrix, list(point) + [1])
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


def oracle_lattice_points(points, dilation):
    """Integer points of the dilated hull by box scan over the oracle test."""
    dim = len(points[0])
    lo = [min(p[i] for p in points) * dilation for i in range(dim)]
    hi = [max(p[i] for p in points) * dilation for i in range(dim)]
    found = set()
    for candidate in itertools.product(
        *(range(int(a), int(b) + 1) for a, b in zip(lo, hi))
    ):
        scaled = tuple(Fraction(c, dilation) for c in candidate)
        if oracle_in_hull(scaled, points):
            found.add(candidate)
    return found


def sumset(a, b) -> set:
    return {tuple(x + y for x, y in zip(u, v)) for u in a for v in b}


def oracle_unpack(packed: int, dim: int, bound: int) -> tuple:
    """The vector u with every |u_i| <= bound and sum_i u_i * B^(dim-1-i) =
    packed, B = 2*bound + 1: balanced digits peeled off one at a time, the
    last coordinate first."""
    base, digits = 2 * bound + 1, []
    for _ in range(dim):
        digit = (packed + bound) % base - bound
        digits.append(digit)
        packed = (packed - digit) // base
    assert packed == 0, "point out of range for its packing"
    return tuple(reversed(digits))


def oracle_minimal_generators(slices):
    """Sumset minimal generators (the path okv used before its membership
    test): a point is a generator iff it is not a sum of two lower-degree
    points; sorted by (degree, value)."""
    gens = []
    for m in range(1, len(slices)):
        decomposable = set()
        for a in range(1, m // 2 + 1):
            decomposable |= sumset(slices[a], slices[m - a])
        gens += [(m, u) for u in slices[m] if u not in decomposable]
    return sorted(gens)


def oracle_spair_counts(gamma):
    """{degree: S-pairs} that subduction needs for a section space's semigroup,
    from the unpacked slices: in the fibre of v in degree m the generators g
    of lower degree with v - g in the slice of degree m - deg g meet pairwise
    when v - g - h is in the slice of degree m - deg g - deg h, and a fibre
    with k components needs k - 1 S-pairs.  Degrees with none are left out."""

    def minus(v, *points):
        return tuple(c - sum(p[i] for p in points) for i, c in enumerate(v))

    counts = {}
    for m in range(2, gamma.max_degree + 1):
        total = 0
        for v in gamma.slices[m]:
            members = [(d, u) for d, u in gamma.generators
                       if d < m and minus(v, u) in gamma.slices[m - d]]
            unseen, components = set(range(len(members))), 0
            while unseen:
                components += 1
                stack = [unseen.pop()]
                while stack:
                    di, ui = members[stack.pop()]
                    for j in list(unseen):
                        dj, uj = members[j]
                        if di + dj <= m and minus(v, ui, uj) in gamma.slices[m - di - dj]:
                            unseen.remove(j)
                            stack.append(j)
            total += max(components - 1, 0)
        if total:
            counts[m] = total
    return counts


def oracle_components(vertices, edges):
    """Connected components of the graph on `vertices` (ints) with `edges`
    (pairs, self-loops allowed), by breadth-first search from each unseen
    vertex in increasing order: bitmasks in the order of their least vertex."""
    adjacent = {i: set() for i in vertices}
    for i, j in edges:
        adjacent[i].add(j)
        adjacent[j].add(i)
    seen, components = set(), []
    for start in sorted(vertices):
        if start in seen:
            continue
        seen.add(start)
        queue, component = [start], 0
        while queue:
            i = queue.pop(0)
            component |= 1 << i
            for j in sorted(adjacent[i] - seen):
                seen.add(j)
                queue.append(j)
        components.append(component)
    return components


def oracle_degree_one_generation(slices):
    """(status, witness) from iterated sumsets of the degree-one slice; raises
    ValueError when a slice misses a sum."""
    if len(slices) < 2:
        return "inconclusive", None
    reachable = set(slices[1])
    for m in range(2, len(slices)):
        reachable = sumset(reachable, slices[1])
        extra = set(slices[m]) - reachable
        if extra:
            return "strict-growth", (m, min(extra, key=lambda v: tuple(-c for c in v)))
        if reachable - set(slices[m]):
            raise ValueError("slices are not closed under addition")
    return "generated-in-degree-one", None


def nu_prefix_image(space, r):
    """Image of the valuation truncated to the first r coordinates."""
    dim = len(space.variables)
    if not 0 <= r <= dim:
        raise ValidationError(f"prefix length {r} out of range 0..{dim}")
    return {u[:r] for u in nu_image(space)}


def gamma_from_slices(slices, dim):
    """A semigroup from hand-built slices, which must be closed under addition.
    They are exactly when every point, taken as a generator, gives them back;
    the comparison builds them as a semigroup, packed in their own (smaller)
    base, which checks their shape."""
    given = tuple(frozenset(tuple(u) for u in s) for s in slices)
    points = [(m, u) for m in range(1, len(given)) for u in given[m]]
    gamma = gamma_from_generators(points, len(given) - 1, dim)
    packing = _Packing(dim, max([1, *(abs(c) for s in given for u in s for c in u)]))
    packed = tuple(sorted(map(packing.pack, s)) for s in given)
    if GradedSemigroup(dim, gamma.max_degree, packing, packed, gamma.generators) != gamma:
        raise ValidationError("slices are not closed under addition")
    return gamma


def product_loop_slices(space, max_degree):
    """A section space's slices as okv built them before subduction: the
    valuation image of every power space, one product_space per degree."""
    slices = [{(0,) * len(space.variables)}]
    power = space
    for m in range(1, max_degree + 1):
        if m > 1:
            power = product_space(power, space)
        slices.append(nu_image(power))
    return [frozenset(s) for s in slices]


def oracle_lifts(space, generators):
    """The canonical lift of each graded generator (m, u) as okv read it before
    subduction lifted it: the element of the reduced basis of the power space
    V^m with leading exponent u, one product_space per degree."""
    powers = [space]
    for _ in range(1, max((m for m, _ in generators), default=1)):
        powers.append(product_space(powers[-1], space))
    by_lead = [{p.leading_exponent(): p for p in power.basis} for power in powers]
    return [by_lead[m - 1][tuple(u)] for m, u in generators]


def oracle_restricted_system(space, orders):
    """The restricted system as okv built it before reading layers off the
    terms: keep the elements of order at least a in the first variable,
    divide each by that variable to the a, set it to zero and drop it."""
    current = space
    for a in orders:
        rest = current.variables[1:]
        kept = [p for p in current.basis if p.leading_exponent()[0] >= a]
        divided = [{(e[0] - a,) + e[1:]: c for e, c in p.terms} for p in kept]
        assert all(e[0] >= 0 for terms in divided for e in terms)
        dropped = [Polynomial.from_dict(rest, {e[1:]: c for e, c in terms.items() if e[0] == 0})
                   for terms in divided]
        current = reduce_to_basis([q for q in dropped if q], variables=rest)
    return current


def oracle_sumset_slices(generators, max_degree):
    """Degreewise natural-number combinations of graded generators."""
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


# ---------------------------------------------------------------------------
# Weight vectors by the pairwise gap loop okv used before it read the gap off
# the coordinate ranges.

def pairwise_gap_alphas(points, dim):
    """Canonical weights: the gap constant is one more than the largest
    coordinate difference over all ordered pairs of the augmented set."""
    pts = {tuple(int(c) for c in p) for p in points}
    pts.add((0,) * (dim + 1))
    for i in range(dim + 1):
        pts.add(tuple(1 if j == i else 0 for j in range(dim + 1)))
    gap = 1
    plist = sorted(pts)
    for p in plist:
        for q in plist:
            for a, b in zip(p, q):
                if a - b >= gap:
                    gap = a - b + 1
    alphas = [0] * (dim + 1)
    alphas[dim] = 1
    for k in range(dim - 1, -1, -1):
        alphas[k] = gap * sum(alphas[k + 1:]) + 1
    return tuple(alphas)


def modified_flat_key(flat) -> tuple:
    """Sort key of the modified order: degree up, then values down."""
    return (flat[0],) + tuple(-c for c in flat[1:])


def preserves_modified_order(pi, points) -> bool:
    """Brute-force pairwise check of strict order preservation."""
    pts = sorted({tuple(p) for p in points}, key=modified_flat_key)
    weights = [pi.weight_flat(p) for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] != pts[j] and not weights[i] < weights[j]:
                return False
    return True


# ---------------------------------------------------------------------------
# Presentations and their Rees families, checked term by term.

def generator_by_degree(presentation, degree):
    """The presentation generator of the given (m, u)."""
    for g in presentation.generators:
        if g.degree == degree:
            return g
    raise ValidationError(f"no generator of degree {degree}")


def specialize_rees(relation, presentation, tau):
    """The family equation at a fixed parameter value, in the labels."""
    if relation.rees is None:
        raise ValidationError("relation has no family form yet")
    labels = presentation.labels
    values = {REES_PARAMETER: Polynomial.constant(labels, tau)}
    return relation.rees.substitute(values, labels)


def fiber_check(relation_set, presentation, pi, t0) -> bool:
    """Whether the fiber at a nonzero parameter is the original ideal.

    Rescaling each label by the parameter raised to its weight must turn
    every specialized family equation into an exact scalar multiple of the
    relation it came from.
    """
    field = presentation.field
    t0 = field(t0)
    if not t0:
        raise ValidationError("fiber parameter must be nonzero; use initial forms at zero")
    labels = presentation.labels
    weights = [pi.weight(g.degree) for g in presentation.generators]
    for rel in relation_set.relations:
        if rel.rees is None or rel.weight is None:
            raise ValidationError("run the family homogenization first")
        values = {
            label: Polynomial.monomial(
                labels,
                tuple(1 if j == i else 0 for j in range(len(labels))),
                t0 ** w,
            )
            for i, (label, w) in enumerate(zip(labels, weights))
        }
        values[REES_PARAMETER] = Polynomial.constant(labels, t0)
        specialized = rel.rees.substitute(values, labels)
        expected = rel.poly * Polynomial.constant(labels, t0 ** rel.weight)
        if specialized != expected:
            return False
    return True


# ---------------------------------------------------------------------------
# Dense Gauss-Jordan elimination over any field, and the dense degree-by-degree
# kernel and flatness computation built on it: the elimination path okv used
# before its sparse echelon engine, kept as a differential reference.

def dense_rref(rows, ncols):
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [v / inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def dense_nullspace(rows, ncols, one):
    """Canonical basis of {x : A x = 0}: the RREF of a free-column basis."""
    reduced, pivots = dense_rref(rows, ncols)
    zero = one - one
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in zip(reduced, pivots):
            if r[fc]:
                vec[pc] = -r[fc]
        basis.append(vec)
    return dense_rref(basis, ncols)[0]


def dense_reduce_against(vector, basis_rows, pivots):
    """Subtract multiples of RREF rows to clear the pivot coordinates."""
    v = list(vector)
    for row, pc in zip(basis_rows, pivots):
        if v[pc]:
            factor = v[pc]
            v = [a - factor * b for a, b in zip(v, row)]
    return v


def _dense_degree(presentation, degree):
    """Label monomials of a degree in (value, exponent) order, their index,
    and their evaluations in the polynomial model."""
    grades = presentation.grades
    d = len(presentation.generators[0].degree[1])

    def value(a):
        return tuple(
            sum(n * g.degree[1][i] for n, g in zip(a, presentation.generators))
            for i in range(d)
        )

    monomials = sorted(_dense_degree_exponents(grades, degree), key=lambda a: (value(a), a))
    evaluations = []
    for a in monomials:
        poly = Polynomial.constant(presentation.model_variables, presentation.field.one)
        for n, g in zip(a, presentation.generators):
            for _ in range(n):
                poly = poly * g.lift
        evaluations.append(poly)
    return monomials, {a: j for j, a in enumerate(monomials)}, evaluations, value


def _dense_multiples(polys_by_degree, presentation, degree, index, zero):
    """Dense vectors of every monomial multiple of (poly, degree) landing in degree."""
    labels = presentation.labels
    one = presentation.field.one
    vectors = []
    for poly, rel_degree in polys_by_degree:
        shift = degree - rel_degree
        if shift < 0:
            continue
        for b in _dense_degree_exponents(presentation.grades, shift):
            shifted = poly * Polynomial.monomial(labels, b, one)
            row = [zero] * len(index)
            for exp, c in shifted.terms:
                row[index[exp]] = c
            vectors.append(row)
    return vectors


def _dense_degree_exponents(grades, total):
    """Exponent vectors a with sum a_i * grades_i == total, in lex order."""
    if not grades:
        return [()] if total == 0 else []
    return [(n,) + rest
            for n in range(total // grades[0] + 1)
            for rest in _dense_degree_exponents(grades[1:], total - n * grades[0])]


def dense_kernel_relations(presentation, relation_degree):
    """(poly, (degree, value)) of every kernel generator up to the degree."""
    field = presentation.field
    labels = presentation.labels
    relations = []
    for degree in range(1, relation_degree + 1):
        monomials, index, evaluations, value = _dense_degree(presentation, degree)
        if not monomials:
            continue
        columns = sorted({exp for p in evaluations for exp, _ in p.terms})
        col = {exp: j for j, exp in enumerate(columns)}
        transpose = [[field(0)] * len(monomials) for _ in columns]
        for i, p in enumerate(evaluations):
            for exp, c in p.terms:
                transpose[col[exp]][i] = c
        kernel = dense_nullspace(transpose, len(monomials), field.one)
        if not kernel:
            continue
        old = _dense_multiples(
            [(p, d[0]) for p, d in relations], presentation, degree, index, field(0)
        )
        old_rref, old_pivots = dense_rref(old, len(monomials))
        fresh = [dense_reduce_against(v, old_rref, old_pivots) for v in kernel]
        fresh, _ = dense_rref([v for v in fresh if any(v)], len(monomials))
        for vec in fresh:
            coeffs = {a: c for a, c in zip(monomials, vec) if c}
            poly = Polynomial.from_dict(labels, coeffs)
            relations.append((poly, (degree, min(value(a) for a in coeffs))))
    return relations


def dense_flatness(presentation, relations, gamma, check_degree):
    """(rows, binomial): per degree (degree, generic quotient dim, special
    quotient dim, semigroup count) by dense elimination of the evaluation
    matrix and of the initial-form multiples."""
    field = presentation.field
    rows = []
    binomial = True
    for degree in range(check_degree + 1):
        monomials, index, evaluations, value = _dense_degree(presentation, degree)
        columns = sorted({exp for p in evaluations for exp, _ in p.terms})
        col = {exp: j for j, exp in enumerate(columns)}
        matrix = []
        for p in evaluations:
            row = [field(0)] * len(columns)
            for exp, c in p.terms:
                row[col[exp]] = c
            matrix.append(row)
        generic = len(dense_rref(matrix, len(columns))[0])
        initial = _dense_multiples(
            [(r.initial, r.degree[0]) for r in relations],
            presentation, degree, index, field(0),
        )
        special, _ = dense_rref(initial, len(monomials))
        for vec in special:
            support = [(monomials[j], c) for j, c in enumerate(vec) if c]
            if not (
                len(support) == 2
                and support[0][1] == field.one
                and support[1][1] == -field.one
                and value(support[0][0]) == value(support[1][0])
            ):
                binomial = False
        rows.append((degree, generic, len(monomials) - len(special),
                     len(gamma.slice(degree))))
    return rows, binomial


# ---------------------------------------------------------------------------
# The span-and-lift hull okv used before it built hulls in ambient
# coordinates, on the dense elimination above: every point is solved into
# coordinates of its affine span, the hull is built there full-dimensional,
# and each facet is lifted back through the inverted Gram matrix.

def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _primitive(normal, offset):
    scale = 1
    for d in [v.denominator for v in normal] + [offset.denominator]:
        scale = scale * d // gcd(scale, d)
    ints = [int(v * scale) for v in normal]
    off = offset * scale
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    g = gcd(g, abs(off.numerator)) if off.denominator == 1 else g
    if g > 1:
        ints = [v // g for v in ints]
        off = off / g
    return tuple(ints), off


def _rank(rows, ncols):
    return len(dense_rref(rows, ncols)[0])


def _span_plane(coords, face, inside, k):
    pts = [coords[i] for i in face]
    diffs = [[a - b for a, b in zip(q, pts[0])] for q in pts[1:]]
    normal = dense_nullspace(diffs, k, Fraction(1))[0]
    offset = _dot(normal, pts[0])
    if _dot(normal, inside) > (k + 1) * offset:
        return [-v for v in normal], -offset
    return normal, offset


def _span_beneath_beyond(coords, k):
    simplex = [0]
    for i in range(1, len(coords)):
        if len(simplex) == k + 1:
            break
        chosen = [coords[j] for j in simplex] + [coords[i]]
        diffs = [[a - b for a, b in zip(p, chosen[0])] for p in chosen[1:]]
        if _rank(diffs, k) == len(simplex):
            simplex.append(i)
    inside = [sum(coords[i][t] for i in simplex) for t in range(k)]
    boundary = {}
    for skip in simplex:
        face = tuple(i for i in simplex if i != skip)
        boundary[face] = _span_plane(coords, face, inside, k)
    for idx, p in enumerate(coords):
        if idx in simplex:
            continue
        visible = [f for f, (n, c) in boundary.items() if _dot(n, p) > c]
        horizon = set()
        for face in visible:
            del boundary[face]
            for j in range(k):
                horizon ^= {face[:j] + face[j + 1:]}
        for ridge in horizon:
            face = tuple(sorted(ridge + (idx,)))
            boundary[face] = _span_plane(coords, face, inside, k)
    facets = sorted({_primitive(n, c) for n, c in boundary.values()})
    normals = [[Fraction(v) for v in n] for n, _ in facets]
    vertex_ids = []
    for idx in sorted({i for face in boundary for i in face}):
        tight = [n for n, (_, c) in zip(normals, facets) if _dot(n, coords[idx]) == c]
        if _rank(tight, k) == k:
            vertex_ids.append(idx)
    return vertex_ids, facets


def span_lift_hull(points):
    """(vertices, halfspaces, affine_dim) of the hull, along the span path."""
    pts = sorted({tuple(Fraction(c) for c in p) for p in points})
    base, dim = pts[0], len(pts[0])
    basis, _ = dense_rref([[c - b for c, b in zip(p, base)] for p in pts[1:]], dim)
    k = len(basis)
    columns = [[basis[j][i] for j in range(k)] for i in range(dim)]
    coords = [
        tuple(solve_exact(columns, [c - b for c, b in zip(p, base)])) if k else ()
        for p in pts
    ]
    vertex_ids, span_facets = _span_beneath_beyond(coords, k) if k else ([0], [])
    lifted = []
    if k:
        gram = [[_dot(basis[i], basis[j]) for j in range(k)] for i in range(k)]
        inverse = [solve_exact(gram, [Fraction(int(i == j)) for j in range(k)])
                   for i in range(k)]
        a_rows = [[sum(inverse[i][j] * basis[j][t] for j in range(k)) for t in range(dim)]
                  for i in range(k)]
        for normal, offset in span_facets:
            amb = [sum(normal[j] * a_rows[j][t] for j in range(k)) for t in range(dim)]
            lifted.append(_primitive(amb, Fraction(offset + _dot(amb, base))))
    for w in dense_nullspace(basis, dim, Fraction(1)):
        off = _dot(w, base)
        lifted.append(_primitive(w, off))
        lifted.append(_primitive([-v for v in w], -off))
    vertices = tuple(sorted(pts[i] for i in vertex_ids))
    return vertices, tuple(sorted(set(lifted))), k
