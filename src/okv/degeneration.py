"""Toric degenerations: weight vectors, presentations, kernel ideals, Rees families.

The flow is: take the minimal generators of the graded value semigroup from
its subduction (`semigroups.Subduction`) and lift each (m, u) to the
reduced-basis element of V^m with leading exponent u by the same
subduction, with no power space built; extend the semigroup to the relation
degree by resuming the subduction; compute the kernel of the induced
polynomial presentation degree by degree with the sparse exact echelon
engine (`okv.echelon`), whose columns are read straight off the evaluated
label monomials, and read the fresh relations off the kernel basis pivots;
collapse the modified order on the finitely many degrees that occur to a
single integer weighting; homogenize each relation into a one-parameter
family interpolating between the relation and its initial form; certify
flatness by matching three Hilbert functions degreewise, the generic one
taken from the kernel dimensions of the relation pass.  The label
monomials of each degree are enumerated once per presentation, as columns
and as shifts of relation multiples.  Every matrix cap is checked before
the step it bounds: the number of relation multiples in a degree follows
from monomial counts, before any monomial of it is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction

from .errors import InvariantError, ResourceCapError, ValidationError
from . import echelon
from .fields import QQ
from .polynomials import Polynomial, polynomial_field
from .semigroups import (
    GradedPoint,
    GradedSemigroup,
    Subduction,
    build_gamma,
    gamma_from_generators,
    minimal_generators,
    okounkov_body_estimate,
)
from .spaces import DEFAULT_MONOMIAL_CAP, SectionSpace, is_subspace
from .valuation import restricted_system
from .polytopes import RationalPolytope, face_restriction, polytopes_equal

DEFAULT_MATRIX_CAP = 500_000

REES_PARAMETER = "t"


@dataclass(frozen=True)
class WeightVector:
    """Integer linear form (m, u) -> a0*m - sum(ai*ui) collapsing the order."""

    alphas: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.alphas) - 1

    def weight_flat(self, flat) -> int:
        if len(flat) != len(self.alphas):
            raise ValidationError("point dimension does not match the weight vector")
        return self.alphas[0] * flat[0] - sum(
            a * c for a, c in zip(self.alphas[1:], flat[1:])
        )

    def weight(self, point: GradedPoint) -> int:
        return self.weight_flat((point[0], *point[1]))


def modified_flat_key(flat) -> tuple:
    return (flat[0],) + tuple(-c for c in flat[1:])


def choose_weight_vector(points, dim: int | None = None) -> WeightVector:
    """Smallest canonical weights preserving the modified order on the set.

    Zero and the standard basis of the graded orthant are always included.
    The gap constant is one more than the largest coordinate difference over
    pairs, and each weight is the least integer exceeding the gap constant
    times the sum of the later weights.
    """
    pts = {tuple(int(c) for c in p) for p in points}
    if dim is None:
        if not pts:
            raise ValidationError("cannot infer dimension from an empty point set")
        dim = len(next(iter(pts))) - 1
    if dim < 1:
        raise ValidationError("weight vectors need at least one value coordinate")
    if any(len(p) != dim + 1 for p in pts):
        raise ValidationError("points of mixed dimension")
    pts.add((0,) * (dim + 1))
    for i in range(dim + 1):
        pts.add(tuple(1 if j == i else 0 for j in range(dim + 1)))
    gap = 1 + max(max(c) - min(c) for c in zip(*pts))
    alphas = [0] * (dim + 1)
    alphas[dim] = 1
    for k in range(dim - 1, -1, -1):
        alphas[k] = gap * sum(alphas[k + 1 :]) + 1
    return WeightVector(tuple(alphas))


def preserves_modified_order(pi: WeightVector, points) -> bool:
    """Brute-force pairwise check of strict order preservation."""
    pts = sorted({tuple(p) for p in points}, key=modified_flat_key)
    weights = [pi.weight_flat(p) for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] != pts[j] and not weights[i] < weights[j]:
                return False
    return True


# ---------------------------------------------------------------------------
# Presentations.

@dataclass(frozen=True)
class PresentationGenerator:
    label: str
    degree: GradedPoint
    lift: Polynomial


@dataclass(frozen=True)
class Presentation:
    """Labelled semigroup generators together with their section lifts."""

    generators: tuple[PresentationGenerator, ...]
    model_variables: tuple[str, ...]
    field: object
    _monomials: dict = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        return len(self.generators)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(g.label for g in self.generators)

    @property
    def grades(self) -> tuple[int, ...]:
        return tuple(g.degree[0] for g in self.generators)

    @property
    def degrees(self) -> tuple[GradedPoint, ...]:
        return tuple(g.degree for g in self.generators)

    def degree_monomials(self, degree: int) -> tuple[list, dict]:
        """`_degree_monomials`, enumerated once per degree and shared by every
        kernel and flatness pass over this presentation."""
        if degree not in self._monomials:
            self._monomials[degree] = _degree_monomials(self, degree)
        return self._monomials[degree]

    def generator_by_degree(self, degree: GradedPoint) -> PresentationGenerator:
        for g in self.generators:
            if g.degree == degree:
                return g
        raise ValidationError(f"no generator of degree {degree}")


def _present(space, max_degree, cap_monomials):
    """A presentation read from the semigroup truncated at `max_degree`, and the
    subduction that found it, resumable for higher degrees.  Each generator
    (m, u) is lifted by that subduction (`Subduction.lift`) to the element of
    V^m's reduced basis with leading exponent u, so the choice is canonical
    and no power space is built."""
    if space.is_zero:
        raise ValidationError("cannot present the zero space")
    if max_degree < 1:
        raise ValidationError("a presentation needs the semigroup to degree at least 1")
    ring = Subduction(space, cap_monomials)
    out = [
        PresentationGenerator(f"X{i}", (m, u), ring.lift(m, u))
        for i, (m, u) in enumerate(minimal_generators(ring.semigroup(max_degree)), start=1)
    ]
    field = polynomial_field(space.basis[0])
    return Presentation(tuple(out), space.variables, field), ring


def build_presentation(
    space: SectionSpace,
    max_degree: int,
    cap_monomials: int = DEFAULT_MONOMIAL_CAP,
) -> Presentation:
    """One labelled generator per minimal semigroup generator, with its lift."""
    return _present(space, max_degree, cap_monomials)[0]


def presentation_from_generators(generators) -> Presentation:
    """Monomial model for an abstract semigroup: (m, u) becomes s^m t^u."""
    gens = sorted((int(m), tuple(int(c) for c in u)) for m, u in generators)
    if not gens:
        raise ValidationError("empty generator list")
    if any(m < 1 for m, _ in gens):
        raise ValidationError("generator degrees must be at least 1")
    d = len(gens[0][1])
    if any(len(u) != d for _, u in gens):
        raise ValidationError("generators of mixed dimension")
    variables = ("s",) + tuple(f"t{i}" for i in range(1, d + 1))
    out = []
    for i, (m, u) in enumerate(gens, start=1):
        lift = Polynomial.monomial(variables, (m, *u), Fraction(1))
        out.append(PresentationGenerator(f"X{i}", (m, u), lift))
    return Presentation(tuple(out), variables, QQ)


# ---------------------------------------------------------------------------
# Truncated kernel ideals.

@dataclass(frozen=True)
class Relation:
    """A polynomial identity among the generator labels."""

    poly: Polynomial
    degree: GradedPoint
    initial: Polynomial | None = None
    weight: int | None = None
    rees: Polynomial | None = None


@dataclass(frozen=True)
class RelationSet:
    """Relations up to a truncation degree; `kernel_dims[d]` is the dimension
    of the whole degree-d kernel, multiples of lower relations included."""

    relations: tuple[Relation, ...]
    truncation_degree: int
    kernel_dims: tuple[int, ...] = ()


def _label_monomials(grades: tuple[int, ...], total: int) -> list[tuple]:
    """Exponent vectors a with sum a_i * grades_i equal to the total degree."""
    out: list[tuple] = []

    def rec(i: int, remaining: int, prefix: tuple):
        if i == len(grades):
            if remaining == 0:
                out.append(prefix)
            return
        step = grades[i]
        top = remaining // step
        for a in range(top + 1):
            rec(i + 1, remaining - a * step, prefix + (a,))

    rec(0, total, ())
    return out


def _monomial_value(presentation: Presentation, a: tuple) -> tuple:
    d = len(presentation.generators[0].degree[1])
    total = [0] * d
    for count, gen in zip(a, presentation.generators):
        if count:
            for i, c in enumerate(gen.degree[1]):
                total[i] += count * c
    return tuple(total)


def _degree_monomials(presentation: Presentation, degree: int) -> tuple[list, dict]:
    """Label monomials of a degree, ordered by (value, exponent), and their index."""
    monomials = sorted(
        _label_monomials(presentation.grades, degree),
        key=lambda a: (_monomial_value(presentation, a), a),
    )
    return monomials, {a: j for j, a in enumerate(monomials)}


class _Evaluator:
    """Memoized evaluation of label monomials in the polynomial model."""

    def __init__(self, presentation: Presentation):
        self.lifts = [g.lift for g in presentation.generators]
        one = Polynomial.constant(presentation.model_variables, presentation.field.one)
        self.cache = {(0,) * presentation.size: one}

    def __call__(self, a: tuple) -> Polynomial:
        if a not in self.cache:
            i = next(j for j, c in enumerate(a) if c)
            self.cache[a] = self(a[:i] + (a[i] - 1,) + a[i + 1 :]) * self.lifts[i]
        return self.cache[a]


def _check_cap(rows: int, cols: int, cap: int, where: str) -> None:
    if rows * cols > cap:
        raise ResourceCapError(f"matrix cap exceeded {where}: {rows}x{cols} > {cap}")


def _multiples(relations, presentation: Presentation, degree: int) -> list[tuple]:
    """(i, b) for every label monomial b lifting relations[i] to the degree."""
    return [
        (i, b)
        for i, rel in enumerate(relations)
        if rel.degree[0] <= degree
        for b in presentation.degree_monomials(degree - rel.degree[0])[0]
    ]


def _shifted_row(poly: Polynomial, b: tuple, mon_index: dict) -> dict:
    """The sparse row, over monomial indices, of poly times the monomial b."""
    row = {}
    for exp, c in poly.terms:
        j = mon_index.get(tuple(x + y for x, y in zip(exp, b)))
        if j is None:
            raise InvariantError("relation multiple leaves the expected degree")
        row[j] = c
    return row


def kernel_ideal_truncated(
    presentation: Presentation,
    relation_degree: int,
    matrix_cap: int = DEFAULT_MATRIX_CAP,
) -> RelationSet:
    """Minimal generators of the kernel ideal up to the truncation degree.

    In each degree d the kernel K_d of the monomial evaluation map, with
    columns read straight off the evaluated polynomials, is computed exactly
    in its reduced echelon basis {k_q}.  The fresh relations are the k_q
    whose pivot q is not a pivot of the span O_d of the lower relations'
    multiples: K_d's reduced echelon basis is unique; O_d lies in K_d, so
    every pivot of O_d is one of K_d; and an element of K_d is zero at every
    pivot of O_d exactly when it is in the span of those k_q.  So the output
    is canonical, in ascending pivot order.
    Monomial columns are ordered by (value, exponent), which places each
    relation's pivot inside its initial form.  Every kernel dimension is
    kept for the flatness check.
    """
    if relation_degree < 1:
        raise ValidationError("relation truncation degree must be at least 1")
    field = presentation.field
    labels = presentation.labels
    evaluate = _Evaluator(presentation)
    relations: list[Relation] = []
    leads: list[tuple] = []  # each relation's pivot monomial
    kernel_dims = [0]
    for degree in range(1, relation_degree + 1):
        monomials, mon_index = presentation.degree_monomials(degree)
        multiples = _multiples(relations, presentation, degree)
        # The column order is a monomial order, so b * relation has pivot
        # b + lead: multiples with distinct pivots are independent kernel
        # elements, a lower bound on the kernel dimension known in advance.
        least = len({tuple(x + y for x, y in zip(leads[i], b)) for i, b in multiples})
        where = f"reducing degree-{degree} relations"
        _check_cap(len(multiples) + least, len(monomials), matrix_cap, where)
        columns: dict = {}
        for j, a in enumerate(monomials):
            for exp, c in evaluate(a).terms:
                columns.setdefault(exp, {})[j] = c
        _check_cap(len(monomials), len(columns), matrix_cap, f"in degree {degree}")
        kernel = echelon.nullspace(
            columns.values(), len(monomials), field.one, max_cells=matrix_cap
        )
        kernel_dims.append(len(kernel))
        _check_cap(len(multiples) + len(kernel), len(monomials), matrix_cap, where)
        old = echelon.Echelon()
        for i, b in multiples:
            old.insert(_shifted_row(relations[i].poly, b, mon_index))
        for vec in kernel:
            pivot = min(vec)
            if pivot in old.rows:
                continue
            coeffs = {monomials[j]: c for j, c in vec.items()}
            value = _monomial_value(presentation, monomials[pivot])
            relations.append(Relation(Polynomial.from_dict(labels, coeffs), (degree, value)))
            leads.append(monomials[pivot])
    return RelationSet(tuple(relations), relation_degree, tuple(kernel_dims))


# ---------------------------------------------------------------------------
# Initial forms and the Rees family.

def initial_form(poly: Polynomial, presentation: Presentation, pi: WeightVector) -> Polynomial:
    """Sum of the terms of maximal total weight under the generator weights."""
    if poly.is_zero:
        raise ValidationError("the zero relation has no initial form")
    weights = [pi.weight(g.degree) for g in presentation.generators]
    term_weight = {
        exp: sum(a * w for a, w in zip(exp, weights)) for exp, _ in poly.terms
    }
    top = max(term_weight.values())
    kept = {exp: c for exp, c in poly.terms if term_weight[exp] == top}
    return Polynomial.from_dict(poly.variables, kept)


def rees_relations(
    relation_set: RelationSet,
    presentation: Presentation,
    pi: WeightVector,
) -> RelationSet:
    """Homogenize each relation into the one-parameter family equation.

    Every term receives the parameter raised to the weight deficit against
    the initial form, so setting the parameter to one recovers the relation
    and setting it to zero leaves the initial form.
    """
    weights = [pi.weight(g.degree) for g in presentation.generators]
    labels = presentation.labels
    rees_vars = labels + (REES_PARAMETER,)
    enriched = []
    for rel in relation_set.relations:
        bar = initial_form(rel.poly, presentation, pi)
        top = sum(a * w for a, w in zip(bar.terms[0][0], weights))
        coeffs = {}
        for exp, c in rel.poly.terms:
            deficit = top - sum(a * w for a, w in zip(exp, weights))
            if deficit < 0:
                raise InvariantError("weight vector fails order preservation")
            coeffs[exp + (deficit,)] = c
        rees = Polynomial.from_dict(rees_vars, coeffs)
        enriched.append(replace(rel, initial=bar, weight=top, rees=rees))
    return replace(relation_set, relations=tuple(enriched))


def specialize_rees(relation: Relation, presentation: Presentation, tau) -> Polynomial:
    """The family equation at a fixed parameter value, in the labels."""
    if relation.rees is None:
        raise ValidationError("relation has no family form yet")
    labels = presentation.labels
    values = {REES_PARAMETER: Polynomial.constant(labels, tau)}
    return relation.rees.substitute(values, labels)


def fiber_check(
    relation_set: RelationSet,
    presentation: Presentation,
    pi: WeightVector,
    t0,
) -> bool:
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
        expected = rel.poly.scale(t0 ** rel.weight)
        if specialized != expected:
            return False
    return True


# ---------------------------------------------------------------------------
# Flatness certificates.

@dataclass(frozen=True)
class FlatnessRow:
    degree: int
    quotient_dim: int
    initial_quotient_dim: int
    semigroup_count: int


@dataclass(frozen=True)
class FlatnessReport:
    rows: tuple[FlatnessRow, ...]
    binomial_initial: bool
    verdict: bool
    checked_degree: int


def flatness_report(
    presentation: Presentation,
    relation_set: RelationSet,
    gamma: GradedSemigroup,
    check_degree: int,
    matrix_cap: int = DEFAULT_MATRIX_CAP,
) -> FlatnessReport:
    """Degreewise Hilbert comparison of the generic fiber, the special fiber,
    and the semigroup algebra, plus a binomial-shape check on the special fiber.

    The generic fiber is not eliminated again: its degree-d dimension is the
    number of label monomials less the kernel dimension the relation pass
    recorded.  The special fiber is the echelon form of the initial-form
    multiples.
    """
    if relation_set.truncation_degree < check_degree:
        raise ValidationError("relations were not computed far enough")
    if gamma.max_degree < check_degree:
        raise ValidationError("semigroup was not built far enough")
    if any(rel.initial is None for rel in relation_set.relations):
        raise ValidationError("initial forms missing; run the homogenization first")
    if len(relation_set.kernel_dims) <= check_degree:
        raise ValidationError("kernel dimensions missing; use kernel_ideal_truncated")
    field = presentation.field
    rows = []
    binomial = True
    for degree in range(0, check_degree + 1):
        monomials, mon_index = presentation.degree_monomials(degree)
        multiples = _multiples(relation_set.relations, presentation, degree)
        _check_cap(len(multiples), len(monomials), matrix_cap, "in the flatness check")
        special = echelon.Echelon()
        for i, b in multiples:
            special.insert(_shifted_row(relation_set.relations[i].initial, b, mon_index))
        for row in special.rows.values():  # every pivot coefficient is one
            ends = sorted(row)
            binomial = binomial and (
                len(ends) == 2
                and row[ends[1]] == -field.one
                and _monomial_value(presentation, monomials[ends[0]])
                == _monomial_value(presentation, monomials[ends[1]])
            )
        generic = len(monomials) - relation_set.kernel_dims[degree]
        initial = len(monomials) - len(special.rows)
        rows.append(FlatnessRow(degree, generic, initial, len(gamma.slice(degree))))
    verdict = all(
        r.quotient_dim == r.initial_quotient_dim == r.semigroup_count for r in rows
    )
    return FlatnessReport(tuple(rows), binomial, verdict, check_degree)


# ---------------------------------------------------------------------------
# End-to-end pipelines.

@dataclass(frozen=True)
class DegenerationReport:
    presentation: Presentation
    weight_vector: WeightVector
    generator_weights: tuple[int, ...]
    relations: RelationSet
    flatness: FlatnessReport
    gamma: GradedSemigroup
    max_degree: int
    relation_degree: int


def weight_vector_for(
    presentation: Presentation, relation_set: RelationSet
) -> WeightVector:
    """Canonical weight vector from relation degree differences and generators."""
    return choose_weight_vector(
        _difference_points(presentation, relation_set),
        dim=len(presentation.generators[0].degree[1]),
    )


def _difference_points(presentation: Presentation, relation_set: RelationSet) -> set:
    """Generator degrees, and (0, u - v) for each term value v of a relation of value u."""
    pts = {(m, *u) for m, u in presentation.degrees}
    for rel in relation_set.relations:
        for exp, _ in rel.poly.terms:
            value = _monomial_value(presentation, exp)
            pts.add((0, *(x - y for x, y in zip(rel.degree[1], value))))
    return pts


def run_degeneration(
    presentation: Presentation,
    gamma: GradedSemigroup,
    relation_degree: int,
    matrix_cap: int = DEFAULT_MATRIX_CAP,
) -> DegenerationReport:
    kernel = kernel_ideal_truncated(presentation, relation_degree, matrix_cap)
    pi = weight_vector_for(presentation, kernel)
    enriched = rees_relations(kernel, presentation, pi)
    flatness = flatness_report(presentation, enriched, gamma, relation_degree, matrix_cap)
    weights = tuple(pi.weight(g.degree) for g in presentation.generators)
    return DegenerationReport(
        presentation,
        pi,
        weights,
        enriched,
        flatness,
        gamma,
        gamma.max_degree,
        relation_degree,
    )


def default_relation_degree(presentation: Presentation) -> int:
    return 2 * max(presentation.grades)


def degenerate_section_space(
    space: SectionSpace,
    max_degree: int,
    relation_degree: int | None = None,
    cap_monomials: int = DEFAULT_MONOMIAL_CAP,
    matrix_cap: int = DEFAULT_MATRIX_CAP,
) -> DegenerationReport:
    """Full pipeline for a polynomial linear system: the semigroup is extended to
    the relation degree by resuming the subduction that presented it."""
    presentation, ring = _present(space, max_degree, cap_monomials)
    depth = relation_degree or default_relation_degree(presentation)
    gamma = ring.semigroup(max(max_degree, depth))
    return run_degeneration(presentation, gamma, depth, matrix_cap)


def degenerate_semigroup(
    generators,
    max_degree: int,
    relation_degree: int | None = None,
    matrix_cap: int = DEFAULT_MATRIX_CAP,
    cap_monomials: int = DEFAULT_MONOMIAL_CAP,
) -> DegenerationReport:
    """Full pipeline for an abstract finitely generated value semigroup."""
    presentation = presentation_from_generators(generators)
    depth = relation_degree or default_relation_degree(presentation)
    gamma = gamma_from_generators(generators, max(max_degree, depth), cap_monomials=cap_monomials)
    return run_degeneration(presentation, gamma, depth, matrix_cap)


# ---------------------------------------------------------------------------
# Compatibility checks.

@dataclass(frozen=True)
class CompatibilityRecord:
    shared_pi: WeightVector
    body_inclusion: bool
    checked_degree: int
    relation_degree: int


def subsystem_compatibility(
    subsystem: SectionSpace,
    space: SectionSpace,
    max_degree: int,
    relation_degree: int | None = None,
    cap_monomials: int = DEFAULT_MONOMIAL_CAP,
    matrix_cap: int = DEFAULT_MATRIX_CAP,
) -> CompatibilityRecord:
    """A single weight vector valid for both degenerations, plus body inclusion."""
    if not is_subspace(subsystem, space):
        raise ValidationError("the subsystem is not contained in the ambient system")
    systems = [_present(v, max_degree, cap_monomials) for v in (space, subsystem)]
    depth = relation_degree or max(default_relation_degree(p) for p, _ in systems)
    union = set().union(
        *(_difference_points(p, kernel_ideal_truncated(p, depth, matrix_cap)) for p, _ in systems)
    )
    shared_pi = choose_weight_vector(union, dim=len(space.variables))
    body_big, body_small = (okounkov_body_estimate(r.semigroup(max_degree)) for _, r in systems)
    inclusion = all(body_big.contains(v) for v in body_small.vertices)
    return CompatibilityRecord(shared_pi, inclusion, max_degree, depth)


@dataclass(frozen=True)
class RestrictionRecord:
    face: RationalPolytope
    restricted_body: RationalPolytope
    match: bool
    checked_degree: int


def flag_restriction_check(
    space: SectionSpace,
    r: int,
    max_degree: int,
    cap_monomials: int = DEFAULT_MONOMIAL_CAP,
) -> RestrictionRecord:
    """Body of the restricted system against the vanishing-coordinate face."""
    dim = len(space.variables)
    if not 0 <= r <= dim:
        raise ValidationError(f"restriction index {r} out of range")
    ambient_body = okounkov_body_estimate(build_gamma(space, max_degree, cap_monomials))
    if r == 0:
        return RestrictionRecord(ambient_body, ambient_body, True, max_degree)
    restricted = restricted_system(space, (0,) * r)
    if restricted.is_zero:
        raise ValidationError(
            "every section vanishes on the flag member; restriction undefined"
        )
    if r == dim:
        restricted_body = RationalPolytope(0, ((),), (), 0)
    else:
        restricted_body = okounkov_body_estimate(
            build_gamma(restricted, max_degree, cap_monomials)
        )
    face = face_restriction(ambient_body, r)
    return RestrictionRecord(
        face, restricted_body, polytopes_equal(face, restricted_body), max_degree
    )
