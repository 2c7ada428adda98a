"""Toric degenerations: weight vectors, presentations, kernel ideals, Rees families.

The flow is: take the minimal generators of the graded value semigroup from
its subduction (`semigroups.Subduction`) and lift each (m, u) to the
reduced-basis element of V^m with leading exponent u by the same
subduction, with no power space built; extend the semigroup to the relation
degree by resuming the subduction; compute the kernel of the induced
polynomial presentation degree by degree and read the fresh relations off
the kernel basis pivots that the lower relations' multiples miss.  Binomial
relations are read off union-find components of the monomials, with no
polynomial evaluated when the lifts are monomials; otherwise the sparse
exact echelon engine (`okv.echelon`) eliminates the evaluated columns.
Over Q that runs on ints: each lift is evaluated scaled by the lcm of its
denominators (`_Evaluator`), and only a fresh relation's kernel vector is
read back in `Fraction`s; the lower relations' multiples and the special
fibre enter the engine as `Fraction` rows, which it scales to ints, and
only their pivots and binomial ends are read, which scaling keeps.  Over
F_p every row keeps pivot one.  Then collapse the modified order on the
finitely many degrees that occur to a single integer weighting; homogenize each relation into a one-parameter
family interpolating between the relation and its initial form; certify
flatness by matching three Hilbert functions degreewise, the generic one
taken from the kernel dimensions of the relation pass.  The label
monomials of each degree are enumerated once per presentation, as columns
and as shifts of relation multiples.  They stay packed ints
(`semigroups._Packing`, wide enough for the pass's relation degree): a
degree is the sumset of the lower degrees plus each generator, keyed by
value * W + exponent so that int order is (value, exponent) order, a shift
is one int addition, and evaluations are sorted lists of packed model
exponents; a relation's polynomial decodes only its own terms.  Every
matrix cap is checked before the step it bounds: the number of relation
multiples in a degree follows from monomial counts, before any monomial of
it is evaluated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (DEFAULT_MATRIX_CAP, DEFAULT_MONOMIAL_CAP, InvariantError,
                     ValidationError, check_cap)
from . import echelon
from .echelon import integral, monic
from .fields import QQ
from .polynomials import Polynomial, Record, polynomial_field
from .semigroups import (
    DEGREES_CAP,
    GradedPoint,
    GradedSemigroup,
    Subduction,
    _Packing,
    build_gamma,
    gamma_from_generators,
    hilbert_counts,
    minimal_generators,
    okounkov_body_estimate,
)
from .spaces import SectionSpace, is_subspace
from .valuation import restricted_system
from .polytopes import RationalPolytope, face_restriction, polytopes_equal

REES_PARAMETER = "t"
_REDUCING_CAP = "matrix cap exceeded reducing degree-%d relations"
_DEGREE_CAP = "matrix cap exceeded in degree %d"
_LEAVES = "relation multiple leaves the expected degree"


class WeightVector(NamedTuple):
    """Integer linear form (m, u) -> a0*m - sum(ai*ui) collapsing the order."""

    alphas: tuple[int, ...]

    def weight_flat(self, flat) -> int:
        if len(flat) != len(self.alphas):
            raise ValidationError("point dimension does not match the weight vector")
        return self.alphas[0] * flat[0] - sum(
            a * c for a, c in zip(self.alphas[1:], flat[1:])
        )

    def weight(self, point: GradedPoint) -> int:
        return self.weight_flat((point[0], *point[1]))


def choose_weight_vector(points, dim: int) -> WeightVector:
    """Smallest canonical weights preserving the modified order on the set.

    Zero and the standard basis of the graded orthant are always included.
    The gap constant is one more than the largest coordinate difference over
    pairs, and each weight is the least integer exceeding the gap constant
    times the sum of the later weights.
    """
    pts = {tuple(int(c) for c in p) for p in points}
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


# ---------------------------------------------------------------------------
# Presentations.

class PresentationGenerator(NamedTuple):
    label: str
    degree: GradedPoint
    lift: Polynomial


class Presentation(Record):
    """Labelled semigroup generators together with their section lifts.  The
    packings and enumerated label monomials are caches, outside equality."""

    _fields = ("generators", "model_variables", "field")
    __slots__ = _fields + ("_packings", "_monomials")

    def __init__(self, generators: tuple[PresentationGenerator, ...],
                 model_variables: tuple[str, ...], field):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "model_variables", model_variables)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_packings", [])
        object.__setattr__(self, "_monomials", [])

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

    def packings(self, degree: int = 0) -> tuple[_Packing, _Packing]:
        """The label-exponent and value packings, wide enough for the label
        monomials of the degree.  A wider request replaces both and drops the
        degrees enumerated in the old ones."""
        if not self._packings or self._packings[0].bound < degree:
            largest = max([1, *(abs(c) for _, u in self.degrees for c in u)])
            bound = max(1, degree)
            self._packings[:] = (_Packing(self.size, bound),
                                 _Packing(len(self.degrees[0][1]), bound * largest))
            self._monomials.clear()
        return self._packings[0], self._packings[1]

    def degree_monomials(self, degree: int) -> tuple[list, dict, list]:
        """`_degree_monomials`, enumerated and valued once per degree and shared
        by every kernel and flatness pass over this presentation."""
        self.packings(degree)
        for d in range(len(self._monomials), degree + 1):
            self._monomials.append(_degree_monomials(self, d))
        return self._monomials[degree][1:]

    def pack_terms(self, poly: Polynomial) -> list:
        """(packed label exponent, coefficient) for each term of a polynomial in
        the labels.  An exponent beyond the label packing is no label monomial
        of a prepared degree: it packs to the label base to the size, past every
        packed monomial, so no multiple of it aliases one."""
        labels, _ = self.packings()
        past = labels.base ** self.size
        return [(labels.pack(e) if all(0 <= c <= labels.bound for c in e) else past, c)
                for e, c in poly.terms]


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
    negative = [(m, list(u)) for m, u in gens if min(u, default=0) < 0]
    if negative:
        raise ValidationError(
            f"degenerations need non-negative generator values, got {negative[0]}")
    variables = ("s",) + tuple(f"t{i}" for i in range(1, d + 1))
    out = []
    for i, (m, u) in enumerate(gens, start=1):
        lift = Polynomial.monomial(variables, (m, *u), Fraction(1))
        out.append(PresentationGenerator(f"X{i}", (m, u), lift))
    return Presentation(tuple(out), variables, QQ)


# ---------------------------------------------------------------------------
# Truncated kernel ideals.

class Relation(NamedTuple):
    """A polynomial identity among the generator labels."""

    poly: Polynomial
    degree: GradedPoint
    initial: Polynomial | None = None
    weight: int | None = None
    rees: Polynomial | None = None


class RelationSet(NamedTuple):
    """Relations up to a truncation degree; `kernel_dims[d]` is the dimension
    of the whole degree-d kernel, multiples of lower relations included."""

    relations: tuple[Relation, ...]
    truncation_degree: int
    kernel_dims: tuple[int, ...] = ()


def _degree_monomials(presentation: Presentation, degree: int) -> tuple:
    """Label monomials of a degree as packed exponents ordered by (value,
    exponent), their index, and their values, each computed once.  Each is
    keyed by the single int value * W + exponent, W the label base to the
    size, so the degree is the sumset of the keys of degree d - grade_i plus
    generator i's key, and int order is (value, exponent) order.  The keys
    come first, for the degrees above."""
    labels, values = presentation.packings()
    width = labels.base ** presentation.size
    keys = set()
    if not degree:
        keys.add(0)
    for i, (grade, u) in enumerate(presentation.degrees):
        if grade <= degree:
            step = values.pack(u) * width + labels.base ** (presentation.size - 1 - i)
            keys.update(map(step.__add__, presentation._monomials[degree - grade][0]))
    keys = sorted(keys)
    monomials = list(map(width.__rmod__, keys))
    valued = list(values.unpack(list(map(width.__rfloordiv__, keys))))
    return keys, monomials, dict(zip(monomials, range(len(monomials)))), valued


def _monomial_lifts(presentation: Presentation) -> bool:
    """Whether every lift is x^u or s^m t^u with coefficient one, as in the
    monomial model: then a label monomial evaluates to the monomial of its
    value, and the fibres of a degree are its runs of equal value."""
    one = presentation.field.one
    return all(
        len(g.lift.terms) == 1
        and g.lift.terms[0][1] == one
        and g.lift.terms[0][0] in (g.degree[1], (g.degree[0], *g.degree[1]))
        for g in presentation.generators
    )


class _Evaluator:
    """Memoized evaluation of packed label monomials in the polynomial model:
    each is a sorted list of (packed model exponent, coefficient), formed as
    one product of a lower evaluation with one lift.  Over Q lift i is
    scaled by s_i, the lcm of its denominators, so every evaluation is an
    int vector, that of label monomial a scaled by s^a (`scales`, kept only
    when some s_i is not one); `one` is then the int 1."""

    def __init__(self, presentation: Presentation):
        labels, _ = presentation.packings()
        lifts = [dict(g.lift.terms) for g in presentation.generators]
        self.sigmas = [integral(lift) or 1 for lift in lifts]
        self.scales = {0: 1} if any(s != 1 for s in self.sigmas) else None
        # a label monomial of degree d is a product of at most d lifts
        self.model = _Packing(len(presentation.model_variables), labels.bound * max(
            [1, *(c for lift in lifts for e in lift for c in e)]))
        self.units = [labels.base ** k for k in range(presentation.size - 1, -1, -1)]
        one = presentation.field.one
        self.one = one = 1 if type(one) is Fraction else one
        # each lift term with its coefficient, or None for a coefficient one
        self.lifts = [[(self.model.pack(e), None if c == one else c) for e, c in lift.items()]
                      for lift in lifts]
        self.cache = {0: [(0, one)]}

    def __call__(self, a: int) -> list:
        if a not in self.cache:
            # the first nonzero coordinate of a is the first unit not above it
            i = next(i for i, unit in enumerate(self.units) if unit <= a)
            rest, acc = self(a - self.units[i]), {}
            for e, c in self.lifts[i]:
                for f, d in rest if c is None else [(f, c * d) for f, d in rest]:
                    s = acc.get(e + f)
                    acc[e + f] = d if s is None else s + d
            self.cache[a] = [t for t in sorted(acc.items()) if t[1]]
            if self.scales is not None:
                self.scales[a] = self.scales[a - self.units[i]] * self.sigmas[i]
        return self.cache[a]

    def read_back(self, w: dict, monomials: list) -> dict:
        """The kernel vector k over the field, k_f = 1 at its least key f, from a
        kernel vector w of the evaluated columns: over Q, w is an int vector
        and k_j = s^a_j w_j / (s^a_f w_f), a_j = monomials[j]; over F_p,
        w_f is one and k is w."""
        if self.scales is not None:
            w = {j: c * self.scales[monomials[j]] for j, c in w.items()}
        return monic(w, w[min(w)])


def _multiples(relations, presentation: Presentation, degree: int) -> list[tuple]:
    """(i, b) for every packed label monomial b lifting relations[i] to the degree."""
    return [
        (i, b)
        for i, rel in enumerate(relations)
        if rel.degree[0] <= degree
        for b in presentation.degree_monomials(degree - rel.degree[0])[0]
    ]


def _shifted_row(terms: list, b: int, mon_index: dict) -> dict:
    """The sparse row, over monomial indices, of the packed terms times the monomial b."""
    try:
        return {mon_index[exp + b]: c for exp, c in terms}
    except KeyError:
        raise InvariantError(_LEAVES) from None


def _binomial_ends(terms: dict, one) -> tuple | None:
    """(a, c) when the terms {exponent: coefficient} are ±(x^a - x^c), else None."""
    if len(terms) == 2:
        (a, x), (c, y) = terms.items()
        if not x + y and x in (one, -one):
            return a, c
    return None


def _component_roots(mon_index: dict, ends: list, multiples) -> list[int] | None:
    """Union-find over a degree's monomials: every multiple (i, b) of the
    binomial x^a - x^c, (a, c) = ends[i], joins a + b with c + b.  Returns the
    root of each monomial, the greatest index of its component; None unless
    every multiple is of a binomial."""
    if not all(ends[i] for i, _ in multiples):
        return None
    parent = list(range(len(mon_index)))

    def find(j):
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        return j

    try:
        for i, b in multiples:
            a, c = ends[i]
            x, y = find(mon_index[a + b]), find(mon_index[c + b])
            if x != y:
                parent[min(x, y)] = max(x, y)
    except KeyError:
        raise InvariantError(_LEAVES) from None
    return [find(j) for j in range(len(parent))]


def kernel_ideal_truncated(
    presentation: Presentation,
    relation_degree: int,
    matrix_cap: int = DEFAULT_MATRIX_CAP,
) -> RelationSet:
    """Minimal generators of the kernel ideal up to the truncation degree.

    In each degree d the kernel K_d of the monomial evaluation map is taken
    in its reduced echelon basis {k_q}, over monomial columns ordered by
    (value, exponent), a monomial order.  The fresh relations are the k_q
    whose pivot q is not a pivot of the span O_d of the lower relations'
    multiples (O_d lies in K_d, whose reduced basis is unique), so the output
    is canonical, in ascending pivot order.  With monomial lifts K_d is
    spanned by e_f - e_last(F) over the fibres F, the runs of equal value;
    every relation is such a binomial x^a - x^c, and the pivots of O_d are
    the monomials but each component's greatest, joining a+b with c+b for
    every multiple (i, b) (Sturmfels, Gröbner Bases and Convex Polytopes,
    ch. 4-5).  Otherwise K_d is the nullspace of the evaluated columns; if
    every lower relation's least-value part is a binomial, a spanning
    forest's multiples are independent, so O_d = K_d when #monomials -
    #components is dim K_d; failing that, O_d is eliminated.
    """
    if relation_degree < 1:
        raise ValidationError("relation truncation degree must be at least 1")
    one = presentation.field.one
    labels, _ = presentation.packings(relation_degree)
    monomial = _monomial_lifts(presentation)
    evaluate = None if monomial else _Evaluator(presentation)
    relations: list[Relation] = []
    terms: list[list] = []  # each relation's packed terms
    leads: list[int] = []  # each relation's pivot monomial
    ends: list = []  # the binomial ends of each relation's least-value part, or None
    kernel_dims = [0]
    for degree in range(1, relation_degree + 1):
        monomials, mon_index, values = presentation.degree_monomials(degree)
        multiples = _multiples(relations, presentation, degree)
        # The column order is a monomial order, so b * relation has pivot
        # b + lead: multiples with distinct pivots are independent kernel
        # elements, a lower bound on the kernel dimension known in advance.
        least = len({leads[i] + b for i, b in multiples})
        check_cap((len(multiples) + least, len(monomials)), matrix_cap, _REDUCING_CAP, degree)
        if monomial:  # {f: q} for the basis e_f - e_q, q the last of f's fibre (a column)
            last = list(range(len(values)))
            for j in range(len(values) - 2, -1, -1):
                if values[j] == values[j + 1]:
                    last[j] = last[j + 1]
            kernel = {f: q for f, q in enumerate(last) if f != q}
            check_cap((len(monomials), len(last) - len(kernel)), matrix_cap, _DEGREE_CAP, degree)
            check_cap((len(kernel), len(monomials)), matrix_cap, echelon.BASIS_CAP)
        else:
            columns: dict = {}
            for j, a in enumerate(monomials):
                for exp, c in evaluate(a):
                    columns.setdefault(exp, {})[j] = c
            check_cap((len(monomials), len(columns)), matrix_cap, _DEGREE_CAP, degree)
            if degree == relation_degree:
                evaluate.cache.clear()  # no later degree reads the evaluations
            basis = echelon.nullspace(columns.values(), len(monomials), evaluate.one,
                                      max_cells=matrix_cap)
            kernel = {min(vec): vec for vec in basis}
        kernel_dims.append(len(kernel))
        check_cap((len(multiples) + len(kernel), len(monomials)), matrix_cap, _REDUCING_CAP,
                  degree)
        roots = _component_roots(mon_index, ends, multiples)
        if roots is not None:
            old = {j for j, r in enumerate(roots) if r != j}  # the pivots of O_d
        if roots is None or not (monomial or len(old) == len(kernel)):
            form = echelon.Echelon()
            for i, b in multiples:
                form.insert(_shifted_row(terms[i], b, mon_index))
            old = form.rows
        for pivot in kernel:
            if pivot in old:
                continue
            if monomial:
                vec = {pivot: one, kernel[pivot]: -one}
            else:
                vec = evaluate.read_back(kernel[pivot], monomials)
            row = sorted((monomials[j], c) for j, c in vec.items())  # exponent order
            exps = labels.unpack([e for e, _ in row])
            poly = Polynomial(presentation.labels, tuple(zip(exps, [c for _, c in row])))
            relations.append(Relation(poly, (degree, values[pivot])))
            terms.append(row)
            leads.append(monomials[pivot])
            ends.append(_binomial_ends(
                {monomials[j]: c for j, c in vec.items() if values[j] == values[pivot]}, one))
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
        # top is the largest term weight (initial_form): no deficit is negative
        deficits = {exp + (top - sum(a * w for a, w in zip(exp, weights)),): c
                    for exp, c in rel.poly.terms}
        rees = Polynomial.from_dict(rees_vars, deficits)
        enriched.append(Relation(rel.poly, rel.degree, bar, top, rees))
    return relation_set._replace(relations=tuple(enriched))


# ---------------------------------------------------------------------------
# Flatness certificates.

class FlatnessRow(NamedTuple):
    degree: int
    quotient_dim: int
    initial_quotient_dim: int
    semigroup_count: int


class FlatnessReport(NamedTuple):
    rows: tuple[FlatnessRow, ...]
    binomial_initial: bool
    verdict: bool
    checked_degree: int


def flatness_report(
    presentation: Presentation,
    relation_set: RelationSet,
    gamma: GradedSemigroup,
    matrix_cap: int = DEFAULT_MATRIX_CAP,
) -> FlatnessReport:
    """Degreewise Hilbert comparison of the generic fiber, the special fiber,
    and the semigroup algebra, plus a binomial-shape check on the special fiber,
    in every degree up to the relations' truncation degree.

    The generic fiber is not eliminated again: its degree-d dimension is the
    number of label monomials less the kernel dimension the relation pass
    recorded.  The special fiber is the span of the initial-form multiples.
    When every initial form is a binomial ±(x^a - x^c), its reduced echelon
    rows are e_j - e_root(j) over the union-find components, so its rank is
    #monomials - #components and its rows are binomials of one value exactly
    when each component is; otherwise the multiples are eliminated.
    """
    depth = relation_set.truncation_degree
    if gamma.max_degree < depth:
        raise ValidationError("semigroup was not built far enough")
    if any(rel.initial is None for rel in relation_set.relations):
        raise ValidationError("initial forms missing; run the homogenization first")
    if len(relation_set.kernel_dims) <= depth:
        raise ValidationError("kernel dimensions missing; use kernel_ideal_truncated")
    one = presentation.field.one
    presentation.packings(depth)  # widened before any term is packed
    initials = [presentation.pack_terms(rel.initial) for rel in relation_set.relations]
    ends = [_binomial_ends(dict(terms), one) for terms in initials]
    rows, counts = [], hilbert_counts(gamma)
    binomial = True
    for degree in range(0, depth + 1):
        monomials, mon_index, values = presentation.degree_monomials(degree)
        multiples = _multiples(relation_set.relations, presentation, degree)
        check_cap((len(multiples), len(monomials)), matrix_cap,
                  "matrix cap exceeded in the flatness check")
        roots = _component_roots(mon_index, ends, multiples)
        if roots is None:
            special = echelon.Echelon()
            for i, b in multiples:
                special.insert(_shifted_row(initials[i], b, mon_index))
            pairs = [_binomial_ends(row, one) for row in special.rows.values()]
        else:
            pairs = [(j, r) for j, r in enumerate(roots) if r != j]  # the rows e_j - e_r
        binomial = binomial and all(p and values[p[0]] == values[p[1]] for p in pairs)
        generic = len(monomials) - relation_set.kernel_dims[degree]
        initial = len(monomials) - len(pairs)
        rows.append(FlatnessRow(degree, generic, initial, counts[degree]))
    verdict = all(
        r.quotient_dim == r.initial_quotient_dim == r.semigroup_count for r in rows
    )
    return FlatnessReport(tuple(rows), binomial, verdict, depth)


# ---------------------------------------------------------------------------
# End-to-end pipelines.

class DegenerationReport(NamedTuple):
    presentation: Presentation
    weight_vector: WeightVector
    generator_weights: tuple[int, ...]
    relations: RelationSet
    flatness: FlatnessReport
    gamma: GradedSemigroup


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
        _, mon_index, values = presentation.degree_monomials(rel.degree[0])
        for exp, _ in presentation.pack_terms(rel.poly):
            value = values[mon_index[exp]]
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
    flatness = flatness_report(presentation, enriched, gamma, matrix_cap)
    weights = tuple(pi.weight(g.degree) for g in presentation.generators)
    return DegenerationReport(presentation, pi, weights, enriched, flatness, gamma)


def default_relation_degree(presentation: Presentation) -> int:
    return 2 * max(presentation.grades)


def degenerate_section_space(
    space: SectionSpace,
    max_degree: int,
    relation_degree: int | None = None,
    *,
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
    *,
    cap_monomials: int = DEFAULT_MONOMIAL_CAP,
    matrix_cap: int = DEFAULT_MATRIX_CAP,
) -> DegenerationReport:
    """Full pipeline for an abstract finitely generated value semigroup."""
    presentation = presentation_from_generators(generators)
    depth = relation_degree or default_relation_degree(presentation)
    gamma = gamma_from_generators(generators, max(max_degree, depth), cap_monomials=cap_monomials)
    return run_degeneration(presentation, gamma, depth, matrix_cap)


# ---------------------------------------------------------------------------
# Compatibility checks.

class CompatibilityRecord(NamedTuple):
    shared_pi: WeightVector
    body_inclusion: bool
    checked_degree: int
    relation_degree: int


def subsystem_compatibility(
    subsystem: SectionSpace,
    space: SectionSpace,
    max_degree: int,
    relation_degree: int | None = None,
    *,
    cap_monomials: int = DEFAULT_MONOMIAL_CAP,
    matrix_cap: int = DEFAULT_MATRIX_CAP,
) -> CompatibilityRecord:
    """A single weight vector valid for both degenerations, plus body inclusion."""
    if not is_subspace(subsystem, space):
        raise ValidationError("the subsystem is not contained in the ambient system")
    systems = [_present(v, max_degree, cap_monomials) for v in (space, subsystem)]
    depth = relation_degree or max(default_relation_degree(p) for p, _ in systems)
    check_cap(depth, cap_monomials, DEGREES_CAP)  # the kernel pass has the matrix cap only
    union = set().union(
        *(_difference_points(p, kernel_ideal_truncated(p, depth, matrix_cap)) for p, _ in systems)
    )
    shared_pi = choose_weight_vector(union, dim=len(space.variables))
    body_big, body_small = (okounkov_body_estimate(r.semigroup(max_degree)) for _, r in systems)
    inclusion = all(body_big.contains(v) for v in body_small.vertices)
    return CompatibilityRecord(shared_pi, inclusion, max_degree, depth)


class RestrictionRecord(Record):
    _fields = __slots__ = ("face", "restricted_body", "match", "checked_degree")

    def __init__(self, face: RationalPolytope, restricted_body: RationalPolytope,
                 match: bool, checked_degree: int):
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "restricted_body", restricted_body)
        object.__setattr__(self, "match", match)
        object.__setattr__(self, "checked_degree", checked_degree)


def flag_restriction_check(
    space: SectionSpace,
    r: int,
    max_degree: int,
    cap_monomials: int = DEFAULT_MONOMIAL_CAP,
) -> RestrictionRecord:
    """Body of the restricted system against the vanishing-coordinate face.  At
    r = d both are the point; the restricted system there is in no variables."""
    if not 0 <= r <= len(space.variables):
        raise ValidationError(f"restriction index {r} out of range")
    ambient_body = okounkov_body_estimate(build_gamma(space, max_degree, cap_monomials))
    if r == 0:
        return RestrictionRecord(ambient_body, ambient_body, True, max_degree)
    restricted = restricted_system(space, (0,) * r)
    if restricted.is_zero:
        raise ValidationError(
            "every section vanishes on the flag member; restriction undefined"
        )
    restricted_body = okounkov_body_estimate(build_gamma(restricted, max_degree, cap_monomials))
    face = face_restriction(ambient_body, r)
    return RestrictionRecord(
        face, restricted_body, polytopes_equal(face, restricted_body), max_degree
    )
