"""Graded value semigroups up to a truncation bound, and their convex bodies.

A graded point is a pair (m, u) with m a non-negative degree and u an
integer vector.  The modified total order compares degree first and then
the value part by *reversed* lexicographic order: (m1, u1) <= (m2, u2) iff
m1 < m2, or m1 = m2 and u1 >=lex u2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError, ValidationError
from .polytopes import RationalPolytope, convex_hull, lattice_points
from .spaces import DEFAULT_MONOMIAL_CAP, SectionSpace, product_space
from .valuation import FlagSpec, nu_image

GradedPoint = tuple  # (degree: int, value: tuple[int, ...])


@dataclass(frozen=True)
class GradedSemigroup:
    """Degree-indexed value sets, complete up to the truncation degree."""

    dim: int
    max_degree: int
    slices: tuple[frozenset, ...]

    def __post_init__(self):
        if self.max_degree < 0 or len(self.slices) != self.max_degree + 1:
            raise ValidationError("slice list must cover degrees 0..max_degree")
        if self.slices[0] != frozenset({(0,) * self.dim}):
            raise ValidationError("degree-0 slice must be exactly the origin")

    def slice(self, m: int) -> frozenset:
        if not 0 <= m <= self.max_degree:
            raise ValidationError(f"degree {m} outside truncation bound {self.max_degree}")
        return self.slices[m]

    def points(self):
        for m, s in enumerate(self.slices):
            for u in sorted(s):
                yield (m, u)


def gamma_from_slices(slices, dim: int) -> GradedSemigroup:
    packed = tuple(frozenset(tuple(u) for u in s) for s in slices)
    return GradedSemigroup(dim, len(packed) - 1, packed)


def sumset(a, b) -> set:
    return {tuple(x + y for x, y in zip(u, v)) for u in a for v in b}


def build_gamma(
    space: SectionSpace,
    flag: FlagSpec,
    max_degree: int,
    cap_monomials: int = DEFAULT_MONOMIAL_CAP,
) -> GradedSemigroup:
    """Valuation images of all powers of a section space up to a degree."""
    if space.is_zero:
        raise ValidationError("cannot build a value semigroup from the zero space")
    if max_degree < 0:
        raise ValidationError("truncation degree must be non-negative")
    d = flag.dim
    slices = [frozenset({(0,) * d})]
    power = space
    for m in range(1, max_degree + 1):
        if m > 1:
            power = product_space(power, space, cap_monomials=cap_monomials)
        slices.append(frozenset(nu_image(power, flag)))
    return GradedSemigroup(d, max_degree, tuple(slices))


def gamma_from_generators(generators, max_degree: int, dim: int | None = None) -> GradedSemigroup:
    """All natural-number combinations of graded generators up to a degree."""
    gens = [(int(m), tuple(int(c) for c in u)) for m, u in generators]
    if any(m < 1 for m, _ in gens):
        raise ValidationError("generator degrees must be at least 1")
    if dim is None:
        if not gens:
            raise ValidationError("dimension required for an empty generator list")
        dim = len(gens[0][1])
    if any(len(u) != dim for _, u in gens):
        raise ValidationError("generators of mixed dimension")
    slices: list[set] = [{(0,) * dim}] + [set() for _ in range(max_degree)]
    for m in range(1, max_degree + 1):
        for gm, gu in gens:
            if gm <= m:
                for w in slices[m - gm]:
                    slices[m].add(tuple(a + b for a, b in zip(w, gu)))
    return GradedSemigroup(dim, max_degree, tuple(frozenset(s) for s in slices))


def minimal_generators(semigroup: GradedSemigroup) -> list[GradedPoint]:
    """Greedy minimal generating set of the truncated semigroup.

    A point is a generator iff it is not a sum of two lower-degree points of
    the semigroup; processing follows the modified order, and the result is
    returned sorted by (degree, value).
    """
    gens: list[GradedPoint] = []
    for m in range(1, semigroup.max_degree + 1):
        decomposable: set = set()
        for a in range(1, m // 2 + 1):
            decomposable |= sumset(semigroup.slice(a), semigroup.slice(m - a))
        fresh = [u for u in semigroup.slice(m) if u not in decomposable]
        for u in sorted(fresh, key=lambda v: tuple(-c for c in v)):
            gens.append((m, u))
    return sorted(gens)


@dataclass(frozen=True)
class GenerationReport:
    """Whether the truncated semigroup is generated by its degree-one slice."""

    status: str  # "generated-in-degree-one" | "strict-growth" | "inconclusive"
    witness: GradedPoint | None
    checked_degree: int


def check_degree_one_generation(semigroup: GradedSemigroup) -> GenerationReport:
    """Compare every slice with the iterated sumset of the degree-one slice."""
    if semigroup.max_degree < 1:
        return GenerationReport("inconclusive", None, semigroup.max_degree)
    reachable = set(semigroup.slice(1))
    first = semigroup.slice(1)
    for m in range(2, semigroup.max_degree + 1):
        reachable = sumset(reachable, first)
        extra = semigroup.slice(m) - reachable
        if extra:
            witness_value = min(extra, key=lambda v: tuple(-c for c in v))
            return GenerationReport("strict-growth", (m, witness_value), semigroup.max_degree)
        missing = reachable - semigroup.slice(m)
        if missing:
            raise ValidationError("slices are not closed under addition")
    return GenerationReport("generated-in-degree-one", None, semigroup.max_degree)


def hilbert_counts(semigroup: GradedSemigroup) -> list[int]:
    """Sizes of the slices; the Hilbert function of the semigroup algebra."""
    return [len(s) for s in semigroup.slices]


def okounkov_body_estimate(semigroup: GradedSemigroup) -> RationalPolytope:
    """Hull of the degree-normalized slices: an inner polytope approximation.

    Exact whenever the semigroup is generated in degrees up to the bound.
    The hull is taken of the normalized minimal generators u/m only, which
    gives the same polytope: if (m, u) = (a, v) + (m - a, w) then
    u/m = (a/m) * v/a + ((m - a)/m) * w/(m - a), so by induction on m every
    normalized slice point is a convex combination of normalized generators.
    """
    points = [tuple(Fraction(c, m) for c in u) for m, u in minimal_generators(semigroup)]
    if not points:
        raise ValidationError("no positive-degree points to take a hull of")
    return convex_hull(points)


@dataclass(frozen=True)
class NormalityRecord:
    normal: bool
    missing: frozenset
    dilation: int
    lattice_count: int


def semigroup_normality_check(semigroup: GradedSemigroup) -> NormalityRecord:
    """Compare the dimension-fold slice with the dilated body's lattice points."""
    d = semigroup.dim
    if semigroup.max_degree < d:
        raise ValidationError(
            f"normality needs the semigroup built to degree {d}, have {semigroup.max_degree}"
        )
    body = okounkov_body_estimate(semigroup)
    expected = lattice_points(body, d)
    have = set(semigroup.slice(d))
    missing = expected - have
    if have - expected:
        raise InvariantError("slice escapes the dilated body")
    return NormalityRecord(not missing, frozenset(missing), d, len(expected))


def normality_check(
    space: SectionSpace,
    flag: FlagSpec,
    max_degree: int | None = None,
    cap_monomials: int = DEFAULT_MONOMIAL_CAP,
) -> NormalityRecord:
    """Normality verdict for a section space, building powers up to max(M, d)."""
    needed = max(max_degree or 0, flag.dim)
    gamma = build_gamma(space, flag, needed, cap_monomials=cap_monomials)
    return semigroup_normality_check(gamma)
