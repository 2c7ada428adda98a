"""Graded value semigroups up to a truncation bound, and their convex bodies.

A graded point is a pair (m, u) with m a non-negative degree and u an
integer vector.  The modified total order compares degree first and then
the value part by *reversed* lexicographic order: (m1, u1) <= (m2, u2) iff
m1 < m2, or m1 = m2 and u1 >=lex u2.  A section space's semigroup is read
off one lazy power tower V, V^2, ... (`power_tower`), the only place okv
multiplies spaces; minimal generators come from a membership test, once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InvariantError, ResourceCapError, ValidationError
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

    @cached_property
    def generators(self) -> tuple[GradedPoint, ...]:
        """Minimal generators sorted by (degree, value), found once.  Slices are
        closed under addition, so (m, u) is decomposable iff u - g lies in the
        slice of degree m - deg g for some generator g of lower degree."""
        gens: list[GradedPoint] = []
        for m in range(1, self.max_degree + 1):
            gens += [(m, u) for u in sorted(self.slices[m]) if not any(
                tuple(a - b for a, b in zip(u, g)) in self.slices[m - k] for k, g in gens)]
        return tuple(gens)


def gamma_from_slices(slices, dim: int) -> GradedSemigroup:
    """A semigroup from hand-built slices, which must be closed under addition.
    Every point is a sum of minimal generators, so they are closed iff the
    generators regenerate them."""
    packed = tuple(frozenset(tuple(u) for u in s) for s in slices)
    gamma = GradedSemigroup(dim, len(packed) - 1, packed)
    if gamma_from_generators(gamma.generators, gamma.max_degree, dim).slices != packed:
        raise ValidationError("slices are not closed under addition")
    return gamma


def power_tower(space: SectionSpace, cap_monomials: int = DEFAULT_MONOMIAL_CAP):
    """V, V^2, V^3, ...: lazily, each power once, as the last one times V.  A
    caller may take a prefix and resume the same generator for more."""
    power = space
    while True:
        yield power
        power = product_space(power, space, cap_monomials=cap_monomials)


def gamma_from_tower(tower, flag: FlagSpec, max_degree: int, below=None) -> GradedSemigroup:
    """Valuation images of the powers a tower yields, up to `max_degree`.  The
    slices of `below`, read from the same tower, come first: the tower then
    resumes at degree below.max_degree + 1."""
    slices = list(below.slices) if below else [frozenset({(0,) * flag.dim})]
    while len(slices) <= max_degree:
        slices.append(frozenset(nu_image(next(tower), flag)))
    return GradedSemigroup(flag.dim, len(slices) - 1, tuple(slices))


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
    return gamma_from_tower(power_tower(space, cap_monomials), flag, max_degree)


def gamma_from_generators(
    generators, max_degree: int, dim: int | None = None, cap_monomials=DEFAULT_MONOMIAL_CAP
) -> GradedSemigroup:
    """All natural-number combinations of graded generators up to a degree.  The
    sum_g |slice(m - deg g)| candidates of degree m are capped before it is formed."""
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
        candidates = sum(len(slices[m - gm]) for gm, _ in gens if gm <= m)
        if candidates > cap_monomials:
            raise ResourceCapError(f"monomial cap exceeded closing generators in degree "
                                   f"{m}: {candidates} > {cap_monomials}")
        for gm, gu in gens:
            if gm <= m:
                for w in slices[m - gm]:
                    slices[m].add(tuple(a + b for a, b in zip(w, gu)))
    return GradedSemigroup(dim, max_degree, tuple(frozenset(s) for s in slices))


def minimal_generators(semigroup: GradedSemigroup) -> list[GradedPoint]:
    """Minimal generating set of the truncated semigroup, sorted by (degree, value)."""
    return list(semigroup.generators)


@dataclass(frozen=True)
class GenerationReport:
    """Whether the truncated semigroup is generated by its degree-one slice."""

    status: str  # "generated-in-degree-one" | "strict-growth" | "inconclusive"
    witness: GradedPoint | None
    checked_degree: int


def check_degree_one_generation(semigroup: GradedSemigroup) -> GenerationReport:
    """Read off the minimal generators: the first slice beyond the sums of degree-one
    points holds just the generators of its degree, so the strict-growth witness
    is the least generator of degree above one in the modified order."""
    if semigroup.max_degree < 1:
        return GenerationReport("inconclusive", None, semigroup.max_degree)
    higher = [(m, u) for m, u in semigroup.generators if m > 1]
    if higher:
        witness = min(higher, key=lambda p: (p[0], tuple(-c for c in p[1])))
        return GenerationReport("strict-growth", witness, semigroup.max_degree)
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


def semigroup_normality_check(
    semigroup: GradedSemigroup, cap_monomials: int = DEFAULT_MONOMIAL_CAP
) -> NormalityRecord:
    """Compare the dimension-fold slice with the dilated body's lattice points."""
    d = semigroup.dim
    if semigroup.max_degree < d:
        raise ValidationError(
            f"normality needs the semigroup built to degree {d}, have {semigroup.max_degree}"
        )
    body = okounkov_body_estimate(semigroup)
    expected = lattice_points(body, d, cap_monomials)
    have = set(semigroup.slice(d))
    missing = expected - have
    if have - expected:
        raise InvariantError("slice escapes the dilated body")
    return NormalityRecord(not missing, frozenset(missing), d, len(expected))

