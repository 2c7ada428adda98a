"""Graded value semigroups up to a truncation bound, and their convex bodies.

A graded point is a pair (m, u) with m a non-negative degree and u an
integer vector.  The modified total order compares degree first and then
the value part by *reversed* lexicographic order: (m1, u1) <= (m2, u2) iff
m1 < m2, or m1 = m2 and u1 >=lex u2.

A section space's semigroup is found by degree-truncated subduction, with
no power space V^m ever built (Robbiano-Sweedler, *Subalgebra bases*, 1990;
Kaveh-Manon, *Khovanskii bases, higher rank valuations and tropical
geometry*, 2019).  The valuation is the lex-min term order, and V^m is the
degree-m part of the algebra generated by V, so a generating set G of that
algebra whose values generate the value semigroup Gamma up to degree m - 1
gives Gamma_m = (the sumset of the values of G in degree m) plus the values
of the new generators of degree m.  Those are found from the relations
among the values: the monomials in G of degree m and value v form a fibre,
and two of them are joined when they share a generator g.  Joined
monomials differ by X_g times a relation of lower degree, so a fibre with
k components needs k - 1 relations beyond those of lower degree, and for
each extra component one S-pair, the difference of two monic products of
value v, is subducted (Sturmfels, *Groebner Bases and Convex Polytopes*,
1996, ch. 11): its leading term is cancelled by a product of the same
value while that value is in Gamma_m.  A nonzero remainder, made monic, is
a new generator.  Its value is not a sum of lower values, so the
generators this loop produces are exactly the minimal generators of Gamma.
Values are packed into single ints (`_Packing`) so that the sumsets and
fibre joins are int additions.  The same products, tail-reduced, give each
generator its canonical lift, the element of V^m's reduced basis it leads.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cached_property

from .echelon import subtract
from .errors import InvariantError, ResourceCapError, ValidationError
from .polynomials import Polynomial, polynomial_field
from .polytopes import RationalPolytope, convex_hull, lattice_points
from .spaces import DEFAULT_MONOMIAL_CAP, SectionSpace
from .valuation import nu

GradedPoint = tuple  # (degree: int, value: tuple[int, ...])


@dataclass(frozen=True)
class GradedSemigroup:
    """Degree-indexed value sets, complete up to the truncation degree.  A
    builder that already knows the minimal generators passes them as
    `minimal`; otherwise `generators` searches for them once."""

    dim: int
    max_degree: int
    slices: tuple[frozenset, ...]
    minimal: InitVar[tuple | None] = None

    def __post_init__(self, minimal):
        if self.max_degree < 0 or len(self.slices) != self.max_degree + 1:
            raise ValidationError("slice list must cover degrees 0..max_degree")
        if self.slices[0] != frozenset({(0,) * self.dim}):
            raise ValidationError("degree-0 slice must be exactly the origin")
        if minimal is not None:
            object.__setattr__(self, "generators", tuple(minimal))

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


class _Packing:
    """Value vectors with every |coordinate| <= bound as single ints: u becomes
    sum_i u_i * B^(d-1-i) with B = 2*bound + 1, balanced base-B digits.  Vector
    addition is int addition, and lex order is int order."""

    def __init__(self, dim: int, bound: int):
        self.dim, self.bound, self.base = dim, bound, 2 * bound + 1

    def pack(self, u) -> int:
        packed = 0
        for c in u:
            packed = packed * self.base + c
        return packed

    def unpack(self, packed: int) -> tuple:
        digits = []
        for _ in range(self.dim):
            c = packed % self.base
            if c > self.bound:
                c -= self.base
            digits.append(c)
            packed = (packed - c) // self.base
        return tuple(reversed(digits))


def _degree_step(slices, gens, m: int, cap_monomials: int) -> dict:
    """The sumset of degree m: each packed generator value added to every point
    of the slice of degree m - deg g.  Maps each point to the bitmask of the
    generators (by index) that reach it.  The sum_g |slice(m - deg g)|
    candidates are capped before the degree is formed."""
    candidates = sum(len(slices[m - gm]) for gm, _ in gens if gm <= m)
    if candidates > cap_monomials:
        raise ResourceCapError(f"monomial cap exceeded closing generators in degree "
                               f"{m}: {candidates} > {cap_monomials}")
    reached: dict = {}
    for i, (gm, gu) in enumerate(gens):
        if gm <= m:
            bit = 1 << i
            for w in slices[m - gm]:
                p = w + gu
                reached[p] = reached.get(p, 0) | bit
    return reached


def _components(members: int, joins: list, v: int) -> list[int]:
    """Connected components, as bitmasks sorted by their least generator, of the
    generators in `members`, where joins[i][v] is the bitmask of the generators
    j > i joined to i at v."""
    comps: list[int] = []
    rest = members
    while rest:
        low = rest & -rest
        rest ^= low
        group = low | joins[low.bit_length() - 1].get(v, 0)
        if group == members:
            return [members]
        keep = []
        for c in comps:
            if c & group:
                group |= c
            else:
                keep.append(c)
        comps = keep + [group]
    return sorted(comps, key=lambda c: c & -c)


class Subduction:
    """Degree-truncated subduction of the algebra generated by a section space.

    `semigroup(M)` runs degrees up to M and returns Gamma truncated at M with
    its minimal generators; a later call with a larger M resumes where the
    last one stopped.  The generators start as the reduced basis of V, whose
    pivots are monic, so every product of generators has lead coefficient 1.
    Products of generators are memoised per (degree, value), along the first
    generator that reaches each value.  `cap_monomials` bounds the sumset
    candidates of each degree and the terms of the memoised products, of
    every subduction remainder and of every lift, before they are formed.
    """

    def __init__(self, space: SectionSpace, cap_monomials: int = DEFAULT_MONOMIAL_CAP):
        if space.is_zero:
            raise ValidationError("cannot build a value semigroup from the zero space")
        self.variables, self.dim, self.cap = space.variables, len(space.variables), cap_monomials
        # every value of degree m is an exponent of V^m, so its coordinates
        # are at most m times the largest exponent coordinate in V
        self.extent = max(1, max(c for p in space.basis for e, _ in p.terms for c in e))
        self.packing = _Packing(self.dim, self.extent)
        self.one = polynomial_field(space.basis[0]).one
        if any(p.terms[0][1] != self.one for p in space.basis) or len(
            set(space.leading_exponents())
        ) < space.dimension:
            raise ValidationError("subduction needs a basis with distinct monic pivots")
        self.gens, self.polys, self.products, self.terms = [], [], {}, 0
        self.slices = [{0: 0}, {}]
        self.frozen = [frozenset({(0,) * self.dim})]
        for p in space.basis:
            self._add_generator(1, self.packing.pack(nu(p)), p)

    def semigroup(self, max_degree: int) -> GradedSemigroup:
        """Gamma truncated at `max_degree`, with its minimal generators."""
        if max_degree < 0:
            raise ValidationError("truncation degree must be non-negative")
        if max_degree * self.extent > self.packing.bound:
            self._repack(_Packing(self.dim, 2 * max_degree * self.extent))
        for m in range(len(self.slices), max_degree + 1):
            self._degree(m)
        while len(self.frozen) <= max_degree:
            self.frozen.append(frozenset(map(self.packing.unpack, self.slices[len(self.frozen)])))
        minimal = sorted((m, self.packing.unpack(v)) for m, v in self.gens if m <= max_degree)
        return GradedSemigroup(self.dim, max_degree, tuple(self.frozen[: max_degree + 1]), minimal)

    def _repack(self, packing: _Packing) -> None:
        old, self.packing = self.packing, packing

        def move(p):
            return packing.pack(old.unpack(p))

        self.gens = [(m, move(v)) for m, v in self.gens]
        self.slices = [{move(p): mask for p, mask in s.items()} for s in self.slices]
        self.products = {(m, move(v)): p for (m, v), p in self.products.items()}

    def _charge(self, extra: int) -> None:
        if self.terms + extra > self.cap:
            raise ResourceCapError(f"monomial cap exceeded in subduction: "
                                   f"{self.terms + extra} > {self.cap}")

    def _times(self, i: int, m: int, v: int) -> Polynomial:
        """Generator i times the memoised product of degree m - deg g_i and
        value v - val g_i."""
        gm, gv = self.gens[i]
        rest = self._product(m - gm, v - gv)
        self._charge(len(self.polys[i].terms) * len(rest.terms))
        return self.polys[i] * rest

    def _product(self, m: int, v: int) -> Polynomial:
        """The memoised monic product of degree m and value v."""
        key = (m, v)
        if key not in self.products:
            mask = self.slices[m][v]
            product = self._times((mask & -mask).bit_length() - 1, m, v)
            self.terms += len(product.terms)
            self.products[key] = product
        return self.products[key]

    def _degree(self, m: int) -> None:
        gens = self.gens
        reached = _degree_step(self.slices, gens, m, self.cap)
        self.slices.append(reached)
        # joins, forward: i and j meet in the fibre of every point of the
        # slice of degree m - deg i - deg j, shifted by val i + val j
        joins = [{} for _ in gens]
        for i, (di, vi) in enumerate(gens):
            for j in range(i + 1, len(gens)):
                dj, vj = gens[j]
                if di + dj <= m:
                    table, bit, shift = joins[i], 1 << j, vi + vj
                    for w in self.slices[m - di - dj]:
                        p = w + shift
                        table[p] = table.get(p, 0) | bit
        for v in sorted(reached):
            members = reached[v]
            if not members & (members - 1):
                continue
            comps = _components(members, joins, v)
            for comp in comps[1:]:
                j = (comp & -comp).bit_length() - 1
                pair = dict(self._product(m, v).terms)
                subtract(pair, self.one, self._times(j, m, v).terms)
                self._subduct(m, pair)

    def _cancel(self, m: int, f: dict, e: tuple, v: int) -> None:
        """Cancel the term of f at exponent e (packed value v, in the slice of
        degree m) by the memoised product of value v: only exponents > e change."""
        product = self._product(m, v)
        self._charge(len(f) + len(product.terms))
        subtract(f, f[e], product.terms)

    def _subduct(self, m: int, f: dict) -> None:
        """Reduce f against the slice of degree m; a nonzero remainder, made
        monic, becomes a new generator of degree m."""
        pack, current = self.packing.pack, self.slices[m]
        while f:
            lead = min(f)
            v = pack(lead)
            if v not in current:
                break
            self._cancel(m, f, lead, v)
        else:
            return
        scale = f[lead] ** -1
        self._add_generator(
            m, v, Polynomial.from_dict(self.variables, {e: c * scale for e, c in f.items()})
        )

    def lift(self, m: int, u: tuple) -> Polynomial:
        """The lift of the generator (m, u): the product of value u, tail-reduced
        in ascending order against the slice of degree m, which leaves V^m's
        reduced-basis element with lead u (0 at every other point of the slice)."""
        pack, current = self.packing.pack, self.slices[m]
        f, w = dict(self._product(m, pack(u)).terms), u
        while True:
            w = min((e for e in f if e > w and pack(e) in current), default=None)
            if w is None:
                return Polynomial.from_dict(self.variables, f)
            self._cancel(m, f, w, pack(w))

    def _add_generator(self, m: int, v: int, poly: Polynomial) -> None:
        self.slices[m][v] = 1 << len(self.gens)
        self.gens.append((m, v))
        self.polys.append(poly)
        self.products[(m, v)] = poly
        self.terms += len(poly.terms)


def build_gamma(
    space: SectionSpace,
    max_degree: int,
    cap_monomials: int = DEFAULT_MONOMIAL_CAP,
) -> GradedSemigroup:
    """Valuation images of all powers of a section space up to a degree, with
    their minimal generators, by subduction."""
    return Subduction(space, cap_monomials).semigroup(max_degree)


def gamma_from_slices(slices, dim: int) -> GradedSemigroup:
    """A semigroup from hand-built slices, which must be closed under addition.
    Every point is a sum of minimal generators, so they are closed iff the
    generators regenerate them."""
    packed = tuple(frozenset(tuple(u) for u in s) for s in slices)
    gamma = GradedSemigroup(dim, len(packed) - 1, packed)
    if gamma_from_generators(gamma.generators, gamma.max_degree, dim).slices != packed:
        raise ValidationError("slices are not closed under addition")
    return gamma


def gamma_from_generators(
    generators, max_degree: int, dim: int | None = None, cap_monomials=DEFAULT_MONOMIAL_CAP
) -> GradedSemigroup:
    """All natural-number combinations of graded generators up to a degree, one
    capped `_degree_step` per degree."""
    gens = [(int(m), tuple(int(c) for c in u)) for m, u in generators]
    if any(m < 1 for m, _ in gens):
        raise ValidationError("generator degrees must be at least 1")
    if dim is None:
        if not gens:
            raise ValidationError("dimension required for an empty generator list")
        dim = len(gens[0][1])
    if any(len(u) != dim for _, u in gens):
        raise ValidationError("generators of mixed dimension")
    largest = max((abs(c) for _, u in gens for c in u), default=0)
    packing = _Packing(dim, max(1, max_degree * largest))
    packed = [(m, packing.pack(u)) for m, u in gens]
    slices = [{0: 0}]
    for m in range(1, max_degree + 1):
        slices.append(_degree_step(slices, packed, m, cap_monomials))
    return GradedSemigroup(
        dim, max_degree, tuple(frozenset(map(packing.unpack, s)) for s in slices)
    )


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

