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
each extra component one S-pair, the difference of two products of value
v with their leads cancelled, is subducted (Sturmfels, *Groebner Bases and
Convex Polytopes*, 1996, ch. 11): its leading term is cancelled by a
product of the same value while that value is in Gamma_m.  A nonzero
remainder is a new generator: its value is not a sum of lower values, so
the generators this loop produces are exactly the minimal generators of
Gamma.  Over Q (and Z) the generators, products and remainders are
primitive integer polynomials with a positive lead, and a cancellation is
the fraction-free step of `okv.echelon` (`clear`), so no `Fraction` is
formed until a lift is read; over F_p they are monic.  Either way each is a
positive multiple of its monic counterpart, so values, masks and S-pairs
are those of the monic algebra.
Values are packed into single ints (`_Packing`), so a sumset is int
additions, and each sumset point keeps the bitmask of the generators that
reach it.  Those masks are the one record of how a value decomposes:
generators g and h meet in the fibre of v (some monomial of value v holds
both) when h reaches v - val g, and a point is a minimal generator when no
generator of lower degree reaches it.  A fibre splits only if its least
generator's group (it and those it meets) is not the whole fibre; that group
seeds the closure that grows its component, and only a split fibre grows
the others, in the order of their least generator.  Slices stay packed,
sorted as ints (lex order), until a reader decodes one, as rows or as one int
stream per coordinate (`GradedSemigroup.columns`).  The same products,
tail-reduced and divided by their lead once, give each generator its
canonical lift, the element of V^m's reduced basis it leads.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

from .echelon import clear, integral, monic, normalize
from .errors import DEFAULT_MONOMIAL_CAP, InvariantError, ValidationError, check_cap
from .polynomials import Polynomial, polynomial_field
from .polytopes import RationalPolytope, convex_hull, lattice_points
from .spaces import SectionSpace
from .valuation import nu, nu_image

GradedPoint = tuple  # (degree: int, value: tuple[int, ...])
_SUBDUCTION_CAP = "monomial cap exceeded in subduction"
DEGREES_CAP = "monomial cap exceeded by the number of degrees"  # each stores a slice


class GradedSemigroup:
    """Degree-indexed value sets, complete up to the truncation degree, and
    their minimal generators sorted by (degree, value), which the builder
    fills in.  Each degree comes as its packed ints sorted as ints, which is lex
    order (`_Packing`), and is decoded on every read: `rows(m)` in lex order,
    `columns(m)` as one int stream per coordinate in the same order,
    `slice(m)` as a frozenset, `slices` every degree's.  Semigroups compare by
    content, whatever their packings."""

    def __init__(self, dim: int, max_degree: int, packing, packed: tuple, generators: tuple):
        if max_degree < 0 or len(packed) != max_degree + 1:
            raise ValidationError("slice list must cover degrees 0..max_degree")
        if packed[0] != [0]:
            raise ValidationError("degree-0 slice must be exactly the origin")
        self.dim, self.max_degree, self.generators = dim, max_degree, generators
        self._packing, self._packed = packing, packed

    def __eq__(self, other):
        return isinstance(other, GradedSemigroup) and (self.generators, self.slices) == (
            other.generators, other.slices)

    def __hash__(self):
        return hash(self.generators)

    def _ints(self, m: int) -> list:
        if not 0 <= m <= self.max_degree:
            raise ValidationError(f"degree {m} outside truncation bound {self.max_degree}")
        return self._packed[m]

    def rows(self, m: int) -> tuple:
        """The slice of degree m, its vectors in lex order."""
        return tuple(self._packing.unpack(self._ints(m)))

    def columns(self, m: int) -> list:
        """The slice of degree m as one lazy stream of ints per coordinate, its
        vectors in lex order: the i-th stream yields the i-th coordinates."""
        return self._packing.columns(self._ints(m))

    def slice(self, m: int) -> frozenset:
        return frozenset(self.rows(m))

    @property
    def slices(self) -> tuple:
        return tuple(map(self.slice, range(self.max_degree + 1)))


class _Packing:
    """Value vectors with every |coordinate| <= bound as single ints: u becomes
    sum_i u_i * B^(d-1-i) with B = 2*bound + 1, balanced base-B digits.  Vector
    addition is int addition, and lex order is int order.  `pack` takes one
    vector.  `columns` takes a collection of packed ints (a set, dict or list,
    read once per coordinate) and gives one lazy stream of ints per coordinate,
    in its order; `unpack` zips them into vectors."""

    def __init__(self, dim: int, bound: int):
        self.dim, self.bound, self.base = dim, bound, 2 * bound + 1

    def pack(self, u) -> int:
        packed = 0
        for c in u:
            packed = packed * self.base + c
        return packed

    def columns(self, points) -> list:
        if not self.dim:
            return []
        base, top = self.base, self.base ** (self.dim - 1)
        # adding (B^k - 1)/2 = sum_{i<k} bound * B^i moves the k lowest digits
        # into [0, B): with k = d - 1 the quotient by B^k is the first
        # coordinate, and with k = d every other one is a digit, less bound
        shift, down = ((base * top - 1) // 2).__add__, (-self.bound).__add__
        columns = [map(top.__rfloordiv__, map(((top - 1) // 2).__add__, points))]
        for k in range(self.dim - 2, -1, -1):
            digits = map(shift, points)
            if k:
                digits = map((base**k).__rfloordiv__, digits)
            columns.append(map(down, map(base.__rmod__, digits)))
        return columns

    def unpack(self, points):
        return zip(*self.columns(points)) if self.dim else repeat((), len(points))

    def unpack_graded(self, pairs: list):
        """(m, vector) for each (m, packed int) of a list, streamed."""
        return zip([m for m, _ in pairs], self.unpack([v for _, v in pairs]))


def _degree_step(slices, gens, m: int, cap_monomials: int) -> dict:
    """The sumset of degree m: each packed generator value added to every point
    of the slice of degree m - deg g.  Maps each point to the bitmask of the
    generators (by index) that reach it.  The sum_g |slice(m - deg g)|
    candidates are capped before the degree is formed.

    A finished slice's masks are complete: bit i is set at p iff p - val g_i
    lies in the slice of degree m - deg g_i, for every generator g_i there
    will ever be.  A generator of degree m added after this step reaches only
    its own value (the degree-0 slice is the origin), and none of higher
    degree reaches degree m.  Fibre components and minimality rest on this."""
    check_cap(sum(len(slices[m - gm]) for gm, _ in gens if gm <= m), cap_monomials,
              "monomial cap exceeded closing generators in degree %d", m)
    reached: dict = {}
    for i, (gm, gu) in enumerate(gens):
        if gm <= m:
            bit = 1 << i
            for w in slices[m - gm]:
                p = w + gu
                reached[p] = reached.get(p, 0) | bit
    return reached


def _closure(low: int, members: int, neighbours) -> int:
    """The connected component of generator bit `low` in `members`, a union of
    components, where neighbours(i) is the bitmask of the generators joined to
    i: the split test's group low | neighbours(low), grown by the neighbours of
    each newly reached generator until it is all of `members` or stops growing."""
    done, group = low, low | neighbours(low.bit_length() - 1)
    while group != members and group != done:
        new, done = group & ~done, group
        while new and group != members:
            bit = new & -new
            new ^= bit
            group |= neighbours(bit.bit_length() - 1)
    return group


class Subduction:
    """Degree-truncated subduction of the algebra generated by a section space.

    `semigroup(M)` runs degrees up to M and returns Gamma truncated at M with
    its minimal generators; a later call with a larger M resumes where the
    last one stopped.  The generators start as the reduced basis of V, whose
    pivots are monic; over Q each is scaled by the lcm of its denominators
    to a primitive integer polynomial, and every product of generators is
    then primitive with a positive lead (Gauss's lemma).  Products of
    generators are memoised per (degree, value), along the first generator
    that reaches each value.  The first `semigroup(M)` packs the scaled basis
    with bound 2 * max(M, 1) * E, E the largest exponent coordinate in V, and
    a later call whose M * E outgrows the bound repacks.  `cap_monomials`
    bounds the sumset candidates of each degree and the terms of the memoised
    products, of every subduction remainder and of every lift, before they
    are formed.
    """

    def __init__(self, space: SectionSpace, cap_monomials: int = DEFAULT_MONOMIAL_CAP):
        if space.is_zero:
            raise ValidationError("cannot build a value semigroup from the zero space")
        self.variables, self.dim, self.cap = space.variables, len(space.variables), cap_monomials
        # every value of degree m is an exponent of V^m, so its coordinates
        # are at most m times the largest exponent coordinate in V, if any
        self.extent = max([1, *(c for p in space.basis for e, _ in p.terms for c in e)])
        one = polynomial_field(space.basis[0]).one
        if len(nu_image(space)) < space.dimension or any(
            p.terms[0][1] != one for p in space.basis
        ):
            raise ValidationError("subduction needs a basis with distinct monic pivots")
        self.basis = []
        for p in space.basis:
            if Fraction in {type(c) for _, c in p.terms}:  # monic, so primitive once scaled
                row = dict(p.terms)
                integral(row)
                p = Polynomial(p.variables, tuple(row.items()))
            self.basis.append(p)
        self.packing, self.gens, self.polys, self.products, self.terms = None, [], [], {}, 0
        self.slices, self.ordered = [{0: 0}, {}], []

    def semigroup(self, max_degree: int) -> GradedSemigroup:
        """Gamma truncated at `max_degree`, with its minimal generators."""
        if max_degree < 0:
            raise ValidationError("truncation degree must be non-negative")
        check_cap(max_degree, self.cap, DEGREES_CAP)
        if self.packing is None:  # the degree-one state, packed once for this bound
            self.packing = _Packing(self.dim, 2 * max(max_degree, 1) * self.extent)
            for p in self.basis:
                self._add_generator(1, self.packing.pack(nu(p)), p)
        elif max_degree * self.extent > self.packing.bound:
            self._repack(_Packing(self.dim, 2 * max_degree * self.extent))
        for m in range(len(self.slices), max_degree + 1):
            self._degree(m)
        while len(self.ordered) <= max_degree:
            self.ordered.append(sorted(self.slices[len(self.ordered)]))
        minimal = sorted(g for g in self.gens if g[0] <= max_degree)
        return GradedSemigroup(
            self.dim, max_degree, self.packing, tuple(self.ordered[: max_degree + 1]),
            tuple(self.packing.unpack_graded(minimal)),
        )

    def _repack(self, packing: _Packing) -> None:
        old, self.packing, self.ordered = self.packing, packing, []
        self.gens = [(m, packing.pack(u)) for m, u in old.unpack_graded(self.gens)]
        self.slices = [dict(zip(map(packing.pack, old.unpack(s)), s.values()))
                       for s in self.slices]
        self.products = {
            (m, packing.pack(u)): p
            for (m, u), p in zip(old.unpack_graded([*self.products]), self.products.values())
        }

    def _times(self, i: int, m: int, v: int) -> Polynomial:
        """Generator i times the memoised product of degree m - deg g_i and
        value v - val g_i."""
        gm, gv = self.gens[i]
        rest = self._product(m - gm, v - gv)
        used = self.terms + len(self.polys[i].terms) * len(rest.terms)
        check_cap(used, self.cap, _SUBDUCTION_CAP)
        return self.polys[i] * rest

    def _product(self, m: int, v: int) -> Polynomial:
        """The memoised product of degree m and value v (primitive with a
        positive lead over Q, monic over F_p)."""
        key = (m, v)
        if key not in self.products:
            mask = self.slices[m][v]
            product = self._times((mask & -mask).bit_length() - 1, m, v)
            self.terms += len(product.terms)
            self.products[key] = product
        return self.products[key]

    def _degree(self, m: int) -> None:
        gens, slices = self.gens, self.slices
        reached = _degree_step(slices, gens, m, self.cap)
        slices.append(reached)
        # g_i and g_j meet in the fibre of v iff g_j reaches v - val g_i, which the
        # complete mask of that point records: most fibres join their least g_i
        split = []
        for v, members in reached.items():
            low = members & -members
            gm, gv = gens[low.bit_length() - 1]
            if members != low | slices[m - gm][v - gv]:
                split.append(v)
        # each component of a split fibre after the first gives an S-pair
        for v in sorted(split):
            rest = reached[v]
            neighbours = lambda i: slices[m - gens[i][0]][v - gens[i][1]]
            while rest := rest & ~_closure(rest & -rest, rest, neighbours):
                j = (rest & -rest).bit_length() - 1
                first, other = self._product(m, v), self._times(j, m, v)
                pair = dict(first.terms)
                clear(pair, first.terms[0][1], other.terms[0][1], other.terms)
                self._subduct(m, pair)

    def _cancel(self, m: int, f: dict, e: tuple, v: int) -> None:
        """Cancel the term of f at exponent e (packed value v, in the slice of
        degree m) by the memoised product of value v: only exponents > e change."""
        product = self._product(m, v)
        check_cap(self.terms + len(f) + len(product.terms), self.cap, _SUBDUCTION_CAP)
        clear(f, f[e], product.terms[0][1], product.terms)

    def _subduct(self, m: int, f: dict) -> None:
        """Reduce f against the slice of degree m; a nonzero remainder, made
        primitive with a positive lead (monic over F_p), becomes a new
        generator of degree m."""
        pack, current = self.packing.pack, self.slices[m]
        while f:
            lead = min(f)
            v = pack(lead)
            if v not in current:
                break
            self._cancel(m, f, lead, v)
        else:
            return
        normalize(f, f[lead])
        self._add_generator(m, v, Polynomial.from_dict(self.variables, f))

    def lift(self, m: int, u: tuple) -> Polynomial:
        """The lift of the generator (m, u): the product of value u, tail-reduced
        in ascending order against the slice of degree m, which leaves V^m's
        reduced-basis element with lead u (0 at every other point of the slice),
        divided by its lead once.  The slice of degree m must have been built
        by `semigroup`."""
        if not 1 <= m < len(self.ordered):
            raise ValidationError(f"lift of degree {m} before semigroup({m}) has built its slice")
        pack, current = self.packing.pack, self.slices[m]
        f, w = dict(self._product(m, pack(u)).terms), u
        while True:
            w = min((e for e in f if e > w and pack(e) in current), default=None)
            if w is None:
                return Polynomial.from_dict(self.variables, monic(f, f[u]))
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


def gamma_from_generators(
    generators, max_degree: int, dim: int | None = None, cap_monomials=DEFAULT_MONOMIAL_CAP
) -> GradedSemigroup:
    """All natural-number combinations of graded generators up to a degree, one
    capped `_degree_step` per degree.  A point is a minimal generator iff its
    mask holds no generator of lower degree."""
    gens = [(int(m), tuple(int(c) for c in u)) for m, u in generators]
    if any(m < 1 for m, _ in gens):
        raise ValidationError("generator degrees must be at least 1")
    if dim is None:
        if not gens:
            raise ValidationError("dimension required for an empty generator list")
        dim = len(gens[0][1])
    if any(len(u) != dim for _, u in gens):
        raise ValidationError("generators of mixed dimension")
    check_cap(max_degree, cap_monomials, DEGREES_CAP)
    largest = max((abs(c) for _, u in gens for c in u), default=0)
    packing = _Packing(dim, max(1, max_degree * largest))
    packed = [(m, packing.pack(u)) for m, u in gens]
    slices, minimal = [{0: 0}], []
    for m in range(1, max_degree + 1):
        slices.append(_degree_step(slices, packed, m, cap_monomials))
        lower = sum(1 << i for i, (gm, _) in enumerate(packed) if gm < m)
        minimal += [(m, p) for p, mask in slices[m].items() if not mask & lower]
    minimal.sort()
    return GradedSemigroup(
        dim, max_degree, packing, tuple(map(sorted, slices)), tuple(packing.unpack_graded(minimal))
    )


def minimal_generators(semigroup: GradedSemigroup) -> list[GradedPoint]:
    """Minimal generating set of the truncated semigroup, sorted by (degree, value)."""
    return list(semigroup.generators)


class GenerationReport(NamedTuple):
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
    return [len(s) for s in semigroup._packed]


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


class NormalityRecord(NamedTuple):
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
    have = semigroup.slice(d)
    missing = expected - have
    if have - expected:
        raise InvariantError("slice escapes the dilated body")
    return NormalityRecord(not missing, frozenset(missing), d, len(expected))

