"""Finite-dimensional spaces of polynomials as fully reduced echelon bases.

The pivot of each basis element is its lex-min exponent vector; pivots are
pairwise distinct, scaled to one, and occur in no other basis element.  The
number of distinct leading exponents therefore always equals the dimension,
which is what makes valuation images exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .echelon import Echelon
from .errors import ResourceCapError, ValidationError
from .polynomials import Polynomial

DEFAULT_MONOMIAL_CAP = 2_000_000


@dataclass(frozen=True)
class SectionSpace:
    """A reduced echelon basis of polynomial sections of one grade."""

    variables: tuple[str, ...]
    basis: tuple[Polynomial, ...]
    grade: int = 1

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    def leading_exponents(self) -> list[tuple]:
        return [p.leading_exponent() for p in self.basis]


def reduce_to_basis(
    spanning: Sequence[Polynomial],
    *,
    variables: Iterable[str] | None = None,
    grade: int = 1,
    cap_monomials: int = DEFAULT_MONOMIAL_CAP,
) -> SectionSpace:
    """Row-reduce a (possibly dependent) spanning list to a SectionSpace.

    An empty input gives the zero space, in which case `variables` is
    required.  Mixed variable lists are rejected.
    """
    spanning = list(spanning)
    if spanning:
        varlist = spanning[0].variables
        if variables is not None and tuple(variables) != varlist:
            raise ValidationError("explicit variable list does not match the polynomials")
        for p in spanning[1:]:
            if p.variables != varlist:
                raise ValidationError("mixed variable lists in spanning set")
    else:
        if variables is None:
            raise ValidationError("empty spanning set needs an explicit variable list")
        varlist = tuple(variables)

    form = Echelon()
    for p in spanning:
        form.insert(dict(p.terms))
        if form.terms > cap_monomials:
            raise ResourceCapError(
                f"monomial cap exceeded while reducing: {form.terms} > {cap_monomials}"
            )
    basis = tuple(Polynomial.from_dict(varlist, row) for row in form.sorted_rows())
    return SectionSpace(varlist, basis, grade)


def product_space(
    a: SectionSpace,
    b: SectionSpace,
    cap_monomials: int = DEFAULT_MONOMIAL_CAP,
) -> SectionSpace:
    """Reduced basis of the span of all pairwise products; grades add."""
    if a.variables != b.variables:
        raise ValidationError("variable mismatch between section spaces")
    products = [p * q for p in a.basis for q in b.basis]
    total = sum(len(p.terms) for p in products)
    if total > cap_monomials:
        raise ResourceCapError(
            f"monomial cap exceeded in product space: {total} > {cap_monomials}"
        )
    return reduce_to_basis(
        products,
        variables=a.variables,
        grade=a.grade + b.grade,
        cap_monomials=cap_monomials,
    )


def _echelon(space: SectionSpace) -> Echelon:
    form = Echelon()
    for p in space.basis:
        form.insert(dict(p.terms))
    return form


def reduce_mod(space: SectionSpace, poly: Polynomial) -> Polynomial:
    """Residue of a polynomial after reducing against the basis."""
    if poly.variables != space.variables:
        raise ValidationError("variable mismatch in reduction")
    return Polynomial.from_dict(space.variables, _echelon(space).reduce(dict(poly.terms)))


def contains(space: SectionSpace, poly: Polynomial) -> bool:
    """Exact membership test by full reduction."""
    return reduce_mod(space, poly).is_zero


def is_subspace(inner: SectionSpace, outer: SectionSpace) -> bool:
    """Exact inclusion: `inner`'s basis reduced against one echelon of `outer`."""
    if inner.basis and inner.variables != outer.variables:
        raise ValidationError("variable mismatch in reduction")
    form = _echelon(outer)
    return not any(form.reduce(dict(p.terms)) for p in inner.basis)
