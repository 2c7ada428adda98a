"""Finite-dimensional spaces of polynomials as fully reduced echelon bases.

The pivot of each basis element is its lex-min exponent vector; pivots are
pairwise distinct, scaled to one, and occur in no other basis element.  The
number of distinct leading exponents therefore always equals the dimension,
which is what makes valuation images exact.  Over Q (int or `Fraction`
coefficients) the reduction runs fraction-free on primitive integer rows
(`okv.echelon`), and each basis element is read back divided by its pivot,
in `Fraction`s unless it is integral already; over F_p it runs on pivot-one
rows.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .echelon import Echelon
from .errors import DEFAULT_MONOMIAL_CAP, ValidationError, check_cap
from .polynomials import Polynomial


class SectionSpace(NamedTuple):
    """A reduced echelon basis of polynomial sections."""

    variables: tuple[str, ...]
    basis: tuple[Polynomial, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis


def reduce_to_basis(
    spanning: Sequence[Polynomial],
    *,
    variables: Iterable[str] | None = None,
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
        check_cap(form.terms, cap_monomials, "monomial cap exceeded while reducing")
    basis = tuple(Polynomial.from_dict(varlist, row) for row in form.sorted_rows())
    return SectionSpace(varlist, basis)


def product_space(
    a: SectionSpace,
    b: SectionSpace,
    cap_monomials: int = DEFAULT_MONOMIAL_CAP,
) -> SectionSpace:
    """Reduced basis of the span of all pairwise products, capped before any is formed."""
    if a.variables != b.variables:
        raise ValidationError("variable mismatch between section spaces")
    candidates = sum(len(p.terms) for p in a.basis) * sum(len(q.terms) for q in b.basis)
    check_cap(candidates, cap_monomials, "monomial cap exceeded in product space")
    products = [p * q for p in a.basis for q in b.basis]
    return reduce_to_basis(products, variables=a.variables, cap_monomials=cap_monomials)


def _echelon(space: SectionSpace) -> Echelon:
    form = Echelon()
    for p in space.basis:
        form.insert(dict(p.terms))
    return form


def contains(space: SectionSpace, poly: Polynomial) -> bool:
    """Exact membership: the polynomial reduces to zero against the basis.
    A polynomial over other variables is a ValidationError."""
    if poly.variables != space.variables:
        raise ValidationError("variable mismatch in reduction")
    return not _echelon(space).reduce(dict(poly.terms))


def is_subspace(inner: SectionSpace, outer: SectionSpace) -> bool:
    """Exact inclusion: `inner`'s basis reduced against one echelon of `outer`."""
    if inner.basis and inner.variables != outer.variables:
        raise ValidationError("variable mismatch in reduction")
    form = _echelon(outer)
    return not any(form.reduce(dict(p.terms)) for p in inner.basis)
