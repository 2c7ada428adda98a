"""Coordinate-flag valuations on polynomial sections and restricted systems.

The flag is the order of the declared variables: a polynomial or section
space over (x_1, ..., x_d) is valued along the flag with members
Y_r = {x_1 = ... = x_r = 0}, so reordering the variables changes the flag.
On a nonzero polynomial the valuation is the lex-min exponent vector (first
coordinate compared first); on a reduced section space its image is exactly
the set of leading exponents.  The system restricted to Y_r with prescribed
vanishing orders is read off the terms of the reduced basis, one x_1-layer
per flag member, and its image is the fibre of that set over the orders.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ValidationError
from .polynomials import Polynomial
from .spaces import SectionSpace, reduce_to_basis


def nu(f: Polynomial) -> tuple:
    """Valuation vector of a nonzero polynomial: its lex-min exponent."""
    if f.is_zero:
        raise ValidationError("valuation of the zero polynomial is undefined")
    return f.leading_exponent()


def nu_image(space: SectionSpace) -> set:
    """Exact valuation image of a space; one point per basis element."""
    return {p.leading_exponent() for p in space.basis}


def restricted_system(space: SectionSpace, orders) -> SectionSpace:
    """Sections of prescribed vanishing orders along the leading flag members.

    For each order a in turn: sections of order at least a in the first
    variable x_1, divided by x_1^a and restricted to x_1 = 0.  On the reduced
    basis that is the x_1^a layer of each element p (its terms with e_1 = a,
    x_1 dropped), as every term of p has e_1 >= nu(p)_1; it is zero unless
    nu(p)_1 = a.  So the image is the fibre {u[r:] : u in nu_image(space),
    u[:r] == orders}, in the remaining variables (none when r = d).
    """
    orders = tuple(orders)
    if len(orders) > len(space.variables):
        raise ValidationError("more prescribed orders than flag coordinates")
    if any(a < 0 for a in orders):
        raise ValidationError("prescribed vanishing orders must be non-negative")
    current = space
    for a in orders:
        rest = current.variables[1:]
        layers = [
            Polynomial.from_dict(rest, {e[1:]: c for e, c in p.terms if e[0] == a})
            for p in current.basis
            if p.leading_exponent()[0] == a
        ]
        current = reduce_to_basis(layers, variables=rest)
    return current


class SaturationRecord(NamedTuple):
    saturated: bool
    values: frozenset
    interval: tuple[int, int]


def saturation_from_values(values) -> SaturationRecord:
    """Whether a set of vanishing orders is a gap-free integer interval."""
    values = frozenset(values)
    if not values:
        raise ValidationError("saturation is undefined for an empty order set")
    lo, hi = min(values), max(values)
    return SaturationRecord(len(values) == hi - lo + 1, values, (lo, hi))


def saturation_check(space: SectionSpace, orders) -> SaturationRecord:
    """Saturation of the restricted system along the next flag member."""
    if len(tuple(orders)) >= len(space.variables):
        raise ValidationError("no flag member remains to measure saturation against")
    restricted = restricted_system(space, orders)
    if restricted.is_zero:
        raise ValidationError("restricted system is zero; saturation undefined")
    firsts = {u[0] for u in nu_image(restricted)}
    return saturation_from_values(firsts)
