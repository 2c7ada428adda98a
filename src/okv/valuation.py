"""Coordinate-flag valuations on polynomial sections and restricted systems.

The flag is the order of the declared variables: a polynomial or section
space over (x_1, ..., x_d) is valued along the flag with members
Y_r = {x_1 = ... = x_r = 0}, so reordering the variables changes the flag.
On a nonzero polynomial the valuation is the lex-min exponent vector (first
coordinate compared first); on a reduced section space its image is exactly
the set of leading exponents.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def nu_prefix_image(space: SectionSpace, r: int) -> set:
    """Image of the valuation truncated to the first r coordinates."""
    dim = len(space.variables)
    if not 0 <= r <= dim:
        raise ValidationError(f"prefix length {r} out of range 0..{dim}")
    return {u[:r] for u in nu_image(space)}


def restricted_system(space: SectionSpace, orders) -> SectionSpace:
    """Sections of prescribed vanishing orders along the leading flag members.

    For each prescribed order a_i in turn: keep the sections of order at
    least a_i in the current first variable, divide by its a_i-th power,
    and restrict to the flag member by setting the variable to zero.  The
    result lives in the remaining variables; an empty space is a value.
    """
    orders = tuple(orders)
    if len(orders) > len(space.variables):
        raise ValidationError("more prescribed orders than flag coordinates")
    if any(a < 0 for a in orders):
        raise ValidationError("prescribed vanishing orders must be non-negative")
    current = space
    for a in orders:
        kept = [p for p in current.basis if p.leading_exponent()[0] >= a]
        images = [p.divide_first_variable(a).drop_variable() for p in kept]
        current = reduce_to_basis(
            [q for q in images if not q.is_zero],
            variables=current.variables[1:],
            grade=current.grade,
        )
    return current


@dataclass(frozen=True)
class SaturationRecord:
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
