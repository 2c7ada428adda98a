"""Sparse exact row echelon forms, the one elimination engine of okv.

A row is a dict {key: nonzero coefficient} with totally ordered keys
(column indices, exponent vectors); its pivot is its least key.  Only
nonzero entries are stored or touched, as in Faugère's F4 (1999).  The type
of a pivot picks the arithmetic: a field row (`Fraction`, F_p) is scaled to
pivot one, and an int row is eliminated fraction-free, by cross-multiplying
and dividing by the content (Bareiss 1968), so its entries stay ints.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

from .errors import check_cap


def subtract(row: dict, factor, other) -> None:
    """row -= factor * other, in place, dropping entries that cancel; `other`
    is an iterable of (key, coefficient) pairs."""
    for key, c in other:
        s = row.get(key)
        s = -factor * c if s is None else s - factor * c
        if s:
            row[key] = s
        else:
            del row[key]


def _divide(row: dict, g: int) -> None:
    """Divide an int row, in place, by a g dividing every entry (0 and 1 leave it)."""
    if g not in (0, 1):
        for key in row:
            row[key] //= g


def _clear(row: dict, key, other: dict) -> None:
    """Clear `key` from `row` with the stored row `other` of pivot `key`, in
    place.  A field pivot is one; with an int pivot a > 0, c = row[key] and
    g = gcd(a, c), row becomes (a/g)·row - (c/g)·other over its content."""
    a, c = other[key], row[key]
    if type(a) is not int:
        subtract(row, c, other.items())
        return
    g = gcd(a, c)
    if a != g:
        s = a // g
        for k in row:
            row[k] *= s
    subtract(row, c // g, other.items())
    _divide(row, gcd(*row.values()))


class Echelon:
    """A growing reduced row echelon form.

    `rows` maps each pivot to its row, and no pivot occurs in another row.
    A field row is stored with pivot coefficient one, and an int row
    primitive with a positive pivot, a positive multiple of the former.
    That form is unique for the span, whatever the insertion order, so every
    caller's output is canonical.  `terms` counts the stored nonzero
    entries, kept current on every insertion.
    """

    __slots__ = ("rows", "terms")

    def __init__(self):
        self.rows: dict = {}
        self.terms = 0

    def reduce(self, row: dict) -> dict:
        """Clear every stored pivot from `row`, in place, and return it; one
        pass suffices, since a stored row holds no pivot but its own.  An int
        row comes out as a positive multiple of its residue over Q."""
        for key in [k for k in row if k in self.rows]:
            _clear(row, key, self.rows[key])
        return row

    def insert(self, row: dict) -> None:
        """Reduce `row` in place and, unless it vanishes, store it."""
        self.reduce(row)
        if not row:
            return
        lead = min(row)
        a = row[lead]
        if type(a) is int:
            g = gcd(*row.values())
            _divide(row, g if a > 0 else -g)
        elif a != 1:
            scale = a ** -1
            for key in row:
                row[key] *= scale
        for other in self.rows.values():
            if lead in other:
                before = len(other)
                _clear(other, lead, row)
                self.terms += len(other) - before
        self.rows[lead] = row
        self.terms += len(row)

    def sorted_rows(self) -> list[dict]:
        return [self.rows[p] for p in sorted(self.rows)]


BASIS_CAP = "kernel basis too large"  # capped in cells: dimension x width


def nullspace(rows: Iterable[dict], ncols: int, one, max_cells: int | None = None) -> list:
    """Reduced echelon basis of {x : sum_j row[j] x_j = 0 for every row}.

    Keys are the column indices 0..ncols-1.  The rows are eliminated with
    the greatest index as pivot, so each free column f yields the kernel
    vector e_f - sum row[f]/row[p] e_p over the pivots p, whose least key is
    f and whose other keys are pivots: the basis comes out in reduced echelon
    form directly.  Over the integers (`one` is 1) each vector is its least
    integer multiple, which is primitive and positive at f.  `max_cells`
    bounds the basis (dimension times width) before it is built.
    """
    reversed_form = Echelon()
    for row in rows:
        reversed_form.insert({-j: c for j, c in row.items()})
    free = [j for j in range(ncols) if -j not in reversed_form.rows]
    check_cap((len(free), ncols), max_cells, BASIS_CAP)
    basis = {f: {f: one} for f in free}
    for p, row in reversed_form.rows.items():
        a = row[p]
        for k, c in row.items():
            if k != p:
                vec = basis[-k]
                if type(a) is int:  # scale vec so that its entry -c/a * vec[-k] is an int
                    s = a // gcd(a, c * vec[-k])
                    for key in vec:
                        vec[key] *= s
                    c = c * vec[-k] // a
                vec[-p] = -c
    return [basis[f] for f in free]
