"""Sparse exact row echelon forms, the one elimination engine of okv.

A row is a dict {key: nonzero coefficient} with totally ordered keys
(column indices, exponent vectors); its pivot is its least key.  Only
nonzero entries are stored or touched, as in Faugère's F4 (1999).
"""

from __future__ import annotations

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


class Echelon:
    """A growing reduced row echelon form.

    `rows` maps each pivot to its row; every pivot coefficient is one and no
    pivot occurs in another row.  That form is unique for the span, whatever
    the insertion order, so every caller's output is canonical.  `terms`
    counts the stored nonzero entries, kept current on every insertion.
    """

    __slots__ = ("rows", "terms")

    def __init__(self):
        self.rows: dict = {}
        self.terms = 0

    def reduce(self, row: dict) -> dict:
        """Clear every stored pivot from `row`, in place, and return it; one
        pass suffices, since a stored row holds no pivot but its own."""
        for key in [k for k in row if k in self.rows]:
            subtract(row, row[key], self.rows[key].items())
        return row

    def insert(self, row: dict) -> None:
        """Reduce `row` in place and, unless it vanishes, store it."""
        self.reduce(row)
        if not row:
            return
        lead = min(row)
        inv = row[lead]
        if inv != 1:
            scale = inv ** -1
            for key in row:
                row[key] *= scale
        for other in self.rows.values():
            c = other.get(lead)
            if c:
                before = len(other)
                subtract(other, c, row.items())
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
    vector e_f - sum row[f] e_pivot, whose least key is f and whose other
    keys are pivots: the basis comes out in reduced echelon form directly.
    `max_cells` bounds the basis (dimension times width) before it is built.
    """
    reversed_form = Echelon()
    for row in rows:
        reversed_form.insert({-j: c for j, c in row.items()})
    free = [j for j in range(ncols) if -j not in reversed_form.rows]
    check_cap((len(free), ncols), max_cells, BASIS_CAP)
    basis = {f: {f: one} for f in free}
    for p, row in reversed_form.rows.items():
        for k, c in row.items():
            if k != p:
                basis[-k][-p] = -c
    return [basis[f] for f in free]
