"""Sparse exact row echelon forms, the one elimination engine of okv.

A row is a dict {key: nonzero coefficient} with totally ordered keys
(column indices, exponent vectors); its pivot is its least key.  Only
nonzero entries are stored or touched, as in Faugère's F4 (1999).  The type
of a pivot picks the arithmetic.  Over Z and Q the rows are ints, eliminated
fraction-free by cross-multiplying and dividing by the content (Bareiss
1968): a row holding `Fraction`s is scaled by the lcm of its denominators
on entry, and a `Fraction` is formed only where a caller reads a
coefficient back over Q.  Over F_p a row is scaled to pivot one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def clear(row: dict, c, a, other) -> None:
    """Cancel the entry c of `row` at the pivot of `other`, an iterable of
    (key, coefficient) pairs whose pivot entry is a, in place.  A field pivot
    is one, and row -= c·other; over the ints, with a > 0 and g = gcd(a, c),
    row becomes (a/g)·row - (c/g)·other over its content, a positive
    multiple of row - (c/a)·other."""
    if type(a) is not int:
        subtract(row, c, other)
        return
    g = gcd(a, c)
    if a != g:
        s = a // g
        for k in row:
            row[k] *= s
    subtract(row, c // g, other)
    _divide(row, gcd(*row.values()))


def normalize(row: dict, a) -> None:
    """Scale a nonzero row whose pivot entry is a, in place, to its stored
    form: an int row primitive with a positive pivot, a field row with pivot
    one."""
    if type(a) is int:
        g = gcd(*row.values())
        _divide(row, g if a > 0 else -g)
    elif a != 1:
        scale = a ** -1
        for key in row:
            row[key] *= scale


def integral(row: dict):
    """Scale a row holding `Fraction`s, in place, by the lcm of its
    denominators to a row of ints, and return that lcm; a row of ints or of
    F_p elements is left as it is, and gives None."""
    if Fraction not in map(type, row.values()):
        return None
    scale = lcm(*(v.denominator for v in row.values()))
    for key, v in row.items():
        row[key] = v.numerator * (scale // v.denominator)
    return scale


def monic(row: dict, a) -> dict:
    """The row divided by its pivot entry a: the row itself when a is one (as
    every F_p pivot is), else an int row read back over Q, in `Fraction`s."""
    return row if a == 1 else {key: Fraction(v, a) for key, v in row.items()}


_SCALE = object()  # a key no stored row holds: what a reduced row was scaled by


class Echelon:
    """A growing reduced row echelon form.

    `rows` maps each pivot to its stored row, and no pivot occurs in another
    row.  An F_p row is stored with pivot coefficient one, and an int row
    (over Z, or a Q row scaled on entry) primitive with a positive pivot, a
    positive multiple of the reduced row.  That form is unique for the span,
    whatever the insertion order, so every caller's output is canonical;
    `sorted_rows` reads it back over the field.  `terms` counts the stored
    nonzero entries, kept current on every insertion.
    """

    __slots__ = ("rows", "terms")

    def __init__(self):
        self.rows: dict = {}
        self.terms = 0

    def reduce(self, row: dict) -> dict:
        """Clear every stored pivot from `row`, in place, and return it; one
        pass suffices, since a stored row holds no pivot but its own.  A row
        holding `Fraction`s comes out as its residue, in `Fraction`s; an int
        row as a positive multiple of its residue over Q."""
        scale = integral(row)
        if scale is not None:  # the row's scale, carried along to read it back
            row[_SCALE] = scale
        rows = self.rows
        for key in [k for k in row if k in rows]:
            other = rows[key]
            clear(row, row[key], other[key], other.items())
        if scale is not None:
            scale = row.pop(_SCALE)
            for key, v in row.items():
                row[key] = Fraction(v, scale)
        return row

    def insert(self, row: dict) -> None:
        """Reduce `row` in place and, unless it vanishes, store it."""
        integral(row)
        self.reduce(row)
        if not row:
            return
        lead = min(row)
        normalize(row, row[lead])
        a = row[lead]
        for other in self.rows.values():
            if lead in other:
                before = len(other)
                clear(other, other[lead], a, row.items())
                self.terms += len(other) - before
        self.rows[lead] = row
        self.terms += len(row)

    def sorted_rows(self) -> list[dict]:
        """The reduced echelon form over the field, in pivot order: each
        stored row divided by its pivot (`monic`)."""
        rows = self.rows
        return [monic(rows[p], rows[p][p]) for p in sorted(rows)]


BASIS_CAP = "kernel basis too large"  # capped in cells: dimension x width


def nullspace(rows: Iterable[dict], ncols: int, one, max_cells: int | None = None) -> list:
    """Reduced echelon basis of {x : sum_j row[j] x_j = 0 for every row}.

    Keys are the column indices 0..ncols-1.  The rows are eliminated with
    the greatest index as pivot, so each free column f yields the kernel
    vector e_f - sum row[f]/row[p] e_p over the pivots p, whose least key is
    f and whose other keys are pivots: the basis comes out in reduced echelon
    form directly.  `one` picks what comes back: for the int 1 each vector
    is its least integer multiple, which is primitive and positive at f; for
    `Fraction(1)` that vector divided by its entry at f; over F_p the
    field's one.  `max_cells` bounds the basis (dimension times width)
    before it is built.
    """
    reversed_form = Echelon()
    for row in rows:
        reversed_form.insert({-j: c for j, c in row.items()})
    free = [j for j in range(ncols) if -j not in reversed_form.rows]
    check_cap((len(free), ncols), max_cells, BASIS_CAP)
    rational = type(one) is Fraction
    basis = {f: {f: 1 if rational else one} for f in free}
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
    return [monic(basis[f], basis[f][f]) if rational else basis[f] for f in free]
