"""Dense exact linear algebra over a field: list-of-rows adapters over
`okv.echelon` for `polytope_from_halfspaces`, which no command reaches.
Integer entries are read as rationals: `rref` reads the engine's rows back
over the field, and `nullspace` asks it for the reduced basis over Q."""

from __future__ import annotations

from fractions import Fraction

from . import echelon


def _sparse(row: list) -> dict:
    return {j: v for j, v in enumerate(row) if v}


def _dense(row: dict, ncols: int) -> list:
    c = next(iter(row.values()))
    dense = [c - c] * ncols
    for j, v in row.items():
        dense[j] = v
    return dense


def rref(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    form = echelon.Echelon()
    for r in rows:
        form.insert(_sparse(r))
    return [_dense(r, ncols) for r in form.sorted_rows()], sorted(form.rows)


def nullspace(rows: list[list], ncols: int, one) -> list[list]:
    """Canonical basis of {x : A x = 0}, rows of the RREF of the kernel."""
    sparse = [_sparse(r) for r in rows]
    one = Fraction(one) if type(one) is int else one
    return [_dense(r, ncols) for r in echelon.nullspace(sparse, ncols, one)]


def solve_unique(matrix: list[list], rhs: list):
    """Solve A x = b when the solution exists and is unique, else None."""
    n = len(matrix)
    if n == 0:
        return [] if not rhs else None
    ncols = len(matrix[0])
    augmented = [list(row) + [b] for row, b in zip(matrix, rhs)]
    reduced, pivots = rref(augmented, ncols + 1)
    if ncols in pivots:
        return None  # inconsistent
    if len(pivots) != ncols:
        return None  # underdetermined
    zero = rhs[0] - rhs[0] if rhs else 0
    x = [zero] * ncols
    for row, pc in zip(reduced, pivots):
        x[pc] = row[ncols]
    return x
