"""The reference loop: fixed exact work with no okv code, timed to calibrate.

Exact Fraction elimination plus tuple and set building, the same kinds of
work okv does.  run.py brackets every timed job with it and probe.py times
it inside each set-up interpreter.
"""

from fractions import Fraction


def reference_loop() -> int:
    """Fixed exact work: Gauss-Jordan on a 12x14 Fraction matrix, sets of tuples."""
    n, width = 12, 14
    rows = [[Fraction((3 * i + 5 * j * j + 1) % 11 - 5, 1 + (i * j) % 4) for j in range(width)]
            for i in range(n)]
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [v / inv for v in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    seen = set()
    for a in range(180):
        for b in range(180):
            seen.add((a, b, (a * b) % 13))
    return rank + len(seen)
