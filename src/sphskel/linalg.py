"""Exact rational vectors, matrices, and Gaussian elimination.

All arithmetic is done with :class:`fractions.Fraction`; nothing in this
package ever touches a float.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Iterable, Sequence

Vec = tuple[Q, ...]
Mat = tuple[Vec, ...]


def vec(items: Iterable[int | Q]) -> Vec:
    return tuple(Q(x) for x in items)


def mat(rows: Iterable[Iterable[int | Q]]) -> Mat:
    return tuple(vec(r) for r in rows)


def unit(n: int, i: int) -> Vec:
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


def dot(x: Sequence[Q], y: Sequence[Q]) -> Q:
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum((a * b for a, b in zip(x, y)), Q(0))


def add(x: Sequence[Q], y: Sequence[Q]) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def sub(x: Sequence[Q], y: Sequence[Q]) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def _echelon(rows: list[list[Q]]) -> tuple[list[list[Q]], list[int]]:
    """Row-reduce in place; returns the matrix and the pivot columns."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows: Iterable[Sequence[Q]]) -> int:
    work = [list(map(Q, r)) for r in rows]
    _, pivots = _echelon(work)
    return len(pivots)


def solve_linear(rows: Iterable[Sequence[Q]], rhs: Sequence[Q]) -> Vec | None:
    """Solve ``rows @ x = rhs`` exactly.

    Returns one solution, or None when the system is inconsistent.  When the
    solution space is positive-dimensional, free variables are set to zero.
    """
    a = [list(map(Q, r)) + [Q(v)] for r, v in zip(rows, rhs)]
    if not a:
        return ()
    n = len(a[0]) - 1
    reduced, pivots = _echelon(a)
    for row in reduced:
        if all(v == 0 for v in row[:-1]) and row[-1] != 0:
            return None
    x = [Q(0)] * n
    for r, c in enumerate(pivots):
        if c == n:
            return None
        x[c] = reduced[r][-1] - sum(
            (reduced[r][j] * x[j] for j in range(c + 1, n)), Q(0)
        )
    return tuple(x)
