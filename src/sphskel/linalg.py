"""Exact rational vectors and fraction-free Gaussian elimination.

An exact number is an ``int`` unless it is a true quotient, and then a
Fraction in lowest terms: ``quotient`` keeps an exact division an ``int``,
and every division that builds a result goes through it, the solutions of
``solve_linear`` and the results of ``lp.solve`` included.  Both types are
read through ``numerator`` and ``denominator``; nothing here touches a
float.
Elimination runs on primitive integer rows only: ``pivot``, the one
integer-preserving Gauss-Jordan step (Edmonds 1967; Bareiss 1968), serves
``eliminate``, and through it ``rank``, ``solve_linear`` and the double
description in ``geometry``.  The simplex in ``lp`` pivots its own compact
tableau over one common denominator.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[int | Q, ...]
Mat = tuple[Vec, ...]


def dot(x: Sequence[int | Q], y: Sequence[int | Q]) -> int | Q:
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum(a * b for a, b in zip(x, y))


def quotient(x: int, d: int) -> int | Q:
    """x / d exactly: an int when d divides x, else a Fraction."""
    q, r = divmod(x, d)
    return Q(x, d) if r else q


def format_rational(value: int | Q | None) -> str:
    """The exact text of a rational: "p/q", or "p" for an integer, and
    "inf" for None (+infinity)."""
    if value is None:
        return "inf"
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# gcd and lcm are folded pairwise rather than called with ``*args``: every
# star call builds an argument tuple of the row's length, and those tuples
# linger in the interpreter's per-size free lists.


def gcd_fold(values: Iterable[int], g: int = 0) -> int:
    for v in values:
        g = gcd(g, v)
        if g == 1:
            break
    return g


def lcm_fold(values: Iterable[int], d: int = 1) -> int:
    for v in values:
        d = lcm(d, v)
    return d


def primitive(row: list[int]) -> list[int]:
    g = gcd_fold(row)
    return [v // g for v in row] if g > 1 else row


def integral(v: Sequence[int | Q]) -> list[int]:
    """The primitive integer vector on the ray through v."""
    scale = lcm_fold(x.denominator for x in v)
    return primitive([x.numerator * (scale // x.denominator) for x in v])


def pivot(tab: list[list[int]], basis: list[int], row: int, col: int) -> int:
    """Pivot on (row, col) and return the pivot entry, made positive.

    Row ``i`` stands for the Fraction row ``tab[i] / tab[i][basis[i]]``; the
    update ``p * row_i - f * row_r`` scales that row by ``p > 0``, so every
    basic entry stays positive.
    """
    prow = tab[row]
    p = prow[col]
    if p < 0:
        prow = tab[row] = [-v for v in prow]
        p = -p
    for i, other in enumerate(tab):
        f = other[col]
        if f and i != row:
            tab[i] = primitive([p * a - f * b for a, b in zip(other, prow)])
    basis[row] = col
    return p


def eliminate(tab: list[list[int]], ncols: int) -> list[int]:
    """Reduce the integer rows of tab in place; return each row's pivot
    column, or -1 for a row with no pivot.  Pivot columns are taken greedily
    from the left among the first ``ncols``, so they are the first linearly
    independent ones; each is zero outside its row and positive in it."""
    pivots = [-1] * len(tab)
    for col in range(ncols):
        row = next((i for i, c in enumerate(pivots) if c < 0 and tab[i][col]), None)
        if row is not None:
            pivot(tab, pivots, row, col)
    return pivots


def rank(rows: Iterable[Sequence[int | Q]]) -> int:
    """The rank of rows read as vectors, a shorter row zero-padded to the
    length of the longest."""
    rows = list(rows)
    width = max(map(len, rows), default=0)
    tab = [integral([*r, *(0,) * (width - len(r))]) for r in rows]
    return sum(c >= 0 for c in eliminate(tab, width))


def solve_linear(rows: Iterable[Sequence[int | Q]], rhs: Sequence[int | Q]) -> Vec | None:
    """Solve ``rows @ x = rhs`` exactly.

    Returns one solution, or None when the system is inconsistent.  When the
    solution space is positive-dimensional, free variables are set to zero.
    """
    tab = [integral([*r, v]) for r, v in zip(rows, rhs)]
    if not tab:
        return ()
    n = len(tab[0]) - 1
    pivots = eliminate(tab, n)
    # A row without a pivot reads 0 = rhs.
    if any(c < 0 and row[-1] for row, c in zip(tab, pivots)):
        return None
    x = [0] * n
    for row, c in zip(tab, pivots):
        if c >= 0:
            x[c] = quotient(row[-1], row[c])
    return tuple(x)
