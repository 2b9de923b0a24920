"""Exact rational linear programming.

Solves ``max c.x  s.t.  A x <= b, A_eq x = b_eq, x >= 0`` with a dense
two-phase tableau simplex using Bland's anti-cycling rule.  The tableau is
integer-preserving: each constraint row is a primitive integer vector whose
basic entry is positive, and it stands for the rational row obtained by
dividing it by that entry.  Each pivot is ``linalg.pivot``, which replaces
row i by ``p*row_i - f*row_r`` over the row gcd; that keeps every equation
and every ratio ``rhs/a_ij``, so the pivots are exactly those of the
rational tableau.
The reduced costs are one integer row over a positive scale; Bland's rule
reads only their signs.  Inputs are stored as given, ints or Fractions,
and read through numerator and denominator; the results are quotients and
are built as Fractions at the end, so optimal values, primal vertices, and
dual certificates are exact.  Returned primal points are basic solutions,
i.e. vertices of the feasible region.

The dual vector ``y`` has one entry per row, the inequality rows first and
then the equality rows, such that ``A^T y_le + A_eq^T y_eq >= c`` and
``b.y_le + b_eq.y_eq = c.x``.  Inequality duals are nonnegative; equality
duals are free in sign.  ``check_certificate`` verifies such a result from
the problem data alone, in integer arithmetic: each vector, row and column
is read as integer numerators over one common denominator, and every
comparison is an integer cross-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from operator import mul
from typing import Sequence

from .linalg import Mat, Vec, gcd_fold, lcm_fold, pivot, primitive

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpProblem:
    """max c.x  s.t.  A x <= b, A_eq x = b_eq, x >= 0 (A is |b| x |c|)."""

    c: Vec
    a: Mat
    b: Vec
    a_eq: Mat = ()
    b_eq: Vec = ()

    def __post_init__(self) -> None:
        for row in self.a + self.a_eq:
            if len(row) != len(self.c):
                raise ValueError("constraint row length differs from objective")
        if len(self.a) != len(self.b) or len(self.a_eq) != len(self.b_eq):
            raise ValueError("constraint count differs from rhs length")

    @staticmethod
    def build(
        c: Sequence,
        a: Sequence[Sequence],
        b: Sequence,
        a_eq: Sequence[Sequence] = (),
        b_eq: Sequence = (),
    ) -> "LpProblem":
        return LpProblem(
            tuple(c), tuple(map(tuple, a)), tuple(b), tuple(map(tuple, a_eq)), tuple(b_eq)
        )


@dataclass(frozen=True)
class LpResult:
    status: str
    value: Q | None = None
    x: Vec | None = None
    y: Vec | None = None


def _numerators(values: Sequence[int | Q]) -> tuple[list[int], int]:
    """(z, d) with values == z / d: d the lcm of the denominators, d > 0."""
    d = lcm_fold(v.denominator for v in values)
    if d == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (d // v.denominator) for v in values], d


def _lowest_terms(z: list[int], d: int) -> tuple[list[int], int]:
    g = gcd_fold(z, d)
    return ([v // g for v in z], d // g) if g > 1 else (z, d)


def _objective(
    tab: list[list[int]], basis: list[int], cost: list[int], scale: int
) -> tuple[list[int], int]:
    """Reduced costs of ``cost / scale`` at ``basis``, as (z, d) with z / d.

    ``cost`` has one integer per tableau column, rhs included; the rhs entry
    of the result is minus the objective value of the basic solution.
    """
    rows = [(cost[bi], tab[i], tab[i][bi]) for i, bi in enumerate(basis) if cost[bi]]
    d = lcm_fold(s for _, _, s in rows)
    z = [d * v for v in cost]
    for cb, row, s in rows:
        k = cb * (d // s)
        z = [a - k * b for a, b in zip(z, row)]
    return _lowest_terms(z, d * scale)


def _simplex(
    tab: list[list[int]], basis: list[int], z: list[int], d: int, last: int
) -> tuple[str, list[int], int]:
    """Run Bland-rule simplex to optimality or unboundedness.

    ``z / d`` is the reduced-cost row, rhs column last; only the signs of
    ``z`` pick the entering column among the columns before ``last``.  The
    leaving row minimises ``rhs / a`` by cross-multiplication, ties going
    to the lowest basic index.  Returns the status and the final (z, d).
    """
    while True:
        enter = next((j for j in range(last) if z[j] > 0), None)
        if enter is None:
            return OPTIMAL, z, d
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave, num, den = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, row[-1], a
        if leave is None:
            return UNBOUNDED, z, d
        f = z[enter]
        p = pivot(tab, basis, leave, enter)
        z, d = _lowest_terms(
            [p * a - f * b for a, b in zip(z, tab[leave])], d * p
        )


def solve(problem: LpProblem) -> LpResult:
    """Solve the LP; statuses are optimal / unbounded / infeasible."""
    n = len(problem.c)
    m = len(problem.b)
    rows = list(zip(problem.a, problem.b)) + list(zip(problem.a_eq, problem.b_eq))
    if not rows:
        if any(cj > 0 for cj in problem.c):
            return LpResult(UNBOUNDED)
        return LpResult(OPTIMAL, Q(0), (Q(0),) * n, ())

    # Columns: n originals; one unit column per row, the slack of an
    # inequality row or the artificial of an equality row; artificials for
    # the inequality rows with negative rhs; the rhs.  A row with negative
    # rhs is negated.  Each row is scaled to a primitive integer vector.
    r = len(rows)
    negative = [i for i in range(m) if problem.b[i] < 0]
    art_of_row = {i: n + r + k for k, i in enumerate(negative)}
    ncols = n + r + len(art_of_row)
    tab: list[list[int]] = []
    basis: list[int] = []
    for i, (ai, bi) in enumerate(rows):
        den = lcm_fold((v.denominator for v in ai), bi.denominator)
        row = [v.numerator * (den // v.denominator) for v in ai]
        row += [0] * (ncols - n)
        row.append(bi.numerator * (den // bi.denominator))
        if row[-1] < 0:
            row = [-v for v in row]
        if i in art_of_row:
            row[n + i] = -den
            row[art_of_row[i]] = den
            basis.append(art_of_row[i])
        else:
            row[n + i] = den
            basis.append(n + i)
        tab.append(primitive(row))

    if ncols > n + m:
        cost1 = [0] * (n + m) + [-1] * (ncols - n - m) + [0]
        _simplex(tab, basis, *_objective(tab, basis, cost1, 1), ncols)
        # Basic values are nonnegative, so the artificials sum to zero iff
        # each of them is zero.
        if any(tab[i][-1] for i in range(len(tab)) if basis[i] >= n + m):
            return LpResult(INFEASIBLE)
        # Drive remaining (zero-valued) artificials out; drop null rows.
        for i in reversed(range(len(tab))):
            if basis[i] >= n + m:
                col = next((j for j in range(n + m) if tab[i][j] != 0), None)
                if col is None:
                    del tab[i]
                    del basis[i]
                else:
                    pivot(tab, basis, i, col)
        # The equality rows' artificials stay for their duals; none of the
        # artificials may enter again.
        tab = [primitive(row[: n + r] + row[-1:]) for row in tab]

    cost, scale = _numerators(problem.c)
    cost += [0] * (r + 1)
    status, z, d = _simplex(tab, basis, *_objective(tab, basis, cost, scale), n + m)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)

    x = [Q(0)] * n
    for row, bi in zip(tab, basis):
        if bi < n:
            x[bi] = Q(row[-1], row[bi])
    # Dual values are the negated reduced costs of the unit columns, negated
    # again for an equality row that was negated.  Each final row combines
    # original rows, so these price every row, those dropped as redundant in
    # phase 1 included.
    for i in range(m, r):
        if rows[i][1] < 0:
            z[n + i] = -z[n + i]
    y = tuple(Q(-z[n + i], d) for i in range(r))
    return LpResult(OPTIMAL, Q(-z[-1], d), tuple(x), y)


def check_certificate(problem: LpProblem, result: LpResult) -> bool:
    """Exact strong-duality check of a claimed optimal result.

    Verifies primal feasibility (A x <= b, A_eq x = b_eq, x >= 0), dual
    feasibility (A^T y_le + A_eq^T y_eq >= c, y_le >= 0, y_eq free), the
    zero duality gap c.x == b.y_le + b_eq.y_eq, and value == c.x.  Every
    comparison is between integers: x and y are each read over one common
    denominator, each constraint row with its rhs, each column of
    [A; A_eq] with its c entry, c and b each over their own, and both
    sides of a test are cross-multiplied by the positive denominators.
    The check reads only the problem and the result, never the tableau.
    """
    if result.status != OPTIMAL or result.x is None or result.y is None:
        return False
    m = len(problem.b)
    a = problem.a + problem.a_eq
    b = problem.b + problem.b_eq
    if len(result.x) != len(problem.c) or len(result.y) != len(b):
        return False
    x, dx = _numerators(result.x)
    y, dy = _numerators(result.y)
    if any(v < 0 for v in x) or any(v < 0 for v in y[:m]):
        return False
    # Row i over d_i: row.x <= b_i  iff  r.x <= r_b * dx.
    for i, (row, bi) in enumerate(zip(a, b)):
        r, _ = _numerators((*row, bi))
        ax, rhs = sum(map(mul, r, x)), r[-1] * dx
        if ax > rhs or (i >= m and ax != rhs):
            return False
    # Column j with c_j over e_j: col.y >= c_j  iff  k.y >= k_c * dy.  With
    # no rows, zip(c) yields the columns (c_j,).
    for col in zip(*a, problem.c):
        k, _ = _numerators(col)
        if sum(map(mul, k, y)) < k[-1] * dy:
            return False
    c, dc = _numerators(problem.c)
    bz, db = _numerators(b)
    cx = sum(map(mul, c, x))  # c.x == cx / (dc * dx)
    if cx * db * dy != sum(map(mul, bz, y)) * dc * dx:
        return False
    value = result.value
    if value is not None and value.numerator * dc * dx != cx * value.denominator:
        return False
    return True


def solve_free(c: Sequence, a: Sequence[Sequence], b: Sequence) -> LpResult:
    """max c.x s.t. A x <= b with x unrestricted in sign (x = x+ - x-)."""
    n = len(c)
    cc = list(c) + [-v for v in c]
    aa = [list(row) + [-v for v in row] for row in a]
    res = solve(LpProblem.build(cc, aa, b))
    if res.status != OPTIMAL:
        return res
    x = tuple(res.x[j] - res.x[n + j] for j in range(n))
    return LpResult(OPTIMAL, res.value, x, res.y)
