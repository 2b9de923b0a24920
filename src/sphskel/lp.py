"""Exact rational linear programming.

Solves ``max c.x  s.t.  A x <= b, A_eq x = b_eq, x >= 0`` with a two-phase
simplex on the compact (Tucker) tableau using Bland's anti-cycling rule.
The tableau holds only the nonbasic columns and the rhs, as integer
numerators over one common denominator d > 0; two label lists name the
basic and the nonbasic variables.  A pivot on (r, e) with p = T[r][e]
maps every other row, the reduced-cost row included, to
``(p*T[i][j] - T[i][e]*T[r][j]) // d``, a division that is exact because
every entry is a minor of the integer data (Edmonds 1967; Azulay & Pique
2001).  Column e becomes ``-T[i][e]``, T[r][e] the old d, and d becomes p.
When p == d, as in most pivots on near-unimodular data, the map is
``T[i][j] - T[i][e]*T[r][j] // d``: d divides the whole numerator, so it
divides ``T[i][e]*T[r][j]``, and only the columns where row r is nonzero
change (Bareiss 1968; Applegate, Cook, Dash & Espinoza 2007).  Bland's
rule enters the lowest *label* with a positive reduced cost; the ratio
test cross-multiplies and breaks ties by the lowest basic label, so
the pivots are exactly those of the rational tableau.

Each row is scaled to integers by its own denominator den_i, so its unit
variable (slack, or artificial of an equality row) stands for den_i times
the row's own, and its dual is den_i times the unit variable's.  A row of
ints (den_i = 1, every catalog row) goes into the tableau as it is; only
a row that holds a Fraction is read through numerators and denominators.
Phase 1 maximises minus the sum of the artificials, so the artificial of
row i weighs -lcm(den) / den_i.  Each result entry (the optimum, every x
and every y) is read off the final tableau over d by ``linalg.quotient``:
an int unless it is a true quotient, and then a Fraction in lowest terms,
so optimal values, primal vertices, and dual certificates are exact.  The
duals are priced in one pass over the nonbasic labels and their reduced
costs; a row whose unit variable is basic, or was dropped with its row,
keeps the dual 0.  Returned primal points are basic solutions, i.e.
vertices of the feasible region.

The dual vector ``y`` has one entry per row, the inequality rows first and
then the equality rows, such that ``A^T y_le + A_eq^T y_eq >= c`` and
``b.y_le + b_eq.y_eq = c.x``.  Inequality duals are nonnegative; equality
duals are free in sign.  ``check_certificate`` verifies such a result from
the problem data alone, in integer arithmetic: each vector, row and column
is read as integer numerators over one common denominator, and every
comparison is an integer cross-multiplication.
"""

from __future__ import annotations

from fractions import Fraction as Q
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .linalg import Mat, Vec, lcm_fold, quotient

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


class _LpProblemFields(NamedTuple):
    c: Vec
    a: Mat
    b: Vec
    a_eq: Mat = ()
    b_eq: Vec = ()


class LpProblem(_LpProblemFields):
    """max c.x  s.t.  A x <= b, A_eq x = b_eq, x >= 0 (A is |b| x |c|)."""

    __slots__ = ()

    def __new__(cls, c: Vec, a: Mat, b: Vec, a_eq: Mat = (), b_eq: Vec = ()) -> "LpProblem":
        n = len(c)
        for row in a + a_eq:
            if len(row) != n:
                raise ValueError("constraint row length differs from objective")
        if len(a) != len(b) or len(a_eq) != len(b_eq):
            raise ValueError("constraint count differs from rhs length")
        # tuple.__new__ directly: the NamedTuple's own __new__ is one more
        # Python call that only packs the same five fields.
        return tuple.__new__(cls, (c, a, b, a_eq, b_eq))

    @classmethod
    def _make(cls, iterable: Iterable) -> "LpProblem":
        """Build through ``__new__``, so ``_replace`` checks too."""
        return cls(*iterable)

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


class LpResult(NamedTuple):
    status: str
    value: int | Q | None = None
    x: Vec | None = None
    y: Vec | None = None


def _numerators(values: Sequence[int | Q]) -> tuple[list[int], int]:
    """(z, d) with values == z / d: d the lcm of the denominators, d > 0.
    Ints are their own numerators over 1, with no lcm fold."""
    for v in values:
        if type(v) is not int:
            d = lcm_fold(v.denominator for v in values)
            return [v.numerator * (d // v.denominator) for v in values], d
    return list(values), 1


def _pivot(
    tab: list[list[int]], basic: list[int], nonbasic: list[int], d: int, r: int, e: int
) -> int:
    """Pivot ``tab / d`` on (r, e) as the module docstring says, swap the
    two labels, and return the new d.  A negative pivot, which only phase
    1's drive-out meets, negates row r first and flips the signs of column
    e's new entries, so d stays positive.

    When p == d, row i maps to ``T[i][j] - f*T[r][j] // d`` with f =
    T[i][e]: d divides the whole of ``d*T[i][j] - f*T[r][j]``, so it
    divides ``f*T[r][j]``, and only the columns where row r is nonzero
    change.  Those rows are updated in place; a row with f == 0 is left
    as it is.  Otherwise every row is rewritten over the new d."""
    prow = tab[r]
    p = prow[e]
    sign = 1
    if p < 0:
        prow = tab[r] = [-v for v in prow]
        p, sign = -p, -1
    if p == d:
        nonzero = [(j, b) for j, b in enumerate(prow) if b and j != e]
        for i, row in enumerate(tab):
            f = row[e]
            if f and i != r:
                for j, b in nonzero:
                    row[j] -= f * b // d
                row[e] = -sign * f
    else:
        for i, row in enumerate(tab):
            if i != r:
                f = row[e]
                if f:
                    row = tab[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
                    row[e] = -sign * f
                else:
                    tab[i] = [p * a // d for a in row]
    prow[e] = sign * d
    basic[r], nonbasic[e] = nonbasic[e], basic[r]
    return p


def _simplex(
    tab: list[list[int]], basic: list[int], nonbasic: list[int], d: int, last: int
) -> tuple[str, int]:
    """Run Bland-rule simplex on ``tab / d`` to optimality or unboundedness.

    The first ``len(basic)`` rows are the constraints and ``tab[-1]`` is the
    reduced-cost row, the rhs column last in each.  The entering variable
    is the lowest label below ``last`` with a positive reduced cost.  The
    leaving row minimises ``rhs / a`` by cross-multiplication, ties going
    to the lowest basic label.  Returns the status and the final d.
    """
    while True:
        z = tab[-1]
        enter, label = None, last
        for j, lab in enumerate(nonbasic):
            if lab < label and z[j] > 0:
                enter, label = j, lab
        if enter is None:
            return OPTIMAL, d
        leave = None
        for i, bi in enumerate(basic):
            row = tab[i]
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave, num, den = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and bi < basic[leave]):
                    leave, num, den = i, row[-1], a
        if leave is None:
            return UNBOUNDED, d
        d = _pivot(tab, basic, nonbasic, d, leave, enter)


def solve(problem: LpProblem) -> LpResult:
    """Solve the LP; statuses are optimal / unbounded / infeasible."""
    n = len(problem.c)
    m = len(problem.b)
    rows = list(zip(problem.a, problem.b)) + list(zip(problem.a_eq, problem.b_eq))
    if not rows:
        if any(cj > 0 for cj in problem.c):
            return LpResult(UNBOUNDED)
        return LpResult(OPTIMAL, 0, (0,) * n, ())

    # Labels: n originals; one unit variable per row, the slack of an
    # inequality row or the artificial of an equality row; an artificial
    # for each inequality row with negative rhs.  Row i is scaled to
    # integers by den[i] and negated if its rhs is negative; its unit
    # variable then stands for den[i] times the row's own.  The originals
    # and the slacks of negated inequality rows start nonbasic.
    r = len(rows)
    negative = [i for i, bi in enumerate(problem.b) if bi < 0]
    basic = list(range(n, n + r))
    nonbasic = list(range(n))
    for k, i in enumerate(negative):
        basic[i] = n + r + k
        nonbasic.append(n + i)
    tab: list[list[int]] = []
    den: list[int] = []
    for i, (ai, bi) in enumerate(rows):
        row, s = [*ai, bi], 1
        # A sum of ints is an int; a Fraction anywhere makes it a Fraction.
        if type(sum(row)) is not int:
            row, s = _numerators(row)
        if bi < 0:
            row = [-v for v in row]
        if negative:
            row[-1:-1] = [-1 if i == k else 0 for k in negative]
        tab.append(row)
        den.append(s)
    cost, scale = _numerators(problem.c)
    tab.append(cost + [0] * (len(negative) + 1))

    d = 1
    if r > m or negative:
        # Phase 1 maximises minus the sum of the artificials.  Row i's
        # stands for den[i] times the row's own, so it weighs -1 / den[i],
        # scaled by lcm(den) to an integer.  The phase-2 row is carried
        # along.
        arts = negative + list(range(m, r))
        w = lcm_fold(den[i] for i in arts)
        z = [0] * len(tab[0])
        for i in arts:
            k = w // den[i]
            z = [u + k * v for u, v in zip(z, tab[i])]
        tab.append(z)
        _, d = _simplex(tab, basic, nonbasic, d, n + r + len(negative))
        tab.pop()
        # Basic values are nonnegative, so the artificials sum to zero iff
        # each of them is zero.
        if any(tab[i][-1] for i, bi in enumerate(basic) if bi >= n + m):
            return LpResult(INFEASIBLE)
        # Drive remaining (zero-valued) artificials out; drop null rows.
        for i in reversed(range(len(basic))):
            if basic[i] >= n + m:
                row = tab[i]
                col = min(
                    ((lab, j) for j, lab in enumerate(nonbasic) if lab < n + m and row[j]),
                    default=None,
                )
                if col is None:
                    del tab[i], basic[i]
                else:
                    d = _pivot(tab, basic, nonbasic, d, i, col[1])
        # The inequality rows' artificials leave with their columns; the
        # equality rows' stay for their duals and never enter again.
        keep = [j for j, lab in enumerate(nonbasic) if lab < n + r]
        if len(keep) < len(nonbasic):
            nonbasic = [nonbasic[j] for j in keep]
            keep.append(-1)
            tab = [[row[j] for j in keep] for row in tab]

    status, d = _simplex(tab, basic, nonbasic, d, n + m)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)

    x = [0] * n
    for row, bi in zip(tab, basic):
        if bi < n and row[-1]:
            x[bi] = quotient(row[-1], d)
    # Dual values are the negated reduced costs of the unit variables,
    # times den[i], and negated again for an equality row that was
    # negated.  Each final row combines original rows, so these price
    # every row, those dropped as redundant in phase 1 included; a basic
    # unit variable, or one dropped with its row, prices its row at 0.
    z = tab[-1]
    d *= scale
    y = [0] * r
    for lab, p in zip(nonbasic, z):
        i = lab - n
        if i >= 0 and p:
            if i < m or rows[i][1] >= 0:
                p = -p
            y[i] = quotient(den[i] * p, d)
    return LpResult(OPTIMAL, quotient(-z[-1], d), tuple(x), tuple(y))


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
