from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as Q
from itertools import combinations

import pytest

from sphskel import lp
from sphskel.catalog import mark, table_tasks
from sphskel.linalg import dot, gcd_fold, lcm_fold, pivot, primitive, rank, solve_linear
from sphskel.pinv import skeleton_lp

from oracles import dense_pivot


def brute_force_lp(c, a, b):
    """Independent oracle: enumerate basic points and extreme rays.

    The feasible set {A x <= b, x >= 0} is pointed, so it is spanned by
    the feasible intersections of n constraints plus recession directions
    from (n-1)-subsets.  Returns ('infeasible',), ('unbounded',) or
    ('optimal', value).
    """
    n = len(c)
    rows = [list(map(Q, row)) for row in a] + [
        [Q(-1) if j == i else Q(0) for j in range(n)] for i in range(n)
    ]
    rhs = [Q(v) for v in b] + [Q(0)] * n

    def feasible(x):
        return all(dot(row, x) <= r for row, r in zip(rows, rhs))

    best = None
    for subset in combinations(range(len(rows)), n):
        sub = [rows[i] for i in subset]
        if rank(sub) < n:
            continue
        x = solve_linear(sub, [rhs[i] for i in subset])
        if x is not None and feasible(x):
            value = dot(c, x)
            best = value if best is None else max(best, value)
    if best is None:
        return ("infeasible",)
    # Extreme rays of the recession cone {A d <= 0, d >= 0}.
    for subset in combinations(range(len(rows)), n - 1):
        sub = [rows[i] for i in subset]
        if rank(sub) != n - 1:
            continue
        for free in range(n):
            probe = [list(r) for r in sub] + [
                [Q(1) if j == free else Q(0) for j in range(n)]
            ]
            d = solve_linear(probe, [Q(0)] * (n - 1) + [Q(1)])
            if d is None:
                continue
            for sign in (1, -1):
                cand = tuple(sign * v for v in d)
                if all(v >= 0 for v in cand) and all(
                    dot(row, cand) <= 0 for row in rows[: len(a)]
                ):
                    if dot(c, cand) > 0:
                        return ("unbounded",)
    return ("optimal", best)


# The dense Fraction tableau that ``lp.solve`` replaced, kept as an oracle:
# the integer kernel must take the same Bland pivots, so every LpResult is
# equal field by field.  ``stats`` counts ratio-test ties and degenerate
# pivots so the tests can show that they exercise both.


def _frac_pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            f = tab[i][col]
            tab[i] = [a - f * b for a, b in zip(tab[i], tab[row])]
    basis[row] = col


def _frac_reduced_costs(tab, basis, cost):
    red = list(cost)
    for i, bi in enumerate(basis):
        cb = cost[bi]
        if cb != 0:
            row = tab[i]
            for j in range(len(cost)):
                if row[j] != 0:
                    red[j] -= cb * row[j]
    return red


def _frac_simplex(tab, basis, cost, stats, last=None):
    last = len(cost) if last is None else last
    while True:
        red = _frac_reduced_costs(tab, basis, cost)
        enter = next((j for j in range(last) if red[j] > 0), None)
        if enter is None:
            return lp.OPTIMAL
        leave = None
        best_ratio = None
        for i, row in enumerate(tab):
            aij = row[enter]
            if aij > 0:
                ratio = row[-1] / aij
                if ratio == best_ratio:
                    stats["ties"] += 1
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            return lp.UNBOUNDED
        if best_ratio == 0:
            stats["degenerate"] += 1
        _frac_pivot(tab, basis, leave, enter)


def _fraction_solve(problem, stats=None):
    # Columns as in lp.solve: originals, one unit column per row (slack or
    # equality artificial), artificials of negative-rhs inequality rows.
    stats = stats if stats is not None else {"ties": 0, "degenerate": 0}
    n = len(problem.c)
    m = len(problem.b)
    rows = list(zip(problem.a, problem.b)) + list(zip(problem.a_eq, problem.b_eq))
    r = len(rows)
    if r == 0:
        if any(cj > 0 for cj in problem.c):
            return lp.LpResult(lp.UNBOUNDED)
        return lp.LpResult(lp.OPTIMAL, Q(0), (Q(0),) * n, ())
    art_rows = [i for i in range(m) if problem.b[i] < 0]
    ncols = n + r + len(art_rows)
    art_of_row = {i: n + r + k for k, i in enumerate(art_rows)}
    tab = []
    basis = []
    for i, (ai, bi) in enumerate(rows):
        row = [Q(x) for x in ai] + [Q(0)] * (ncols - n) + [Q(bi)]
        if bi < 0:
            row = [-v for v in row]
        if i in art_of_row:
            row[n + i] = Q(-1)
            row[art_of_row[i]] = Q(1)
            basis.append(art_of_row[i])
        else:
            row[n + i] = Q(1)
            basis.append(n + i)
        tab.append(row)
    if ncols > n + m:
        cost1 = [Q(0)] * (n + m) + [Q(-1)] * (ncols - n - m)
        _frac_simplex(tab, basis, cost1, stats)
        infeas = sum((tab[i][-1] for i in range(len(tab)) if basis[i] >= n + m), Q(0))
        if infeas != 0:
            return lp.LpResult(lp.INFEASIBLE)
        for i in reversed(range(len(tab))):
            if basis[i] >= n + m:
                col = next((j for j in range(n + m) if tab[i][j] != 0), None)
                if col is None:
                    del tab[i]
                    del basis[i]
                else:
                    _frac_pivot(tab, basis, i, col)
        tab = [row[: n + r] + row[-1:] for row in tab]
    cost = [Q(c) for c in problem.c] + [Q(0)] * r
    status = _frac_simplex(tab, basis, cost, stats, last=n + m)
    if status == lp.UNBOUNDED:
        return lp.LpResult(lp.UNBOUNDED)
    x = [Q(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][-1]
    red = _frac_reduced_costs(tab, basis, cost)
    y = tuple(
        red[n + i] if i >= m and bi < 0 else -red[n + i] for i, (_, bi) in enumerate(rows)
    )
    return lp.LpResult(lp.OPTIMAL, dot(problem.c, x), tuple(x), y)


# The integer tableau kernel that the compact one replaced, kept as its
# oracle: full columns (a unit column per row), each row a primitive integer
# vector over its own basic entry, pivoted by ``linalg.pivot``, and the
# reduced costs rebuilt from the basis after phase 1.  The compact kernel
# must take the same Bland pivots, so every LpResult is equal field by
# field.  ``stats`` counts phase-1 runs, drive-out pivots, null rows
# dropped and rows with a fractional entry, so the tests show what they ran.


def _lowest_terms(z, d):
    g = gcd_fold(z, d)
    return ([v // g for v in z], d // g) if g > 1 else (z, d)


def _tableau_objective(tab, basis, cost, scale):
    rows = [(cost[bi], tab[i], tab[i][bi]) for i, bi in enumerate(basis) if cost[bi]]
    d = lcm_fold(s for _, _, s in rows)
    z = [d * v for v in cost]
    for cb, row, s in rows:
        k = cb * (d // s)
        z = [a - k * b for a, b in zip(z, row)]
    return _lowest_terms(z, d * scale)


def _tableau_simplex(tab, basis, z, d, last):
    while True:
        enter = next((j for j in range(last) if z[j] > 0), None)
        if enter is None:
            return lp.OPTIMAL, z, d
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
            return lp.UNBOUNDED, z, d
        f = z[enter]
        p = pivot(tab, basis, leave, enter)
        z, d = _lowest_terms([p * a - f * b for a, b in zip(z, tab[leave])], d * p)


def _tableau_solve(problem, stats=None):
    stats = stats if stats is not None else Counter()
    n = len(problem.c)
    m = len(problem.b)
    rows = list(zip(problem.a, problem.b)) + list(zip(problem.a_eq, problem.b_eq))
    if not rows:
        if any(cj > 0 for cj in problem.c):
            return lp.LpResult(lp.UNBOUNDED)
        return lp.LpResult(lp.OPTIMAL, Q(0), (Q(0),) * n, ())
    r = len(rows)
    negative = [i for i in range(m) if problem.b[i] < 0]
    art_of_row = {i: n + r + k for k, i in enumerate(negative)}
    ncols = n + r + len(art_of_row)
    tab = []
    basis = []
    for i, (ai, bi) in enumerate(rows):
        den = lcm_fold((v.denominator for v in ai), bi.denominator)
        stats["fractional"] += den > 1
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
        stats["phase1"] += 1
        cost1 = [0] * (n + m) + [-1] * (ncols - n - m) + [0]
        _tableau_simplex(tab, basis, *_tableau_objective(tab, basis, cost1, 1), ncols)
        if any(tab[i][-1] for i in range(len(tab)) if basis[i] >= n + m):
            return lp.LpResult(lp.INFEASIBLE)
        for i in reversed(range(len(tab))):
            if basis[i] >= n + m:
                col = next((j for j in range(n + m) if tab[i][j] != 0), None)
                if col is None:
                    stats["null_rows"] += 1
                    del tab[i]
                    del basis[i]
                else:
                    stats["drive_out"] += 1
                    pivot(tab, basis, i, col)
        tab = [primitive(row[: n + r] + row[-1:]) for row in tab]

    scale = lcm_fold(v.denominator for v in problem.c)
    cost = [v.numerator * (scale // v.denominator) for v in problem.c] + [0] * (r + 1)
    status, z, d = _tableau_simplex(
        tab, basis, *_tableau_objective(tab, basis, cost, scale), n + m
    )
    if status == lp.UNBOUNDED:
        return lp.LpResult(lp.UNBOUNDED)
    x = [Q(0)] * n
    for row, bi in zip(tab, basis):
        if bi < n:
            x[bi] = Q(row[-1], row[bi])
    for i in range(m, r):
        if rows[i][1] < 0:
            z[n + i] = -z[n + i]
    y = tuple(Q(-z[n + i], d) for i in range(r))
    return lp.LpResult(lp.OPTIMAL, Q(-z[-1], d), tuple(x), y)

def _fraction_check_certificate(problem, result):
    # The Fraction checker that ``lp.check_certificate`` replaced, kept as
    # its oracle: the same tests, with Fraction sums and comparisons.
    if result.status != lp.OPTIMAL or result.x is None or result.y is None:
        return False
    x, y = result.x, result.y
    m = len(problem.b)
    a = problem.a + problem.a_eq
    b = problem.b + problem.b_eq
    if len(x) != len(problem.c) or len(y) != len(b):
        return False
    if any(v < 0 for v in x) or any(v < 0 for v in y[:m]):
        return False
    for i, (row, bi) in enumerate(zip(a, b)):
        ax = dot(row, x)
        if ax > bi or (i >= m and ax != bi):
            return False
    for j in range(len(problem.c)):
        col = sum(a[i][j] * y[i] for i in range(len(y)))
        if col < problem.c[j]:
            return False
    if dot(problem.c, x) != dot(b, y):
        return False
    if result.value is not None and result.value != dot(problem.c, x):
        return False
    return True


def test_one_dimensional():
    res = lp.solve(lp.LpProblem.build([1], [[1]], [1]))
    assert res.status == lp.OPTIMAL
    assert res.value == 1 and res.x == (Q(1),) and res.y == (Q(1),)


def test_unbounded():
    res = lp.solve(lp.LpProblem.build([1], [[-1]], [1]))
    assert res.status == lp.UNBOUNDED


def test_infeasible():
    res = lp.solve(lp.LpProblem.build([0], [[1], [-1]], [-2, 1]))
    assert res.status == lp.INFEASIBLE


def test_negative_rhs_phase_one():
    # x >= 2 written as -x <= -2, maximize -x: optimum at x = 2.
    res = lp.solve(lp.LpProblem.build([-1], [[-1]], [-2]))
    assert res.status == lp.OPTIMAL
    assert res.value == -2 and res.x == (Q(2),)
    assert lp.check_certificate(lp.LpProblem.build([-1], [[-1]], [-2]), res)


def test_certificate_rejects_perturbation():
    problem = lp.LpProblem.build([1], [[1]], [1])
    res = lp.solve(problem)
    assert lp.check_certificate(problem, res)
    bad = lp.LpResult(lp.OPTIMAL, res.value, res.x, (res.y[0] - 1,))
    assert not lp.check_certificate(problem, bad)


def test_row_scaling_invariance(rng):
    for _ in range(40):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 5)
        a = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(m)]
        b = [rng.randrange(0, 5) for _ in range(m)]
        c = [rng.randrange(-3, 4) for _ in range(n)]
        scales = [Q(rng.randrange(1, 5), rng.randrange(1, 4)) for _ in range(m)]
        p1 = lp.LpProblem.build(c, a, b)
        p2 = lp.LpProblem.build(
            c,
            [[s * v for v in row] for s, row in zip(scales, a)],
            [s * v for s, v in zip(scales, b)],
        )
        r1, r2 = lp.solve(p1), lp.solve(p2)
        assert r1.status == r2.status
        if r1.status == lp.OPTIMAL:
            assert r1.value == r2.value


def random_problem(rng, allow_negative_rhs=False):
    n = rng.randrange(1, 5)
    m = rng.randrange(1, 6)
    a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
    lo = -3 if allow_negative_rhs else 0
    b = [rng.randrange(lo, 6) for _ in range(m)]
    c = [rng.randrange(-4, 5) for _ in range(n)]
    return c, a, b


def test_random_against_oracle(rng):
    for _ in range(120):
        c, a, b = random_problem(rng, allow_negative_rhs=True)
        expected = brute_force_lp(c, a, b)
        res = lp.solve(lp.LpProblem.build(c, a, b))
        assert res.status == expected[0], (c, a, b)
        if res.status == lp.OPTIMAL:
            assert res.value == expected[1], (c, a, b)
            assert lp.check_certificate(lp.LpProblem.build(c, a, b), res)


def test_group_embedding_closed_form_certificate():
    # A-type group embedding in unit-rhs normalization, n = 5, k = 2.
    n, k = 5, 2
    from sphskel.roots import RootSystem, cartan_matrix

    cart = cartan_matrix(RootSystem.parse(f"A{n}"))
    a = [[Q(-v, 2) for v in row] for row in cart]
    a.append([Q(1) if j == k - 1 else Q(0) for j in range(n)])
    b = [Q(1)] * (n + 1)
    c = [Q(0)] * n
    c[0] += 1
    c[k - 1] -= 1
    c[n - 1] += 1
    problem = lp.LpProblem.build(c, a, b)
    res = lp.solve(problem)
    assert res.status == lp.OPTIMAL
    y = [Q(2 * (i - 1)) if i < k else Q(2 * (n - i)) for i in range(1, n + 1)]
    y.append(Q(n - 2 * (k - 1)))
    expected = Q(n * n - 2 * k * n + 2 * n + 2 * k * k - 6 * k + 4)
    assert sum(y) == expected == res.value
    assert lp.check_certificate(problem, lp.LpResult(lp.OPTIMAL, res.value, res.x, tuple(y)))


def test_solve_free_matches_symmetric_box():
    # max x + y over the square |x| <= 1, |y| <= 2.
    res = lp.solve_free(
        [Q(1), Q(1)],
        [[Q(1), Q(0)], [Q(-1), Q(0)], [Q(0), Q(1)], [Q(0), Q(-1)]],
        [Q(1), Q(1), Q(2), Q(2)],
    )
    assert res.status == lp.OPTIMAL and res.value == 3 and res.x == (Q(1), Q(2))


def _same_as_oracle(problem, stats):
    res = lp.solve(problem)
    assert res == _fraction_solve(problem, stats), problem
    if res.status == lp.OPTIMAL:
        assert lp.check_certificate(problem, res), problem
    return res.status


def _hull_problem(rng):
    # point_in_hull's shape: barycentric weights, equalities as native rows.
    d = rng.randrange(1, 4)
    points = [[rng.randrange(-2, 3) for _ in range(d)] for _ in range(rng.randrange(1, 6))]
    target = [Q(rng.randrange(-4, 5), rng.randrange(1, 3)) for _ in range(d)]
    a_eq = [[p[j] for p in points] for j in range(d)] + [[1] * len(points)]
    return lp.LpProblem.build([0] * len(points), [], [], a_eq, target + [1])


def _degenerate_problem(rng):
    # Small entries, mostly zero rhs and repeated rows: ratio-test ties.
    n = rng.randrange(2, 5)
    base = [[rng.randrange(-1, 2) for _ in range(n)] for _ in range(rng.randrange(1, 4))]
    rows = [list(rng.choice(base)) for _ in range(rng.randrange(2, 7))]
    b = [rng.choice((0, 0, 0, 1, -1)) for _ in rows]
    c = [rng.randrange(-1, 3) for _ in range(n)]
    return lp.LpProblem.build(c, rows, b)


def _rational_problem(rng):
    def r():
        return Q(rng.randrange(-6, 7), rng.choice((1, 2, 3, 4, 6)))

    n, m = rng.randrange(1, 5), rng.randrange(1, 6)
    a = [[r() for _ in range(n)] for _ in range(m)]
    return lp.LpProblem.build([r() for _ in range(n)], a, [r() for _ in range(m)])


def _mixed_problem(rng):
    return lp.LpProblem.build(*random_problem(rng, allow_negative_rhs=True))


def _equality_problem(rng):
    # Mixed <= and = rows, either rhs sign; 1-3 equality rows, most of them
    # through a common point x >= 0, the third (if any) the sum of the
    # others, so that phase 1 also meets redundant equality rows.
    c, a, b = random_problem(rng, allow_negative_rhs=True)
    point = [rng.randrange(0, 3) for _ in c]
    a_eq = [[rng.randrange(-3, 4) for _ in c] for _ in range(rng.randrange(1, 3))]
    if len(a_eq) == 2 and rng.random() < 0.5:
        a_eq.append([u + v for u, v in zip(*a_eq)])
    b_eq = [dot(row, point) + rng.choice((0, 0, 0, 1, -1)) for row in a_eq]
    return lp.LpProblem.build(c, a, b, a_eq, b_eq)


def _as_pairs(problem):
    """The same LP with each equality row written as a <= / >= row pair."""
    return lp.LpProblem(
        problem.c,
        problem.a + problem.a_eq + tuple(tuple(-v for v in row) for row in problem.a_eq),
        problem.b + problem.b_eq + tuple(-v for v in problem.b_eq),
    )


@pytest.mark.parametrize(
    "make, expected",
    [
        (_mixed_problem, {lp.OPTIMAL, lp.UNBOUNDED, lp.INFEASIBLE}),
        (_degenerate_problem, {lp.OPTIMAL, lp.UNBOUNDED, lp.INFEASIBLE}),
        (_hull_problem, {lp.OPTIMAL, lp.INFEASIBLE}),
        (_rational_problem, {lp.OPTIMAL, lp.UNBOUNDED, lp.INFEASIBLE}),
        (_equality_problem, {lp.OPTIMAL, lp.UNBOUNDED, lp.INFEASIBLE}),
    ],
    ids=["phase1-mixed", "degenerate", "hull-equalities", "rational", "equalities"],
)
def test_integer_kernel_matches_fraction_oracle(make, expected):
    rng = random.Random(f"lp-oracle-{make.__name__}")
    stats = {"ties": 0, "degenerate": 0}
    statuses = [_same_as_oracle(make(rng), stats) for _ in range(300)]
    assert set(statuses) == expected
    assert stats["degenerate"] > 0
    if make is _degenerate_problem:
        assert stats["ties"] > 0



def _scaled_phase1_problem(rng):
    # Rows through a point x0 >= 0, most of them with negative rhs, each
    # scaled by its own 1/s, and a zero objective: x is where phase 1 ends,
    # so it shows the phase-1 weight of every artificial.
    n, m = rng.randrange(2, 6), rng.randrange(3, 7)
    x0 = [rng.randrange(0, 3) for _ in range(n)]
    rows, b = [], []
    for _ in range(m):
        s = Q(1, rng.choice((1, 2, 5, 11)))
        row = [rng.randrange(-4, 3) for _ in range(n)]
        rows.append([s * v for v in row])
        b.append(s * (dot(row, x0) + rng.choice((0, 0, 1))))
    return lp.LpProblem.build([0] * n, rows, b)


def test_compact_kernel_matches_tableau_oracle_on_catalog():
    # Every LP of the rank-8 appendix tables, built as verify builds it.
    tasks = table_tasks(8)
    for spec, k in tasks:
        problem = skeleton_lp(mark(spec, k))
        assert lp.solve(problem) == _tableau_solve(problem), (spec.label(), k)
    assert len(tasks) == 867


def _seeded_lps():
    """2,800 LPs from seven makers in turn: phase 1, ties, equality rows,
    Fractions, dropped rows and drive-outs."""
    rng = random.Random("lp-compact-oracle")
    makers = (
        _mixed_problem,
        _degenerate_problem,
        _hull_problem,
        _rational_problem,
        _equality_problem,
        _mixed_number_problem,
        _scaled_phase1_problem,
    )
    for t in range(400 * len(makers)):
        yield makers[t % len(makers)](rng)


def test_compact_kernel_matches_tableau_oracle_on_seeded_lps():
    stats = Counter()
    for problem in _seeded_lps():
        res = lp.solve(problem)
        assert res == _tableau_solve(problem, stats), problem
        stats[res.status] += 1
    assert min(stats[s] for s in (lp.OPTIMAL, lp.UNBOUNDED, lp.INFEASIBLE)) > 200, stats
    assert stats["phase1"] > 1500 and stats["fractional"] > 1000, stats
    assert stats["drive_out"] > 50 and stats["null_rows"] > 20, stats


def _pivot_branches(monkeypatch, problems):
    """Solve each problem with ``lp._pivot`` checked against the dense
    update at every pivot; count the pivots by branch."""
    counts = Counter()
    sparse = lp._pivot

    def checked(tab, basic, nonbasic, d, r, e):
        p = tab[r][e]
        counts["negative"] += p < 0
        counts["p!=d" if abs(p) != d else "p=d=1" if d == 1 else "p=d>1"] += 1
        expected = ([list(row) for row in tab], list(basic), list(nonbasic))
        expected_d = dense_pivot(*expected, d, r, e)
        new_d = sparse(tab, basic, nonbasic, d, r, e)
        assert (tab, basic, nonbasic, new_d) == (*expected, expected_d)
        return new_d

    monkeypatch.setattr(lp, "_pivot", checked)
    for problem in problems:
        lp.solve(problem)
    return counts


def test_sparse_pivot_matches_dense_pivot_on_catalog(monkeypatch):
    problems = [skeleton_lp(mark(spec, k)) for spec, k in table_tasks(8)]
    counts = _pivot_branches(monkeypatch, problems)
    pivots = counts["p=d=1"] + counts["p=d>1"] + counts["p!=d"]
    assert len(problems) == 867 and pivots == 2761, counts
    assert min(counts[k] for k in ("p=d=1", "p=d>1", "p!=d")) > 0, counts


def test_sparse_pivot_matches_dense_pivot_on_seeded_lps(monkeypatch):
    counts = _pivot_branches(monkeypatch, _seeded_lps())
    assert min(counts[k] for k in ("p=d=1", "p=d>1", "p!=d", "negative")) > 0, counts


def test_equality_rows_match_pair_encoding():
    # The native equality rows against the +/- row pairs they replaced, on
    # both kernels; and the checker on the native certificates.
    rng = random.Random("lp-equality-rows")
    statuses = []
    dual_cases = primal_cases = 0
    for _ in range(300):
        problem = _equality_problem(rng)
        res = lp.solve(problem)
        pairs = _as_pairs(problem)
        for other in (lp.solve(pairs), _fraction_solve(pairs)):
            assert (res.status, res.value) == (other.status, other.value), problem
        statuses.append(res.status)
        if res.status != lp.OPTIMAL:
            continue
        assert lp.check_certificate(problem, res), problem
        m = len(problem.b)
        for k, bk in enumerate(problem.b_eq):
            if bk != 0:
                # The gap c.x - b.y moves by b_eq[k].
                y = list(res.y)
                y[m + k] += 1
                bad = lp.LpResult(lp.OPTIMAL, res.value, res.x, tuple(y))
                assert not lp.check_certificate(problem, bad), problem
                dual_cases += 1
                break
        for j in range(len(problem.c)):
            if any(row[j] for row in problem.a_eq):
                x = list(res.x)
                x[j] += 1
                bad = lp.LpResult(lp.OPTIMAL, None, tuple(x), res.y)
                assert not lp.check_certificate(problem, bad), problem
                primal_cases += 1
                break
    assert set(statuses) == {lp.OPTIMAL, lp.UNBOUNDED, lp.INFEASIBLE}
    assert dual_cases > 20 and primal_cases > 20


def test_equality_duals_are_free_in_sign():
    # max -x s.t. x = 2 has dual -1; the negated row -x = -2 (negated again
    # inside the solver) has dual +1.
    for a_eq, b_eq, y in (([[1]], [2], -1), ([[-1]], [-2], 1)):
        problem = lp.LpProblem.build([-1], [], [], a_eq, b_eq)
        res = lp.solve(problem)
        assert res == lp.LpResult(lp.OPTIMAL, Q(-2), (Q(2),), (Q(y),))
        assert lp.check_certificate(problem, res)


def test_certificate_checks_equality_rows():
    # x1 = x2 with a zero objective: every feasible x is optimal with y = 0,
    # so only the equality test can reject x = (1, 0).
    problem = lp.LpProblem.build([0, 0], [], [], [[1, -1]], [0])
    good = lp.LpResult(lp.OPTIMAL, Q(0), (Q(1), Q(1)), (Q(0),))
    assert lp.check_certificate(problem, good)
    bad = lp.LpResult(lp.OPTIMAL, Q(0), (Q(1), Q(0)), (Q(0),))
    assert not lp.check_certificate(problem, bad)


def _mixed_number_problem(rng):
    # ints and Fractions side by side in c, A, b, A_eq and b_eq; some
    # equality rows duplicated, exactly or scaled, so phase 1 drops rows.
    def entry(lo, hi):
        v = rng.randrange(lo, hi)
        return v if rng.random() < 0.5 else Q(v, rng.choice((1, 2, 3, 4, 6)))

    n, m, k = rng.randrange(1, 5), rng.randrange(0, 5), rng.randrange(0, 3)
    point = [Q(rng.randrange(0, 4), rng.choice((1, 2))) for _ in range(n)]
    a = [[entry(-4, 5) for _ in range(n)] for _ in range(m)]
    b = [entry(-2, 6) for _ in range(m)]
    a_eq = [[entry(-3, 4) for _ in range(n)] for _ in range(k)]
    b_eq = [dot(row, point) + rng.choice((0, 0, 0, 1, Q(-1, 2))) for row in a_eq]
    if a_eq and rng.random() < 0.4:
        i, s = rng.randrange(len(a_eq)), rng.choice((1, 1, 2, Q(-1, 3)))
        a_eq.append([s * v for v in a_eq[i]])
        b_eq.append(s * b_eq[i])
    c = [entry(-4, 5) for _ in range(n)]
    return lp.LpProblem.build(c, a, b, a_eq, b_eq)


def _claimed_results(rng, res):
    """The optimal result, then variants of it: x, y or value moved by a
    small rational, a truncated x, and no value."""

    def moved(v):
        v = list(v)
        v[rng.randrange(len(v))] += rng.choice((1, -1, Q(1, 2), Q(-1, 3)))
        return tuple(v)

    yield res
    delta = rng.choice((1, Q(-1, 2), Q(1, 6)))
    yield lp.LpResult(lp.OPTIMAL, res.value + delta, res.x, res.y)
    yield lp.LpResult(lp.OPTIMAL, None, res.x, res.y)
    if res.x:
        yield lp.LpResult(lp.OPTIMAL, res.value, moved(res.x), res.y)
        yield lp.LpResult(lp.OPTIMAL, None, moved(res.x), res.y)
        yield lp.LpResult(lp.OPTIMAL, res.value, res.x[:-1], res.y)
    if res.y:
        yield lp.LpResult(lp.OPTIMAL, res.value, res.x, moved(res.y))


def test_integer_checker_matches_fraction_oracle():
    rng = random.Random("lp-certificate-oracle")
    cases = accepted = 0
    for _ in range(3000):
        problem = _mixed_number_problem(rng)
        res = lp.solve(problem)
        claims = _claimed_results(rng, res) if res.status == lp.OPTIMAL else [res]
        for claim in claims:
            verdict = lp.check_certificate(problem, claim)
            assert verdict == _fraction_check_certificate(problem, claim), (problem, claim)
            cases += 1
            accepted += verdict
    assert accepted >= 1000 and cases - accepted >= 1000


@pytest.mark.parametrize(
    "a_eq, b_eq",
    [([[1, 0], [1]], [0, 0]), ([[1, 0]], [0, 1])],
    ids=["row-length", "rhs-length"],
)
def test_equality_rows_are_checked(a_eq, b_eq):
    with pytest.raises(ValueError):
        lp.LpProblem.build([1, 1], [], [], a_eq, b_eq)


def test_integer_kernel_without_constraints():
    stats = {"ties": 0, "degenerate": 0}
    for c in ([], [0, 0], [-1, Q(-1, 2)], [0, Q(1, 3)]):
        _same_as_oracle(lp.LpProblem.build(c, [], []), stats)
    assert lp.solve(lp.LpProblem.build([0, Q(1, 3)], [], [])).status == lp.UNBOUNDED
    res = lp.solve(lp.LpProblem.build([-1, 0], [], []))
    assert res == lp.LpResult(lp.OPTIMAL, Q(0), (Q(0), Q(0)), ())


def _fractional_entries(res):
    """The count of Fraction entries of an optimal result, each checked to
    be in normal form: an int exactly when its denominator is 1, and
    otherwise a Fraction (whose denominator, being positive, exceeds 1)."""
    entries = (res.value, *res.x, *res.y)
    for v in entries:
        assert type(v) is (int if v.denominator == 1 else Q), res
    return sum(type(v) is Q for v in entries)


def test_results_are_ints_unless_true_quotients():
    # The value, every x and every y of lp.solve, on seeded LPs with
    # Fraction data, on equality-row LPs and on every rank-8 catalog LP,
    # equal to the Fraction tableau's result and in normal form.
    rng = random.Random("lp-normal-form")
    fractional = Counter()
    makers = (_rational_problem, _equality_problem)
    problems = [(make.__name__, make(rng)) for make in makers for _ in range(300)]
    problems += [("catalog", skeleton_lp(mark(spec, k))) for spec, k in table_tasks(8)]
    for kind, problem in problems:
        res = lp.solve(problem)
        assert res == _fraction_solve(problem), problem
        if res.status == lp.OPTIMAL:
            fractional[kind, "optimal"] += 1
            fractional[kind, "fractional"] += bool(_fractional_entries(res))
    assert fractional["catalog", "optimal"] == 867, fractional
    for kind in ("_rational_problem", "_equality_problem", "catalog"):
        optimal = fractional[kind, "optimal"]
        # Both kinds of entry occur: all-int results and quotients.
        assert 10 < fractional[kind, "fractional"] < optimal - 10, fractional
    assert _fractional_entries(lp.solve(lp.LpProblem.build([0, Q(-1, 3)], [], []))) == 0


def _one_fraction_problem(rng):
    # Rows of ints, about two in three with exactly one Fraction at a
    # random position, the rhs included; some of those Fractions are
    # integral (denominator 1).  Either rhs sign, and 0-1 equality rows.
    n = rng.randrange(1, 5)

    def row():
        entries = [rng.randrange(-4, 5) for _ in range(n)] + [rng.randrange(-3, 6)]
        if rng.random() < 2 / 3:
            j = rng.randrange(n + 1)
            entries[j] = Q(rng.randrange(-6, 7), rng.choice((1, 2, 3, 4, 6)))
        return entries

    ineq = [row() for _ in range(rng.randrange(1, 6))]
    eq = [row() for _ in range(rng.randrange(0, 2))]
    c = [rng.randrange(-4, 5) for _ in range(n)]
    return lp.LpProblem.build(
        c, [r[:-1] for r in ineq], [r[-1] for r in ineq], [r[:-1] for r in eq], [r[-1] for r in eq]
    )


def test_rows_with_one_fraction_match_fraction_oracle():
    # lp.solve reads an all-int row as it is and scales only a row that
    # holds a Fraction; both must give the Fraction tableau's result, in
    # normal form.
    rng = random.Random("lp-one-fraction-rows")
    seen = Counter()
    for _ in range(600):
        problem = _one_fraction_problem(rng)
        for ai, bi in zip(problem.a + problem.a_eq, problem.b + problem.b_eq):
            where = [j for j, v in enumerate((*ai, bi)) if type(v) is Q]
            seen["int row" if not where else "rhs" if where == [len(ai)] else "lhs"] += 1
        res = lp.solve(problem)
        assert res == _fraction_solve(problem), problem
        seen[res.status] += 1
        if res.status == lp.OPTIMAL:
            seen["fractional"] += bool(_fractional_entries(res))
            assert lp.check_certificate(problem, res), problem
    assert min(seen[k] for k in ("int row", "rhs", "lhs")) > 100, seen
    assert min(seen[s] for s in (lp.OPTIMAL, lp.UNBOUNDED, lp.INFEASIBLE)) > 50, seen
    assert 10 < seen["fractional"] < seen[lp.OPTIMAL] - 10, seen


def _moved(res, field, i, delta):
    v = list(getattr(res, field))
    v[i] += delta
    return res._replace(**{field: tuple(v)})


def test_certificate_reads_all_int_results():
    # max x1 + x2 s.t. x1 <= 2, x2 <= 3: every entry an int, and each one,
    # moved by 1 or by 1/2, breaks feasibility or the duality gap.
    problem = lp.LpProblem.build([1, 1], [[1, 0], [0, 1]], [2, 3])
    res = lp.solve(problem)
    assert res == (lp.OPTIMAL, 5, (2, 3), (1, 1))
    assert all(type(v) is int for v in (res.value, *res.x, *res.y))
    assert lp.check_certificate(problem, res)
    for field in ("x", "y"):
        for i in range(2):
            for delta in (1, Q(1, 2)):
                bad = _moved(res, field, i, delta)
                assert not lp.check_certificate(problem, bad), (field, i, delta)
                assert not _fraction_check_certificate(problem, bad)


def test_certificate_reads_all_int_catalog_results():
    # Each all-int catalog result is accepted.  Its y entries price rows
    # with b = m_D > 0, so moving one by 1 or 1/2 opens the duality gap;
    # moving an x entry with c_j != 0 breaks value == c.x.  Every other
    # move must get the Fraction checker's verdict.
    checked = rejected = 0
    for spec, k in table_tasks(8):
        problem = skeleton_lp(mark(spec, k))
        res = lp.solve(problem)
        if _fractional_entries(res):
            continue
        assert lp.check_certificate(problem, res), (spec.label(), k)
        checked += 1
        for field, entries in (("x", problem.c), ("y", problem.b)):
            for i, coeff in enumerate(entries):
                for delta in (1, Q(1, 2)):
                    bad = _moved(res, field, i, delta)
                    verdict = lp.check_certificate(problem, bad)
                    assert verdict == _fraction_check_certificate(problem, bad)
                    if coeff:
                        assert not verdict, (spec.label(), k, field, i, delta)
                    rejected += not verdict
    assert checked > 700 and rejected > 10000, (checked, rejected)


def _sympy_linprog(c, a, b, a_eq=(), b_eq=()):
    """sympy's answer to max c.x s.t. A x <= b, A_eq x = b_eq, x >= 0:
    ("optimal", value, x), ("unbounded",) or ("infeasible",)."""
    simplex = pytest.importorskip("sympy.solvers.simplex")
    # linprog minimises, and needs an inequality row beside equality rows;
    # 0 <= 0 stands in for none.
    a_le, b_le = (a, b) if a or not a_eq else ([[0] * len(c)], [0])
    try:
        value, x = simplex.linprog(
            [-v for v in c], a_le, b_le, list(a_eq) or None, list(b_eq) or None
        )
    except simplex.InfeasibleLPError:
        return (lp.INFEASIBLE,)
    except simplex.UnboundedLPError:
        return (lp.UNBOUNDED,)
    return (lp.OPTIMAL, -Q(str(value)), [Q(str(v)) for v in x])


def _satisfies(c, a, b, a_eq, b_eq, x) -> bool:
    return (
        all(v >= 0 for v in x)
        and all(dot(row, x) <= v for row, v in zip(a, b))
        and all(dot(row, x) == v for row, v in zip(a_eq, b_eq))
    )


def test_against_sympy_linprog():
    # The random LPs of acceptance 7(e), against an independent simplex.
    rng = random.Random(73)
    checked = set()
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 6)
        a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        b = [rng.randrange(-2, 6) for _ in range(m)]
        c = [rng.randrange(-4, 5) for _ in range(n)]
        res = lp.solve(lp.LpProblem.build(c, a, b))
        expected = _sympy_linprog(c, a, b)
        assert res.status == expected[0], (c, a, b)
        if res.status == lp.OPTIMAL:
            assert res.value == expected[1], (c, a, b)
        checked.add(res.status)
    assert checked == {lp.OPTIMAL, lp.UNBOUNDED, lp.INFEASIBLE}


def test_against_sympy_linprog_equality_rows():
    # Rational LPs with equality rows, alone or beside inequality rows, in
    # sympy through A_eq and b_eq.  sympy 1.14's linprog can return, as the
    # optimum of an infeasible LP, a point that breaks a row: max x0 + x1
    # s.t. x0 + x1 <= 0, 2 x0 + x1 = 2 gives (1, 0).  Its optimum counts
    # only with a point that meets every row; an LP whose point does not
    # goes to brute_force_lp, each equality row as two inequalities.
    rng = random.Random(74)
    checked = set()
    decided_by_sympy = 0
    for _ in range(40):
        n = rng.randrange(1, 5)
        m = rng.randrange(0, 4)
        k = rng.randrange(1, 3)

        def entry():
            return Q(rng.randrange(-4, 5), rng.choice((1, 1, 2, 3)))

        a = [[entry() for _ in range(n)] for _ in range(m)]
        b = [rng.randrange(-2, 6) for _ in range(m)]
        a_eq = [[entry() for _ in range(n)] for _ in range(k)]
        # About half the equality rows hold at a point x0 >= 0.
        x0 = [Q(rng.randrange(0, 4), rng.choice((1, 2))) for _ in range(n)]
        b_eq = [dot(row, x0) if rng.random() < 0.5 else rng.randrange(-3, 4) for row in a_eq]
        c = [entry() for _ in range(n)]
        problem = (c, a, b, a_eq, b_eq)
        res = lp.solve(lp.LpProblem.build(*problem))
        expected = _sympy_linprog(*problem)
        if expected[0] == lp.OPTIMAL and not _satisfies(*problem, expected[2]):
            negated = [[-v for v in row] for row in a_eq]
            expected = brute_force_lp(c, a + a_eq + negated, b + b_eq + [-v for v in b_eq])
        else:
            decided_by_sympy += 1
        assert res.status == expected[0], problem
        if res.status == lp.OPTIMAL:
            assert res.value == expected[1], problem
        checked.add(res.status)
    assert checked == {lp.OPTIMAL, lp.UNBOUNDED, lp.INFEASIBLE}
    assert decided_by_sympy >= 20


# solve_each: a base LP and added rows r.x <= m with c lowered by r, each
# solved along the base's shared Bland path from the point where its own
# support first enters, must give what a cold solve of its problem gives.


def _added(problem, r, mr):
    c, a, b, a_eq, b_eq = problem
    c_r = tuple(cj - v for cj, v in zip(c, r))
    return lp.LpProblem(c_r, a + (tuple(r),), b + (mr,), a_eq, b_eq)


def _shared_base(rng):
    # Int entries, b >= 0 and no equality rows: the bases solve_each
    # shares.  Entries up to 5 make pivots with p != d; zero rhs and a
    # row repeated, or doubled with its rhs, make ratio-test ties.
    n, m = rng.randrange(1, 6), rng.randrange(0, 6)
    a = [[rng.randrange(-3, 6) for _ in range(n)] for _ in range(m)]
    b = [rng.choice((0, 0, 1, 2, 3, 5, 7)) for _ in a]
    if a and rng.random() < 0.5:
        i, s = rng.randrange(len(a)), rng.choice((1, 2))
        a.append([s * v for v in a[i]])
        b.append(s * b[i])
    c = [rng.randrange(-2, 6) for _ in range(n)]
    return lp.LpProblem.build(c, a, b)


def _added_rows(rng, n):
    rows = []
    for _ in range(rng.randrange(1, 7)):
        support = set(rng.sample(range(n), rng.randrange(0, min(n, 3) + 1)))
        r = tuple(rng.randrange(1, 4) if j in support else 0 for j in range(n))
        rows.append((r, rng.randrange(0, 5)))
    return rows


# Each fall-back, as (maker of base, maker of row) changes: the base needs
# phase 1 or holds a Fraction, or the row holds a negative entry, a
# Fraction entry or a negative rhs.
def _phase1_base(rng, problem):
    c, a, b, _, _ = problem
    if not b:
        return lp.LpProblem.build(c, [[1] * len(c)], [-1])
    i = rng.randrange(len(b))
    return problem._replace(b=b[:i] + (-1 - b[i],) + b[i + 1 :])


def _equality_base(rng, problem):
    n = len(problem.c)
    return problem._replace(a_eq=(tuple(rng.randrange(0, 3) for _ in range(n)),), b_eq=(2,))


def _fraction_base(rng, problem):
    c = problem.c
    j = rng.randrange(len(c))
    return problem._replace(c=c[:j] + (Q(2 * c[j] + 1, 2),) + c[j + 1 :])


def _negative_entry(rng, r, mr):
    j = rng.randrange(len(r))
    return r[:j] + (-1 - r[j],) + r[j + 1 :], mr


def _fraction_entry(rng, r, mr):
    j = rng.randrange(len(r))
    return r[:j] + (Q(2 * r[j] + 1, 2),) + r[j + 1 :], mr


def _negative_rhs(rng, r, mr):
    return r, -1 - mr


BASE_FALLBACKS = (_phase1_base, _equality_base, _fraction_base)
ROW_FALLBACKS = (_negative_entry, _fraction_entry, _negative_rhs)


def _base_path(problem):
    """The base's own Bland path, seen through ``_simplex``'s entering
    hook: for each entering label, the d before its pivot and whether its
    ratio test ties; and the base's status."""
    c, a, b, _, _ = problem
    n, m = len(c), len(b)
    tab = [[*ai, bi] for ai, bi in zip(a, b)] + [[*c, 0]]
    steps = []

    def record(tab, basic, nonbasic, d, label):
        e = nonbasic.index(label)
        ratios = [Q(row[-1], row[e]) for row in tab[:-1] if row[e] > 0]
        steps.append((label, d, len(ratios) > 1 and ratios.count(min(ratios)) > 1))

    status, _ = lp._simplex(tab, list(range(n, n + m)), list(range(n)), 1, n + m, record)
    return steps, status


def _seeded_solve_each_cases():
    """600 bases with 1-6 added rows each; every fifth base or row in turn
    takes one of the fall-backs."""
    rng = random.Random("lp-solve-each")
    for t in range(600):
        problem = _shared_base(rng)
        rows = _added_rows(rng, len(problem.c))
        base_fallback = row_fallback = None
        if t % 5 == 1:
            base_fallback = BASE_FALLBACKS[t // 5 % len(BASE_FALLBACKS)]
            problem = base_fallback(rng, problem)
        elif t % 5 == 2:
            row_fallback = ROW_FALLBACKS[t // 5 % len(ROW_FALLBACKS)]
            i = rng.randrange(len(rows))
            rows[i] = row_fallback(rng, *rows[i])
        yield problem, rows, base_fallback, row_fallback


def test_solve_each_equals_cold_solve(monkeypatch):
    solve = lp.solve
    cold_calls = Counter()

    def counted(problem):
        cold_calls["solve"] += 1
        return solve(problem)

    monkeypatch.setattr(lp, "solve", counted)
    seen = Counter()
    for problem, rows, base_fallback, row_fallback in _seeded_solve_each_cases():
        cold_calls.clear()
        got = lp.solve_each(problem, rows)
        falls_back = [
            base_fallback is not None
            or not all(type(v) is int and v >= 0 for v in (*r, mr))
            for r, mr in rows
        ]
        assert cold_calls["solve"] == sum(falls_back), (problem, rows)
        want = [solve(_added(problem, r, mr)) for r, mr in rows]
        assert repr(got) == repr(want), (problem, rows)
        seen[(base_fallback or row_fallback or _shared_base).__name__] += 1
        if base_fallback is not None:
            continue
        steps, status = _base_path(problem)
        labels = [label for label, _, _ in steps]
        for (r, mr), fell_back in zip(rows, falls_back):
            if fell_back:
                continue
            # The first step that enters a column of the row's support.
            first = next((k for k, lab in enumerate(labels) if lab < len(r) and r[lab]), None)
            if first is None:
                seen["no pivot"] += 1
                seen["no pivot, base unbounded off its support"] += status == lp.UNBOUNDED
                continue
            seen["resumed"] += 1
            seen["resumed, base unbounded on its support"] += (
                status == lp.UNBOUNDED and first == len(steps) - 1
            )
            # d starts at 1 and changes only in a pivot with p != d.
            seen["resumed after p != d"] += steps[first][1] > 1
            seen["resumed after a tie"] += any(tie for _, _, tie in steps[:first])
    assert [seen[f.__name__] for f in (*BASE_FALLBACKS, *ROW_FALLBACKS)] == [40] * 6, seen
    assert seen["_shared_base"] == 360, seen
    for case in (
        "no pivot",
        "no pivot, base unbounded off its support",
        "resumed",
        "resumed, base unbounded on its support",
        "resumed after p != d",
        "resumed after a tie",
    ):
        assert seen[case] >= 40, (case, seen)
