from __future__ import annotations

from fractions import Fraction as Q

from sphskel.geometry import _start_cone
from sphskel.linalg import dot, eliminate, integral, quotient, rank, solve_linear
from test_geometry import _random_point_set


def test_dot_exact():
    assert dot((1, 2), (Q(1, 2), Q(1, 3))) == Q(7, 6)
    assert dot((1, 2), (3, 4)) == 11 and type(dot((1, 2), (3, 4))) is int


def test_quotient_is_an_int_exactly_when_exact():
    for x, d, want in [
        (6, 3, 2), (-6, 3, -2), (6, -3, -2), (-6, -3, 2), (0, 5, 0), (0, -5, 0),
        (7, 2, Q(7, 2)), (-7, 2, Q(-7, 2)), (7, -2, Q(-7, 2)), (-7, -2, Q(7, 2)),
        (2, 3, Q(2, 3)), (-2, 3, Q(-2, 3)), (2, -3, Q(-2, 3)), (-2, -3, Q(2, 3)),
    ]:
        got = quotient(x, d)
        assert got == want and type(got) is type(want), (x, d)


def test_solve_linear_unique():
    a = [[2, 1], [1, -1]]
    x = solve_linear(a, [5, 1])
    assert x == (Q(2), Q(1))


def test_solve_linear_inconsistent():
    a = [[1, 1], [2, 2]]
    assert solve_linear(a, [1, 3]) is None


def test_solve_linear_underdetermined_picks_solution():
    a = [[1, 1]]
    x = solve_linear(a, [3])
    assert x is not None and x[0] + x[1] == 3


def test_rank():
    assert rank([[1, 2], [2, 4], [0, 1]]) == 2
    assert rank([[0, 0]]) == 0


def test_rank_zero_pads_ragged_rows():
    # A shorter row is read with zeros in its missing columns, in either
    # order: the width is the longest row's, not the first's.
    assert rank([(1,), (0, 1)]) == 2
    assert rank([(0, 1), (1,)]) == 2
    assert rank([(1,), (2, 0)]) == 1
    assert rank([(2, 0), (1,)]) == 1
    assert rank([(0, 0, 1), (1,), (0, 1)]) == 3
    assert rank([(1, 1), (0, 0, 1), (1, 1, 1)]) == 2
    assert rank([(), (0, 0, 3)]) == 1
    assert rank([]) == 0


# The Fraction Gauss-Jordan that linalg ran before the fraction-free
# kernel, kept as the oracle for it.


def _echelon(rows: list[list[Q]]) -> tuple[list[list[Q]], list[int]]:
    """Row-reduce in place to reduced row echelon form; returns the matrix
    and the pivot columns, the first linearly independent columns."""
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


def _oracle_solve(rows, rhs):
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


def _random_matrix(rng):
    """Up to 9 x 9 with mixed denominators; often rank-deficient, with
    zero and duplicate rows mixed in."""
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)

    def entry():
        return Q(rng.choice((0, 0, 0, 1, -1, 2, -3, 5)), rng.choice((1, 1, 2, 3, 6)))

    if rng.random() < 0.5:
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    else:
        basis = [[entry() for _ in range(ncols)] for _ in range(rng.randint(1, 3))]
        rows = [
            [sum((entry() * b[j] for b in basis), Q(0)) for j in range(ncols)]
            for _ in range(nrows)
        ]
    for _ in range(rng.randrange(3)):
        extra = rng.choice(([Q(0)] * ncols, rng.choice(rows)))
        rows.insert(rng.randrange(len(rows) + 1), list(extra))
    return rows[:9]


def test_kernel_against_fraction_echelon(rng):
    inconsistent = deficient = 0
    for _ in range(200):
        rows = _random_matrix(rng)
        _, oracle = _echelon([r[:] for r in rows])
        assert rank(rows) == len(oracle)
        deficient += len(oracle) < min(len(rows), len(rows[0]))
        tab = [integral(r) for r in rows]
        pivots = eliminate(tab, len(tab[0]))
        assert sorted(c for c in pivots if c >= 0) == oracle
        for i, c in enumerate(pivots):
            if c >= 0:
                assert tab[i][c] > 0
                assert all(tab[k][c] == 0 for k in range(len(tab)) if k != i)
            else:
                assert not any(tab[i])
        # Consistent by construction, then a random right-hand side.
        x0 = [Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in rows[0]]
        for rhs in ([dot(r, x0) for r in rows], [Q(rng.randint(-2, 2)) for _ in rows]):
            x = solve_linear(rows, rhs)
            assert x == _oracle_solve(rows, rhs)
            if x is None:
                inconsistent += 1
            else:
                assert all(dot(r, x) == v for r, v in zip(rows, rhs))
    assert deficient > 60 and inconsistent > 80


def test_start_cone_rays_pair_with_the_basis(rng):
    # The point sets of the polar_pair differential test in test_geometry.
    full = 0
    for t in range(300):
        d = 1 + t % 4
        rows = [integral((1, *p)) for p in _random_point_set(rng, d)]
        _, oracle = _echelon([list(map(Q, col)) for col in zip(*rows)])
        start = _start_cone(rows, d + 1)
        if len(oracle) < d + 1:
            assert start is None
            continue
        full += 1
        basis, rays = start
        assert basis == oracle
        for k, ray in enumerate(rays):
            pairs = [sum(a * y for a, y in zip(rows[i], ray)) for i in basis]
            assert pairs[k] > 0
            assert all(s == 0 for j, s in enumerate(pairs) if j != k)
    assert full > 150
