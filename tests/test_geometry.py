from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import combinations, product

import pytest

from sphskel.geometry import (
    MAX_DIM,
    DimensionTooLarge,
    HPolytope,
    UnboundedPolytope,
    VPolytope,
    cone_contains,
    origin_interior,
    point_in_hull,
    polar,
    polar_pair,
    vertex_enumerate,
)
from sphskel import lp
from sphskel.linalg import dot, rank, solve_linear
from oracles import hull


def _brute_force_vertices(rows, dim):
    """Oracle: every constraint d-tuple, solved and filtered for feasibility."""
    out = set()
    for subset in combinations(range(len(rows)), dim):
        sub = [rows[i][0] for i in subset]
        if rank(sub) < dim:
            continue
        sol = solve_linear(sub, [rows[i][1] for i in subset])
        if sol is None:
            continue
        if all(dot(n, sol) >= o for n, o in rows):
            out.add(sol)
    return out


def _fm_eliminate(ineqs, col):
    """Fourier-Motzkin step: project out variable col from coeff·z >= const."""
    pos, neg, zero = [], [], []
    for coeffs, const in ineqs:
        if coeffs[col] > 0:
            pos.append((coeffs, const))
        elif coeffs[col] < 0:
            neg.append((coeffs, const))
        else:
            zero.append((coeffs, const))

    def drop(coeffs):
        return tuple(v for j, v in enumerate(coeffs) if j != col)

    out = [(drop(c), k) for c, k in zero]
    for cp, kp in pos:
        for cn, kn in neg:
            coeffs = tuple(
                cp[j] * (-cn[col]) + cn[j] * cp[col]
                for j in range(len(cp))
                if j != col
            )
            out.append((coeffs, kp * (-cn[col]) + kn * cp[col]))
    return out


def _fm_cone_contains(generators, target):
    """Oracle: eliminate the combination weights, then test the target."""
    k = len(generators)
    d = len(target)
    if k == 0:
        return all(Q(t) == 0 for t in target)
    # Variables z = (lambda_1..lambda_k, t_1..t_d).
    ineqs = []
    for i in range(k):
        coeffs = [Q(0)] * (k + d)
        coeffs[i] = Q(1)
        ineqs.append((tuple(coeffs), Q(0)))
    for j in range(d):
        coeffs = [Q(generators[i][j]) for i in range(k)] + [
            Q(-1) if t == j else Q(0) for t in range(d)
        ]
        ineqs.append((tuple(coeffs), Q(0)))
        ineqs.append((tuple(-v for v in coeffs), Q(0)))
    for _ in range(k):
        ineqs = _fm_eliminate(ineqs, 0)
    return all(
        dot(coeffs, target) >= const for coeffs, const in ineqs
    )


def test_square_vertices():
    square = HPolytope.build(
        [((1, 0), -1), ((-1, 0), -1), ((0, 1), -1), ((0, -1), -1)], 2
    )
    got = vertex_enumerate(square).vertices
    assert set(got) == {
        (Q(1), Q(1)), (Q(1), Q(-1)), (Q(-1), Q(1)), (Q(-1), Q(-1))
    }
    assert all(type(x) is int for v in got for x in v)


def test_worked_dual_polytope():
    # Q has vertices b1*, b2*, -b1*+b2*, -b2*; its dual has the four
    # documented lattice vertices, two of them supported.
    qstar = HPolytope.build(
        [((1, 0), -1), ((0, 1), -1), ((-1, 1), -1), ((0, -1), -1)], 2
    )
    got = set(vertex_enumerate(qstar).vertices)
    assert got == {
        (Q(2), Q(1)), (Q(-1), Q(1)), (Q(-1), Q(-1)), (Q(0), Q(-1))
    }


def test_unbounded_raises():
    half = HPolytope.build([((1, 0), 0), ((0, 1), 0)], 2)
    with pytest.raises(UnboundedPolytope):
        vertex_enumerate(half)


def test_dimension_cap():
    rows = [(tuple(1 if j == i else 0 for j in range(9)), -1) for i in range(9)]
    with pytest.raises(DimensionTooLarge):
        vertex_enumerate(HPolytope.build(rows, 9))


def test_random_3d_against_brute_force(rng):
    for _ in range(25):
        rows = []
        for _ in range(rng.randrange(4, 9)):
            normal = tuple(Q(rng.randrange(-3, 4)) for _ in range(3))
            if all(v == 0 for v in normal):
                continue
            rows.append((normal, Q(-rng.randrange(1, 4))))
        # Keep it bounded by boxing in.
        for j in range(3):
            e = tuple(Q(1) if t == j else Q(0) for t in range(3))
            rows.append((e, Q(-5)))
            rows.append((tuple(-v for v in e), Q(-5)))
        p = HPolytope(tuple(rows), 3)
        assert set(vertex_enumerate(p).vertices) == _brute_force_vertices(rows, 3)


def test_dualize_cross_polytope_self_dual_pair():
    cross = hull([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    cube = vertex_enumerate(polar(cross))
    assert set(cube.vertices) == {
        (Q(1), Q(1)), (Q(1), Q(-1)), (Q(-1), Q(1)), (Q(-1), Q(-1))
    }
    back = vertex_enumerate(polar(cube))
    assert set(back.vertices) == set(cross.vertices)


def test_dualize_worked_examples():
    q = hull([(1, 0), (0, 1), (-1, 1), (0, -1)], 2)
    qstar = vertex_enumerate(polar(q))
    assert set(qstar.vertices) == {
        (Q(2), Q(1)), (Q(-1), Q(1)), (Q(-1), Q(-1)), (Q(0), Q(-1))
    }
    square = hull([(1, 1), (-1, 1), (-1, -1), (1, -1)], 2)
    diamond = vertex_enumerate(polar(square))
    assert set(diamond.vertices) == {
        (Q(1), Q(0)), (Q(-1), Q(0)), (Q(0), Q(1)), (Q(0), Q(-1))
    }


def test_double_dual_roundtrip(rng):
    for _ in range(10):
        pts = {(Q(2), Q(0)), (Q(-1), Q(2)), (Q(0), Q(-3))}
        while rng.random() < 0.5:
            pts.add((Q(rng.randrange(-3, 4)), Q(rng.randrange(-3, 4))))
        q = hull(pts, 2)
        if not origin_interior(q):
            continue
        back = vertex_enumerate(polar(vertex_enumerate(polar(q))))
        assert set(back.vertices) == set(q.vertices)


def test_cone_contains_trivial_cases():
    assert cone_contains([(1,), (-1,)], (-5,))
    assert cone_contains([(1,), (1,), (0,), (-1,)], (-1,))
    assert not cone_contains([(1, 0)], (0, 1))
    assert cone_contains([], (0, 0))
    assert not cone_contains([], (1, 0))


def test_point_in_hull_trivial_cases():
    assert point_in_hull([(0, 0), (2, 0), (0, 2)], (Q(1, 2), Q(3, 2)))
    assert not point_in_hull([(0, 0), (2, 0), (0, 2)], (Q(3, 2), Q(3, 2)))
    assert point_in_hull([(1, 1)], (1, 1))
    assert not point_in_hull([], (0, 0))
    assert not point_in_hull([], ())


def test_cone_contains_against_fourier_motzkin(rng):
    for _ in range(60):
        d = rng.randrange(1, 5)
        k = rng.randrange(1, 5)
        gens = [
            tuple(Q(rng.randrange(-2, 3)) for _ in range(d)) for _ in range(k)
        ]
        target = tuple(Q(rng.randrange(-3, 4)) for _ in range(d))
        assert cone_contains(gens, target) == _fm_cone_contains(gens, target)


def test_vertex_enumerate_active_rank_invariant():
    p = HPolytope.build(
        [((1, 0), -1), ((-1, 0), -1), ((0, 1), -1), ((0, -1), -1), ((1, 1), -2)], 2
    )
    poly = vertex_enumerate(p)
    for v in poly.vertices:
        assert p.contains(v)
        active = [n for n, o in p.rows if dot(n, v) == o]
        assert rank(active) == 2


def test_vpolytope_drops_redundant_points():
    q = hull([(1, 0), (0, 1), (-1, -1), (0, 0)], 2)
    assert (Q(0), Q(0)) not in q.vertices
    assert len(q.vertices) == 3


def _random_bounded_rows(rng, dim, extra):
    """A box [-5, 5]^dim cut by random rows; small coefficients make many
    rows meet at one vertex, and positive offsets sometimes empty it."""
    rows = []
    for j in range(dim):
        e = tuple(Q(1) if t == j else Q(0) for t in range(dim))
        rows.append((e, Q(-5)))
        rows.append((tuple(-v for v in e), Q(-5)))
    while len(rows) < 2 * dim + extra:
        normal = tuple(Q(rng.randrange(-2, 3)) for _ in range(dim))
        if any(normal):
            rows.append((normal, Q(rng.randrange(-4, 2))))
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("dim,cases,extra", [(2, 40, 5), (3, 30, 5), (4, 15, 4), (5, 4, 3)])
def test_random_polytopes_against_brute_force(rng, dim, cases, extra):
    for _ in range(cases):
        rows = _random_bounded_rows(rng, dim, extra)
        got = vertex_enumerate(HPolytope(tuple(rows), dim)).vertices
        assert list(got) == sorted(_brute_force_vertices(rows, dim))


def _cube_corners(d):
    return [tuple(Q(x) for x in c) for c in product((-1, 1), repeat=d)]


def _cross_vertices(d):
    return [
        tuple(Q(s) if j == i else Q(0) for j in range(d)) for i in range(d) for s in (1, -1)
    ]


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_dual_of_cube_is_cross_polytope(d):
    # 2^d facets, 2^(d-1) of them through each vertex: far from simple.
    cube = VPolytope(tuple(sorted(_cube_corners(d))), d)
    got = vertex_enumerate(polar(cube)).vertices
    assert list(got) == sorted(_cross_vertices(d))


def test_dual_of_small_cubes_against_brute_force():
    for d in (3, 4):
        rows = [(c, Q(-1)) for c in _cube_corners(d)]
        got = vertex_enumerate(HPolytope(tuple(rows), d)).vertices
        assert set(got) == _brute_force_vertices(rows, d)


@pytest.mark.parametrize("d", [3, 4, 5, MAX_DIM])
def test_dual_of_cross_polytope_is_cube(d):
    cross = VPolytope(tuple(sorted(_cross_vertices(d))), d)
    got = vertex_enumerate(polar(cross)).vertices
    assert list(got) == sorted(_cube_corners(d))
    assert len(got) == 2 ** d


def test_unbounded_with_and_without_lines():
    # A quadrant (pointed homogenised cone) and a strip (a line in it).
    quadrant = HPolytope.build([((1, 0), 1), ((0, 1), 1)], 2)
    with pytest.raises(UnboundedPolytope, match="direction 0"):
        vertex_enumerate(quadrant)
    strip = HPolytope.build([((1, 0), 0), ((-1, 0), -1)], 2)
    with pytest.raises(UnboundedPolytope, match="direction 1"):
        vertex_enumerate(strip)
    ray = HPolytope.build([((1, 0), 0), ((-1, 0), 0), ((0, 1), 2)], 2)
    with pytest.raises(UnboundedPolytope, match="direction 1"):
        vertex_enumerate(ray)


def test_infeasible_gives_empty_polytope():
    bounded = HPolytope.build([((1,), 1), ((-1,), 0)], 1)
    assert vertex_enumerate(bounded) == VPolytope((), 1)
    with_line = HPolytope.build([((1, 0), 1), ((-1, 0), 0)], 2)
    assert vertex_enumerate(with_line) == VPolytope((), 2)
    box_and_cut = HPolytope.build(
        [((1, 0), -1), ((-1, 0), -1), ((0, 1), -1), ((0, -1), -1), ((1, 1), 3)], 2
    )
    assert vertex_enumerate(box_and_cut) == VPolytope((), 2)


def test_lower_dimensional_polytopes():
    point = HPolytope.build([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)], 2)
    assert vertex_enumerate(point).vertices == ((Q(0), Q(0)),)
    segment = HPolytope.build(
        [((1, 0), -1), ((-1, 0), -1), ((0, 1), 0), ((0, -1), 0), ((1, 1), -1)], 2
    )
    assert vertex_enumerate(segment).vertices == ((Q(-1), Q(0)), (Q(1), Q(0)))


def test_zero_dimensional_case():
    assert vertex_enumerate(HPolytope.build([((), 0), ((), -1)], 0)) == VPolytope(((),), 0)
    assert vertex_enumerate(HPolytope.build([((), 1)], 0)) == VPolytope((), 0)
    assert vertex_enumerate(HPolytope.build([], 0)) == VPolytope(((),), 0)


def test_rational_rows_and_vertices():
    # Triangle with rational offsets: vertices (1/2, 0), (0, 1/3) and (0, 0).
    rows = [((1, 0), 0), ((0, 1), 0), ((-2, -3), Q(-1))]
    got = vertex_enumerate(HPolytope.build(rows, 2)).vertices
    assert got == ((Q(0), Q(0)), (Q(0), Q(1, 3)), (Q(1, 2), Q(0)))
    # Integral coordinates are ints, the others Fractions.
    assert [[type(x) for x in v] for v in got] == [[int, int], [int, Q], [Q, int]]


def _random_point_set(rng, d):
    """Small integer points, often around the cross-polytope, with one
    twist: duplicates, edge midpoints, a flattened set or a shift."""
    pts = [
        tuple(Q(rng.randrange(-2, 3)) for _ in range(d))
        for _ in range(rng.randrange(2, d + 3))
    ]
    if rng.random() < 0.6:
        pts += [p for p in _cross_vertices(d) if rng.random() < 0.8]
    twist = rng.randrange(5)
    if twist == 0:
        pts += [rng.choice(pts) for _ in range(rng.randrange(1, 4))]
    elif twist == 1:
        for _ in range(rng.randrange(1, 3)):
            a, b = rng.sample(pts, 2)
            pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))
    elif twist == 2:
        j = rng.randrange(d)
        pts = [tuple(Q(0) if t == j else x for t, x in enumerate(p)) for p in pts]
    elif twist == 3:
        shift = tuple(Q(rng.randrange(-1, 2), rng.randrange(1, 3)) for _ in range(d))
        pts = [tuple(x + s for x, s in zip(p, shift)) for p in pts]
    rng.shuffle(pts)
    return pts


def test_polar_pair_against_lp_and_separate_steps(rng):
    interior = 0
    for t in range(300):
        d = 1 + t % 4
        pts = _random_point_set(rng, d)
        q = hull(pts, d)
        pair = polar_pair(pts, d)
        assert (pair is not None) == origin_interior(q)  # rank test and LP
        if pair is None:
            continue
        interior += 1
        got_q, qstar, masks = pair
        assert got_q == q
        assert qstar == vertex_enumerate(polar(q))
        assert masks == tuple(
            sum(1 << i for i, p in enumerate(pts) if dot(p, v) == -1)
            for v in qstar.vertices
        )
    assert 100 < interior < 250


@pytest.mark.parametrize("d", range(1, 6))
def test_polar_pair_of_reflexive_sets_has_int_coordinates(d):
    # P^d and (P^1)^d: every vertex of Q and Q* is a lattice point, and
    # each coordinate is an int, not an integral Fraction.
    simplex = [tuple(int(j == i) for j in range(d)) for i in range(d)] + [(-1,) * d]
    cross = [tuple(s * int(j == i) for j in range(d)) for i in range(d) for s in (1, -1)]
    for pts in (simplex, cross):
        q, qstar, _ = polar_pair(pts, d)
        assert all(type(x) is int for v in q.vertices + qstar.vertices for x in v)


def test_polar_pair_keeps_fractional_coordinates():
    # The triangle of the toric surface with rays (1, 0), (0, 1), (-1, -3):
    # Q* has the vertex (-1, 2/3), whose second coordinate alone is a
    # Fraction.
    _, qstar, _ = polar_pair([(1, 0), (0, 1), (-1, -3)], 2)
    assert qstar.vertices == ((-1, -1), (-1, Q(2, 3)), (4, -1))
    assert [[type(x) for x in v] for v in qstar.vertices] == [
        [int, int], [int, Q], [int, int]
    ]


def test_polar_pair_degenerate_inputs():
    assert polar_pair([], 2) is None
    assert polar_pair([(1,), (2,)], 1) is None  # 0 outside
    assert polar_pair([(0,), (1,)], 1) is None  # 0 on the boundary
    assert polar_pair([(1, 0), (-1, 0)], 2) is None  # flat
    assert polar_pair([(), ()], 0) == (VPolytope(((),), 0), VPolytope(((),), 0), (0,))
    q, qstar, masks = polar_pair([(1,), (-1,), (1,), (0,)], 1)
    assert q.vertices == ((Q(-1),), (Q(1),))
    assert qstar.vertices == ((Q(-1),), (Q(1),))
    assert masks == (0b0101, 0b0010)


def test_polar_pair_above_cap_decides_interior_first():
    # 2^16 facets would be enumerated; one LP answers instead.
    cross = _cross_vertices(16)
    assert origin_interior(VPolytope(tuple(cross), 16))
    with pytest.raises(DimensionTooLarge):
        polar_pair(cross, 16)
    shifted = [tuple(x + 1 for x in p) for p in cross]
    assert polar_pair(shifted, 16) is None
    assert polar_pair([p[:15] + (0,) for p in cross], 16) is None  # flat
