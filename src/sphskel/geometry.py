"""Exact polytope machinery: H/V representations, polarity, cone membership.

Dimensions stay small (ambient rank <= 8).  Vertex enumeration is the
double description method (Motzkin et al. 1953; Fukuda & Prodon 1996) in
integer arithmetic on the homogenised cone, so its cost follows the number
of vertices rather than the number of constraint subsets.  Its start cone
comes from one fraction-free elimination (``linalg.eliminate``).  One such
run on a point set gives its hull Q, the dual Q* and their incidence
(polar_pair).  One combinatorial test on the transposed incidence decides
whether two extreme rays are adjacent (adjacent), for the double
description.  The edges of Q* come from the same transposed incidence
(edges): a simple vertex finds its neighbours by dropping one tight row at
a time, any other vertex is tested as ``adjacent`` does.  A vertex
coordinate is an int when it is integral and a Fraction otherwise
(``linalg.quotient``).
Cone membership and interiority are exact LPs with equality rows, and hull
membership is cone membership of the lifted points (p, 1); boundedness, when
the cone shows the polytope is not a bounded non-empty one, is decided by
exact LPs over free variables.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Iterable, NamedTuple, Sequence

from . import lp
from .linalg import Vec, dot, eliminate, integral, primitive, quotient, rank

MAX_DIM = 8


class GeometryError(ValueError):
    pass


class UnboundedPolytope(GeometryError):
    pass


class DimensionTooLarge(GeometryError):
    pass


class OriginNotInterior(GeometryError):
    pass


class _HPolytopeFields(NamedTuple):
    rows: tuple[tuple[Vec, int | Q], ...]
    ambient_dim: int


class HPolytope(_HPolytopeFields):
    """Intersection of half-spaces ``<normal, v> >= offset``."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[Vec, int | Q], ...], ambient_dim: int) -> "HPolytope":
        for normal, _ in rows:
            if len(normal) != ambient_dim:
                raise GeometryError("normal length differs from ambient dimension")
        return super().__new__(cls, rows, ambient_dim)

    @classmethod
    def _make(cls, iterable: Iterable) -> "HPolytope":
        """Build through ``__new__``, so ``_replace`` checks too."""
        return cls(*iterable)

    @staticmethod
    def build(rows: Iterable[tuple[Sequence, int | Q]], dim: int) -> "HPolytope":
        return HPolytope(tuple((tuple(n), o) for n, o in rows), dim)

    def contains(self, point: Sequence[Q]) -> bool:
        return all(dot(n, point) >= o for n, o in self.rows)


class VPolytope(NamedTuple):
    """Convex hull of an irredundant vertex list."""

    vertices: tuple[Vec, ...]
    ambient_dim: int


def point_in_hull(points: Sequence[Sequence[Q]], target: Sequence[Q]) -> bool:
    """Decide target in conv(points) by LP feasibility on barycentric weights:
    sum(l_i p_i) = target, sum(l_i) = 1, l >= 0."""
    return cone_contains([(*p, 1) for p in points], (*target, 1))


def cone_contains(generators: Sequence[Sequence[Q]], target: Sequence[Q]) -> bool:
    """True iff target is a nonnegative combination of the generators, i.e.
    G l = target, l >= 0 is feasible."""
    a_eq = [[g[j] for g in generators] for j in range(len(target))]
    res = lp.solve(lp.LpProblem.build([0] * len(generators), (), (), a_eq, target))
    return res.status == lp.OPTIMAL


def vertex_enumerate(p: HPolytope) -> VPolytope:
    """Exact vertex set of a bounded H-polytope.

    The vertices are the extreme rays (x0, x) with x0 > 0 of the
    homogenised cone {(x0, x) : <n, x> - o x0 >= 0, x0 >= 0}, scaled to
    x0 = 1.  When that cone has a line or a ray with x0 = 0, the polytope
    is empty or unbounded, and one LP per signed coordinate direction
    tells which.
    """
    d = p.ambient_dim
    check_dimension(d)
    rows = [integral((-offset, *normal)) for normal, offset in p.rows]
    rows.append((1,) + (0,) * d)
    hull = _extreme_rays(rows, d + 1)
    if hull is None or any(ray[0] == 0 for ray in hull[0]):
        _raise_if_unbounded(p)
        return VPolytope((), d)
    found = [tuple(quotient(x, ray[0]) for x in ray[1:]) for ray in hull[0]]
    return VPolytope(tuple(sorted(found)), d)


def check_dimension(d: int) -> None:
    if d > MAX_DIM:
        raise DimensionTooLarge(f"ambient dimension {d} exceeds cap {MAX_DIM}")


def _raise_if_unbounded(p: HPolytope) -> None:
    """Raise UnboundedPolytope unless p is bounded or empty."""
    a = [[-v for v in normal] for normal, _ in p.rows]
    b = [-offset for _, offset in p.rows]
    for j in range(p.ambient_dim):
        for sign in (1, -1):
            c = [sign if t == j else 0 for t in range(p.ambient_dim)]
            res = lp.solve_free(c, a, b)
            if res.status == lp.UNBOUNDED:
                raise UnboundedPolytope(f"unbounded in coordinate direction {j}")
            if res.status == lp.INFEASIBLE:
                return


def _start_cone(rows: list[Sequence[int]], n: int) -> tuple[list, list] | None:
    """(basis, rays): the first n linearly independent rows and, for each,
    the primitive ray pairing to 0 with the other basis rows and positively
    with its own; None when the rows have rank below n.  One elimination of
    [R^T | I] gives both: a reduced row is e [R^T | I] for its identity
    block e, so its entry in column c is <rows[c], e>."""
    m = len(rows)
    tab = [[row[k] for row in rows] + [int(j == k) for j in range(n)] for k in range(n)]
    pivots = eliminate(tab, m)
    if -1 in pivots:
        return None
    start = sorted(zip(pivots, tab))
    return [c for c, _ in start], [primitive(row[m:]) for _, row in start]


def transpose(masks: Sequence[int], width: int) -> list[int]:
    """The transposed incidence: bit k of out[b] is bit b of masks[k]."""
    out = [0] * width
    for k, z in enumerate(masks):
        while z:
            low = z & -z
            out[low.bit_length() - 1] |= 1 << k
            z ^= low
    return out


def adjacent(
    masks: Sequence[int], pairs: Iterable[tuple[int, int]], n: int, width: int
) -> list[tuple[int, int]]:
    """The given pairs (i, j) of extreme rays of a pointed cone in Q^n, with
    zero sets masks over width rows, that are adjacent: they share at least
    n - 2 zeros and no third ray vanishes on all of those (Fukuda & Prodon
    1996), so the AND of the transposed incidence over them holds i, j only.
    """
    on = transpose(masks, width)
    everyone = (1 << len(masks)) - 1
    out = []
    for i, j in pairs:
        common = masks[i] & masks[j]
        if common.bit_count() < n - 2:
            continue
        tight = everyone
        while common:
            low = common & -common
            tight &= on[low.bit_length() - 1]
            common ^= low
        if tight.bit_count() == 2:
            out.append((i, j))
    return out


def edges(
    masks: Sequence[int], among: Sequence[int], n: int, width: int
) -> list[tuple[int, int]]:
    """The adjacent pairs (i, j), i < j, of extreme rays of a pointed cone in
    Q^n with zero sets masks over width rows, among the increasing indices
    ``among``, in lexicographic order: ``adjacent`` on every such pair.

    A simple ray, with exactly n - 1 zeros, has one neighbour per zero: the
    other ray on the n - 2 zeros left when that one is dropped (Avis &
    Fukuda 1992), read from prefix and suffix ANDs of the transposed
    incidence.  Any other ray goes through ``adjacent`` with each later ray
    that shares at least n - 2 of its zeros.
    """
    on = transpose(masks, width)
    everyone = (1 << len(masks)) - 1
    keep = sum(1 << i for i in among)
    out, others = [], []
    for i in among:
        z = masks[i]
        later = keep >> i + 1 << i + 1
        if z.bit_count() != n - 1:
            while later:
                low = later & -later
                j = low.bit_length() - 1
                if (z & masks[j]).bit_count() >= n - 2:
                    others.append((i, j))
                later ^= low
            continue
        rows = []
        while z:
            low = z & -z
            rows.append(on[low.bit_length() - 1])
            z ^= low
        prefix = [everyone]
        for row in rows[:-1]:
            prefix.append(prefix[-1] & row)
        near, suffix = 0, everyone
        for k in range(len(rows) - 1, -1, -1):
            near |= prefix[k] & suffix
            suffix &= rows[k]
        near &= later
        while near:
            low = near & -near
            out.append((i, low.bit_length() - 1))
            near ^= low
    if others:
        out = sorted(out + adjacent(masks, others, n, width))
    return out


def _extreme_rays(rows: list[Sequence[int]], n: int) -> tuple[list, list[int]] | None:
    """Extreme rays of the cone {y : <a, y> >= 0 for every row a} in Q^n
    with their zero sets, or None when the rows have rank below n (the cone
    contains a line).  Bit i of a ray's zero set is set iff <rows[i], ray> = 0.

    Double description: start from the simplicial cone of the first n
    linearly independent rows, then add the other rows one at a time.  Each
    ray is a primitive integer vector with its zero set, a bit mask over the
    rows added so far.  Adding a row keeps the rays on its side and joins
    each adjacent pair across it (adjacent).
    """
    start = _start_cone(rows, n)
    if start is None:
        return None
    basis, rays = start
    everything = sum(1 << i for i in basis)
    masks = [everything & ~(1 << i) for i in basis]
    for i in sorted(set(range(len(rows))) - set(basis)):
        a = rows[i]
        bit = 1 << i
        side = [sum(x * y for x, y in zip(a, ray)) for ray in rays]
        plus = [k for k, s in enumerate(side) if s > 0]
        minus = [k for k, s in enumerate(side) if s < 0]
        new_rays = [ray for ray, s in zip(rays, side) if s >= 0]
        new_masks = [z | bit if s == 0 else z for z, s in zip(masks, side) if s >= 0]
        pairs = [(kp, km) for kp in plus for km in minus]
        for kp, km in adjacent(masks, pairs, n, len(rows)):
            sp, sm = side[kp], side[km]
            new_rays.append(
                primitive([sp * x - sm * y for x, y in zip(rays[km], rays[kp])])
            )
            new_masks.append(masks[kp] & masks[km] | bit)
        rays, masks = new_rays, new_masks
    return rays, masks


def polar_pair(
    points: Sequence[Sequence[Q]], dim: int
) -> tuple[VPolytope, VPolytope, tuple[int, ...]] | None:
    """(Q, Q*, masks) for Q = conv(points) from one double description run,
    or None unless 0 is interior to Q.

    The cone {(a0, a) : a0 + <a, p> >= 0 for every point p} has one extreme
    ray per facet {<a, x> = -a0} of Q (Ziegler, Lectures on Polytopes, 2.3).
    0 is interior iff the rows (1, p) have rank dim + 1 and every ray has
    a0 > 0.  Then the rays scaled to a0 = 1 are the vertices of Q*, and
    masks[k], the zero set of the k-th, has bit i set iff points[i] lies on
    its facet.  Above MAX_DIM (exponentially many facets) the run is
    refused once origin_interior has decided None.
    """
    pts = [tuple(p) for p in points]
    if any(len(p) != dim for p in pts):
        raise GeometryError("point length differs from ambient dimension")
    if dim > MAX_DIM:
        if not origin_interior(VPolytope(tuple(pts), dim)):
            return None
        check_dimension(dim)
    hull = _extreme_rays([integral((1, *p)) for p in pts], dim + 1)
    if hull is None or any(ray[0] <= 0 for ray in hull[0]):
        return None
    rays, masks = hull
    # A point is a vertex iff only its copies lie on all of its facets.
    vertices = set()
    for p, f in zip(pts, transpose(masks, len(pts))):
        on_all = (1 << len(pts)) - 1
        while f:
            low = f & -f
            on_all &= masks[low.bit_length() - 1]
            f ^= low
        if on_all.bit_count() == pts.count(p):
            vertices.add(p)
    # A vertex of Q* is integral iff its primitive ray has a0 = 1.
    dual = sorted(
        (tuple(r[1:]) if r[0] == 1 else tuple(quotient(x, r[0]) for x in r[1:]), z)
        for r, z in zip(rays, masks)
    )
    qstar = VPolytope(tuple(v for v, _ in dual), dim)
    return VPolytope(tuple(sorted(vertices)), dim), qstar, tuple(z for _, z in dual)


def origin_interior(q: VPolytope) -> bool:
    """True iff 0 is in the topological interior of conv(vertices): the rows
    (1, v) have rank d + 1 and max{e : l >= e, sum l_i v_i = 0, sum l = 1} > 0."""
    pts, d, k = q.vertices, q.ambient_dim, len(q.vertices)
    if rank([(1, *v) for v in pts]) != d + 1:
        return False
    a = [[-int(j == i) for j in range(k)] + [1] for i in range(k)]
    a_eq = [[v[j] for v in pts] + [0] for j in range(d)] + [[1] * k + [0]]
    res = lp.solve(lp.LpProblem.build([0] * k + [1], a, [0] * k, a_eq, [0] * d + [1]))
    return res.status == lp.OPTIMAL and res.value > 0


def polar(q: VPolytope) -> HPolytope:
    """{v : <u, v> >= -1 for every vertex u of q}, the dual of q when 0 is
    interior to q (origin_interior)."""
    return HPolytope(tuple((u, -1) for u in q.vertices), q.ambient_dim)
