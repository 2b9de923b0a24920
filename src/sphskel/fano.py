"""Embedding-level Fano checks on augmented lattice data.

An augmentation places the skeleton's spherical roots inside a lattice M
and assigns each divisor an integer vector in the dual lattice N.  From
that we build the divisor polytope Q, its dual Q*, the supported vertices,
the two generating curve families with their anticanonical degrees, the
combinatorial bound epsilon, and the generalized Mukai inequality report.

Q, Q* and the divisor points on each facet of Q (a bit mask per vertex of
Q*) come from one double description run per document (polar_pair); the
edges of Q* among the supported vertices (geometry.edges, from the tight
rows), the rank criterion and the curve families read those masks.  The
curve pass is integer arithmetic: each divisor's rho' row and m are read
once, and each edge vector is divided by its one gcd.
Points u = rho'(D)/m_D, built once per document and carried by
FanoPolytope, and vertices of Q* are ints where integral (quotient).
The augmentation checks find the roots alpha and 2 alpha of sigma in the
skeleton's one table of sigma against the simple roots (sigma_table).
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd
from operator import mul, sub
from typing import NamedTuple, Sequence

from . import lp
from .geometry import (
    OriginNotInterior,
    VPolytope,
    cone_contains,
    edges,
    polar,
    polar_pair,
)
from .linalg import Vec, dot, format_rational, quotient
from .roots import parabolic_count
from .skeleton import PAIR_MINUS, PAIR_PLUS, SphericalSkeleton, sigma_table
from .sphroots import SUM_OF_TWO
from .pinv import PInvariantReport, compute_p


class FanoDataError(ValueError):
    pass


class NoSupportedVertices(FanoDataError):
    pass


class NotQFactorial(FanoDataError):
    pass


class AugmentedData(NamedTuple):
    skeleton: SphericalSkeleton
    lattice_rank: int
    sigma_in_m: tuple[Vec, ...]  # each spherical root in M coordinates
    rho_prime: dict[str, Vec]  # divisor id -> vector in N coordinates
    m: dict[str, int]
    coroot_on_m: dict[int, Vec] | None = None  # simple root -> alpha^vee on M

    def divisor_ids(self) -> list[str]:
        return [d.id for d in self.skeleton.divisors]

    def color_ids(self) -> list[str]:
        return [c.id for c in self.skeleton.colors]

    def u_map(self) -> dict[str, Vec]:
        return {
            d.id: tuple(quotient(x, self.m[d.id]) for x in self.rho_prime[d.id])
            for d in self.skeleton.divisors
        }


def validate_augmentation(aug: AugmentedData) -> tuple[list[str], list[str]]:
    """Augmentation axioms; returns (violations, warnings).

    The parity/vanishing axioms need coroot values on M and are skipped
    with a warning when that table is absent.
    """
    out: list[str] = []
    warnings: list[str] = []
    sk = aug.skeleton
    if len(aug.sigma_in_m) != len(sk.sigma):
        return (["sigma_in_M length differs from sigma"], warnings)
    for g in aug.sigma_in_m:
        if len(g) != aug.lattice_rank:
            out.append("sigma_in_M vector has wrong length")
    for d in sk.divisors:
        if d.id not in aug.rho_prime:
            out.append(f"{d.id}: missing rho' vector")
        elif len(aug.rho_prime[d.id]) != aug.lattice_rank:
            out.append(f"{d.id}: rho' vector has wrong length")
        if aug.m.get(d.id) != d.m:
            out.append(f"{d.id}: coefficient {aug.m.get(d.id)} differs from {d.m}")
    known = set(aug.divisor_ids())
    for key, table in (("rho_prime", aug.rho_prime), ("m", aug.m)):
        extra = [did for did in table if did not in known]
        out += [f"{key}: {did} is not a divisor of the skeleton" for did in extra]
    if out:
        return (out, warnings)

    # (a1) restriction law: <rho'(D), gamma> reproduces every pairing row.
    # A row of the wrong length is a skeleton violation, reported there.
    for d in sk.divisors:
        if len(d.pairings) != len(sk.sigma):
            continue
        for j, g in enumerate(aug.sigma_in_m):
            if dot(aug.rho_prime[d.id], g) != d.pairings[j]:
                out.append(
                    f"axiom a1: <rho'({d.id}), sigma[{j}]> differs from the skeleton"
                )

    rs = sk.root_system
    n = rs.total_rank

    if aug.coroot_on_m is None:
        warnings.append(
            "coroot values on M not supplied: axioms a2, sigma1, sigma2, s skipped"
        )
        return (out, warnings)
    _, simple, doubled = sigma_table(rs, sk.sigma)

    for alpha, row in aug.coroot_on_m.items():
        if alpha >= n:
            out.append(f"coroot_on_M: simple root {alpha + 1} exceeds the rank {n}")
        if len(row) != aug.lattice_rank:
            out.append(f"coroot_on_M[{alpha + 1}] has wrong length")
    # (a2) pair colors sum to the coroot on M.
    for alpha in range(n):
        if alpha not in simple or alpha not in aug.coroot_on_m:
            continue
        pair = [
            c for c in sk.colors
            if alpha in c.moved_by and c.kind in (PAIR_PLUS, PAIR_MINUS)
        ]
        if len(pair) == 2:
            total = tuple(
                a + b
                for a, b in zip(aug.rho_prime[pair[0].id], aug.rho_prime[pair[1].id])
            )
            if total != tuple(aug.coroot_on_m[alpha]):
                out.append(f"axiom a2: pair colors at {alpha + 1} do not sum to alpha^vee")
    # (sigma1 parity), (sigma2), (s); alpha not in M itself is not encoded.
    for alpha in range(n):
        row = aug.coroot_on_m.get(alpha)
        if row is None:
            continue
        if alpha in doubled and any(x % 2 != 0 for x in row):
            out.append(f"axiom sigma1: <alpha_{alpha + 1}^vee, M> is not even")
        if alpha in sk.sp and any(x != 0 for x in row):
            out.append(f"axiom s: <alpha_{alpha + 1}^vee, M> != 0 for alpha in S^p")
    for g in sk.sigma:
        if g.kind == SUM_OF_TWO:
            a, b = g.embedding
            ra, rb = aug.coroot_on_m.get(a), aug.coroot_on_m.get(b)
            if ra is not None and rb is not None and tuple(ra) != tuple(rb):
                out.append(f"axiom sigma2: alpha^vee differs across {a + 1}+{b + 1} on M")
    return (out, warnings)


class FanoPolytope(NamedTuple):
    aug: AugmentedData
    q: VPolytope
    qstar: VPolytope
    incidence: tuple[int, ...]  # per Q* vertex: bit i iff divisor i is on its facet
    supported: tuple[int, ...]  # indices into qstar.vertices
    sigma_rows: tuple[Vec, ...]  # -<w, sigma_g> for each vertex w of Q
    u: dict[str, Vec]  # divisor id -> rho'(D)/m_D (AugmentedData.u_map)


def _text(v: Sequence[int | Q]) -> str:
    return "(" + ", ".join(format_rational(x) for x in v) + ")"


def _in_valuation_cone(aug: AugmentedData, u: Sequence[Q]) -> bool:
    return all(dot(u, g) <= 0 for g in aug.sigma_in_m)


def reflexive_polytopes(aug: AugmentedData) -> tuple[list[str], FanoPolytope | None]:
    """The four reflexivity conditions on Q = conv(rho'(D)/m_D), checked
    while Q, Q* and the supported vertices of Q* are each built once.

    Returns the violations and the polytopes; the polytopes are None when 0
    is not interior to Q, since Q* is then not the dual of Q.
    """
    out: list[str] = []
    u = aug.u_map()
    pair = polar_pair([u[did] for did in aug.divisor_ids()], aug.lattice_rank)
    if pair is None:
        out.append("(2) 0 is not in the topological interior of Q")
        return out, None
    q, qstar, incidence = pair
    for cid in aug.color_ids():
        if not polar(qstar).contains(u[cid]):
            out.append(f"(1) u_{cid} is not in Q")
    color_points = {u[cid] for cid in aug.color_ids()}
    for v in q.vertices:
        if v in color_points:
            continue
        if all(x.denominator == 1 for x in v) and _in_valuation_cone(aug, v):
            continue
        out.append(f"(3) vertex {_text(v)} is neither a color point nor a lattice point of V")
    sigma_rows = tuple(tuple(-dot(w, g) for g in aug.sigma_in_m) for w in q.vertices)
    supported = supported_vertex_indices(q, qstar, sigma_rows)
    for idx in supported:
        v = qstar.vertices[idx]
        if any(x.denominator != 1 for x in v):
            out.append(f"(4) supported vertex {_text(v)} is not a lattice point")
    return out, FanoPolytope(aug, q, qstar, incidence, supported, sigma_rows, u)


def validate_reflexive(aug: AugmentedData) -> list[str]:
    """The four reflexivity conditions on Q = conv(rho'(D)/m_D)."""
    return reflexive_polytopes(aug)[0]


def supported_vertex_indices(
    q: VPolytope, qstar: VPolytope, sigma_rows: Sequence[Vec]
) -> tuple[int, ...]:
    """v supported iff max{sum t : v + sum t_g sigma_g in Q*, t >= 0} is 0;
    its rows are sigma_rows . t <= <w, v> + 1 over the vertices w of Q."""
    k = len(sigma_rows[0])
    if k == 0:
        return tuple(range(len(qstar.vertices)))
    out = []
    for idx, v in enumerate(qstar.vertices):
        rhs = [dot(w, v) + 1 for w in q.vertices]
        res = lp.solve(lp.LpProblem.build([1] * k, sigma_rows, rhs))
        if res.status == lp.OPTIMAL and res.value == 0:
            out.append(idx)
    return tuple(out)


def build_fano(aug: AugmentedData) -> FanoPolytope:
    violations, fp = reflexive_polytopes(aug)
    if violations:
        raise FanoDataError("; ".join(violations))
    return require_supported(fp)


def require_supported(fp: FanoPolytope | None) -> FanoPolytope:
    """fp itself, once Q* is the dual of Q and has a supported vertex."""
    if fp is None:
        raise OriginNotInterior("0 must lie in the interior of the polytope")
    if not fp.supported:
        raise NoSupportedVertices("no supported vertex: not genuine Fano data")
    return fp


def _lattice_multiple(v: Vec, w: Vec) -> tuple[Vec, int]:
    """Write v - w, a nonzero integer vector, as t * chi with chi primitive
    and t > 0."""
    diff = tuple(map(sub, v, w))
    try:
        t = gcd(*diff)
    except TypeError:  # a Fraction coordinate
        if any(x.denominator != 1 for x in diff):
            raise FanoDataError(f"difference {_text(diff)} is not a lattice vector") from None
        diff = tuple(x.numerator for x in diff)
        t = gcd(*diff)
    if t == 0:
        raise FanoDataError("zero edge vector")
    return (diff if t == 1 else tuple(x // t for x in diff)), t


class CurveDegreeReport(NamedTuple):
    dv_curves: tuple[tuple[str, Vec, int], ...]
    edge_curves: tuple[tuple[Vec, Vec, Vec, int], ...]  # (v, w, chi, degree)
    iota: int
    epsilon: int | Q
    picard: int
    dim: int
    mukai_lhs: int


def curve_degrees(fp: FanoPolytope) -> CurveDegreeReport:
    """Anticanonical degrees of the two generating curve families."""
    aug = fp.aug
    sk = aug.skeleton
    colors = len(sk.colors)  # the first divisors
    vertices = fp.qstar.vertices
    supported = [(fp.incidence[idx], vertices[idx]) for idx in fp.supported]  # (mask, v)
    dv = []
    eps_candidates = []
    # m_D + <rho'_D, v> = m_D (1 + <u_D, v>) over the pairs with D off the
    # facet of v: the degree of the curve (D, v) when D is a color.
    for i, did in enumerate(aug.divisor_ids()):
        row, m = aug.rho_prime[did], aug.m[did]
        off = [v for z, v in supported if not z >> i & 1]
        off_degrees = [m + sum(map(mul, row, v)) for v in off]
        eps_candidates += off_degrees
        if i >= colors:
            continue
        for v, degree in zip(off, off_degrees):
            if degree.denominator != 1 or degree <= 0:
                raise FanoDataError(
                    f"curve degree {format_rational(degree)} at ({did}, {_text(v)})"
                )
            dv.append((did, v, int(degree)))
    edge = []
    n, width = aug.lattice_rank + 1, len(sk.divisors)
    for i, j in edges(fp.incidence, fp.supported, n, width):
        v, w = vertices[i], vertices[j]
        edge.append((v, w, *_lattice_multiple(v, w)))
    degrees = [d for _, _, d in dv] + [t for _, _, _, t in edge]
    if not degrees:
        raise NoSupportedVertices("no generating curves found")
    iota = min(degrees)
    epsilon = min(eps_candidates)
    picard = len(aug.divisor_ids()) - aug.lattice_rank
    dim = aug.lattice_rank + parabolic_count(sk.root_system, sk.sp)
    return CurveDegreeReport(
        tuple(dv), tuple(edge), iota, epsilon, picard, dim, picard * (iota - 1)
    )


def check_q_factorial(fp: FanoPolytope) -> bool:
    """Every supported dual face has exactly rank vertices of Q, and no
    vertex of that face carries two divisors."""
    aug = fp.aug
    points = [fp.u[did] for did in aug.divisor_ids()]
    vertices = set(fp.q.vertices)
    on_vertex = sum(1 << i for i, p in enumerate(points) if p in vertices)
    shared = sum(1 << i for i, p in enumerate(points) if points.count(p) > 1)
    faces = [fp.incidence[idx] & on_vertex for idx in fp.supported]
    return all(z.bit_count() == aug.lattice_rank and not z & shared for z in faces)


class MukaiReport(NamedTuple):
    picard: int
    iota: int
    epsilon: int | Q
    dim: int
    mukai_lhs: int
    holds: bool
    p_skeleton: Q | None
    p_polytope: Q | None
    cross_check: bool


def p_via_polytope(fp: FanoPolytope) -> int | Q | None:
    """The invariant computed through the dual polytope route.

    Optimizes sum_D (m_D - 1 + <rho'(D), theta>) over theta in
    Q* ∩ cone(sigma), with Q* described by the enumerated vertices of Q;
    independent of the skeleton-level LP data path.
    """
    aug = fp.aug
    base = sum(aug.m[did] - 1 for did in aug.divisor_ids())
    if not aug.sigma_in_m:
        return base
    c = [sum(dot(aug.rho_prime[d], g) for d in aug.divisor_ids()) for g in aug.sigma_in_m]
    res = lp.solve(lp.LpProblem.build(c, fp.sigma_rows, [1] * len(fp.sigma_rows)))
    if res.status != lp.OPTIMAL:
        return None
    return base + res.value


def mukai_check(
    fp: FanoPolytope,
    curves: CurveDegreeReport | None = None,
    invariant: PInvariantReport | None = None,
) -> MukaiReport:
    """Generalized Mukai inequality report plus the invariant cross-check.

    ``curves`` is the report of ``curve_degrees(fp)`` and ``invariant`` that
    of ``compute_p(fp.aug.skeleton)`` when the caller has them already; each
    is computed here otherwise.
    """
    if not check_q_factorial(fp):
        raise NotQFactorial("a supported dual face violates the rank criterion")
    report = curves if curves is not None else curve_degrees(fp)
    if invariant is None:
        invariant = compute_p(fp.aug.skeleton)
    p_skel = invariant.p_value
    p_poly = p_via_polytope(fp)
    # Pasquier-style bound at each supported vertex inside cone(sigma).  No
    # vertex of Q* is 0, so none lies in the cone of an empty sigma.
    aug = fp.aug
    for idx in fp.supported if aug.sigma_in_m else ():
        v = fp.qstar.vertices[idx]
        if not cone_contains(aug.sigma_in_m, v):
            continue
        terms = (aug.m[did] - 1 + dot(aug.rho_prime[did], v) for did in aug.divisor_ids())
        value = sum(terms)
        if p_skel is not None and value > p_skel:
            raise FanoDataError("supported vertex exceeds the skeleton invariant")
    return MukaiReport(
        report.picard,
        report.iota,
        report.epsilon,
        report.dim,
        report.mukai_lhs,
        report.mukai_lhs <= report.dim,
        p_skel,
        p_poly,
        p_skel == p_poly,
    )


def color_vertex_check(fp: FanoPolytope) -> bool:
    """Colors with u_D outside the valuation cone must be vertices of Q."""
    aug = fp.aug
    u = fp.u
    for cid in aug.color_ids():
        if not _in_valuation_cone(aug, u[cid]) and u[cid] not in fp.q.vertices:
            return False
    return True
