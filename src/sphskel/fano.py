"""Embedding-level Fano checks on augmented lattice data.

An augmentation places the skeleton's spherical roots inside a lattice M
and assigns each divisor an integer vector in the dual lattice N.  From
that we build the divisor polytope Q, its dual Q*, the supported vertices,
the two generating curve families with their anticanonical degrees, the
combinatorial bound epsilon, and the generalized Mukai inequality report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd
from typing import Sequence

from . import lp
from .geometry import VPolytope, dualize, origin_interior, vertex_enumerate
from .linalg import Vec, dot, vec
from .roots import parabolic_count
from .skeleton import PAIR_MINUS, PAIR_PLUS, SphericalSkeleton
from .pinv import compute_p


class FanoDataError(ValueError):
    pass


class NoSupportedVertices(FanoDataError):
    pass


class NotQFactorial(FanoDataError):
    pass


@dataclass(frozen=True)
class AugmentedData:
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
            d.id: tuple(Q(x, self.m[d.id]) for x in self.rho_prime[d.id])
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
    if out:
        return (out, warnings)

    # (a1) restriction law: <rho'(D), gamma> reproduces every pairing row.
    for d in sk.divisors:
        for j, g in enumerate(aug.sigma_in_m):
            if dot(aug.rho_prime[d.id], g) != d.pairings[j]:
                out.append(
                    f"axiom a1: <rho'({d.id}), sigma[{j}]> differs from the skeleton"
                )

    rs = sk.root_system
    n = rs.total_rank
    simple_roots = {g.coeffs: j for j, g in enumerate(sk.sigma)}

    def root_at(alpha: int, mult: int) -> int | None:
        return simple_roots.get(tuple(mult if j == alpha else 0 for j in range(n)))

    if aug.coroot_on_m is None:
        warnings.append(
            "coroot values on M not supplied: axioms a2, sigma1, sigma2, s skipped"
        )
        return (out, warnings)

    for alpha, row in aug.coroot_on_m.items():
        if len(row) != aug.lattice_rank:
            out.append(f"coroot_on_M[{alpha}] has wrong length")
    # (a2) pair colors sum to the coroot on M.
    for alpha in range(n):
        if root_at(alpha, 1) is None or alpha not in aug.coroot_on_m:
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
                out.append(f"axiom a2: pair colors at {alpha} do not sum to alpha^vee")
    # (sigma1 parity), (sigma2), (s); alpha not in M itself is not encoded.
    for alpha in range(n):
        row = aug.coroot_on_m.get(alpha)
        if row is None:
            continue
        if root_at(alpha, 2) is not None and any(x % 2 != 0 for x in row):
            out.append(f"axiom sigma1: <alpha_{alpha}^vee, M> is not even")
        if alpha in sk.sp and any(x != 0 for x in row):
            out.append(f"axiom s: <alpha_{alpha}^vee, M> != 0 for alpha in S^p")
    for g in sk.sigma:
        if g.kind == "alpha+alpha":
            a, b = g.embedding
            ra, rb = aug.coroot_on_m.get(a), aug.coroot_on_m.get(b)
            if ra is not None and rb is not None and tuple(ra) != tuple(rb):
                out.append(f"axiom sigma2: alpha^vee differs across {a}+{b} on M")
    return (out, warnings)


@dataclass(frozen=True)
class FanoPolytope:
    aug: AugmentedData
    q: VPolytope
    qstar: VPolytope
    supported: tuple[int, ...]  # indices into qstar.vertices


def _in_valuation_cone(aug: AugmentedData, u: Sequence[Q]) -> bool:
    return all(dot(u, g) <= 0 for g in aug.sigma_in_m)


def validate_reflexive(aug: AugmentedData) -> list[str]:
    """The four reflexivity conditions on Q = conv(rho'(D)/m_D)."""
    out: list[str] = []
    u = aug.u_map()
    q = VPolytope.build(u.values(), aug.lattice_rank)
    if not origin_interior(q):
        out.append("(2) 0 is not in the topological interior of Q")
        return out
    for cid in aug.color_ids():
        if not q.contains(u[cid]):
            out.append(f"(1) u_{cid} is not in Q")
    color_points = {u[cid] for cid in aug.color_ids()}
    for v in q.vertices:
        if v in color_points:
            continue
        if all(x.denominator == 1 for x in v) and _in_valuation_cone(aug, v):
            continue
        out.append(f"(3) vertex {v} is neither a color point nor a lattice point of V")
    qstar = vertex_enumerate(dualize(q))
    for idx in supported_vertex_indices(aug, q, qstar):
        v = qstar.vertices[idx]
        if any(x.denominator != 1 for x in v):
            out.append(f"(4) supported vertex {v} is not a lattice point")
    return out


def supported_vertex_indices(
    aug: AugmentedData, q: VPolytope, qstar: VPolytope
) -> tuple[int, ...]:
    """v supported iff max{sum t : v + sum t_g sigma_g in Q*, t >= 0} is 0."""
    out = []
    k = len(aug.sigma_in_m)
    for idx, v in enumerate(qstar.vertices):
        if k == 0:
            out.append(idx)
            continue
        rows = []
        rhs = []
        for uvert in q.vertices:
            rows.append([-dot(uvert, g) for g in aug.sigma_in_m])
            rhs.append(dot(uvert, v) + 1)
        res = lp.solve(lp.LpProblem.build([1] * k, rows, rhs))
        if res.status == lp.OPTIMAL and res.value == 0:
            out.append(idx)
    return tuple(out)


def build_fano(aug: AugmentedData, check: bool = True) -> FanoPolytope:
    violations = validate_reflexive(aug) if check else []
    if violations:
        raise FanoDataError("; ".join(violations))
    q = VPolytope.build(aug.u_map().values(), aug.lattice_rank)
    qstar = vertex_enumerate(dualize(q))
    supported = supported_vertex_indices(aug, q, qstar)
    if not supported:
        raise NoSupportedVertices("no supported vertex: not genuine Fano data")
    return FanoPolytope(aug, q, qstar, supported)


def _primitive(v: Sequence[Q]) -> tuple[Vec, int]:
    """Write an integer vector as t * chi with chi primitive and t > 0."""
    ints = [int(x) for x in v]
    if any(Q(x) != i for x, i in zip(v, ints)):
        raise FanoDataError(f"difference {v} is not a lattice vector")
    t = 0
    for x in ints:
        t = gcd(t, abs(x))
    if t == 0:
        raise FanoDataError("zero edge vector")
    return vec(x // t for x in ints), t


def _qstar_edges(fp: FanoPolytope) -> list[tuple[int, int]]:
    verts = fp.qstar.vertices
    d = fp.qstar.ambient_dim
    normals = fp.q.vertices
    active = [
        frozenset(i for i, u in enumerate(normals) if dot(u, v) == -1) for v in verts
    ]
    from .linalg import rank as mat_rank

    edges = []
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            common = active[i] & active[j]
            if mat_rank([normals[t] for t in common]) != d - 1:
                continue
            if any(common <= active[z] for z in range(len(verts)) if z not in (i, j)):
                continue
            edges.append((i, j))
    return edges


@dataclass(frozen=True)
class CurveDegreeReport:
    dv_curves: tuple[tuple[str, Vec, int], ...]
    edge_curves: tuple[tuple[Vec, Vec, Vec, int], ...]  # (v, w, chi, degree)
    iota: int
    epsilon: Q
    picard: int
    dim: int
    mukai_lhs: Q


def curve_degrees(fp: FanoPolytope) -> CurveDegreeReport:
    """Anticanonical degrees of the two generating curve families."""
    aug = fp.aug
    sk = aug.skeleton
    u = aug.u_map()
    supported = [fp.qstar.vertices[i] for i in fp.supported]
    dv = []
    for cid in aug.color_ids():
        for v in supported:
            if dot(u[cid], v) == -1:
                continue
            degree = aug.m[cid] + dot(aug.rho_prime[cid], v)
            if degree.denominator != 1 or degree <= 0:
                raise FanoDataError(f"curve degree {degree} at ({cid}, {v})")
            dv.append((cid, v, int(degree)))
    edge = []
    supported_set = set(fp.supported)
    for i, j in _qstar_edges(fp):
        if i in supported_set and j in supported_set:
            v, w = fp.qstar.vertices[i], fp.qstar.vertices[j]
            chi, t = _primitive(tuple(a - b for a, b in zip(v, w)))
            edge.append((v, w, chi, t))
    degrees = [d for _, _, d in dv] + [t for _, _, _, t in edge]
    if not degrees:
        raise NoSupportedVertices("no generating curves found")
    iota = min(degrees)
    eps_candidates = []
    for did in aug.divisor_ids():
        for v in supported:
            pairing = dot(u[did], v)
            if pairing != -1:
                eps_candidates.append(aug.m[did] * (1 + pairing))
    epsilon = min(eps_candidates)
    picard = len(aug.divisor_ids()) - aug.lattice_rank
    dim = aug.lattice_rank + parabolic_count(sk.root_system, sk.sp)
    return CurveDegreeReport(
        tuple(dv), tuple(edge), iota, epsilon, picard, dim, Q(picard * (iota - 1))
    )


def check_q_factorial(fp: FanoPolytope) -> bool:
    """Every supported dual face has exactly rank vertices of Q, and no
    vertex of that face carries two divisors."""
    aug = fp.aug
    u = aug.u_map()
    for idx in fp.supported:
        v = fp.qstar.vertices[idx]
        face = [w for w in fp.q.vertices if dot(w, v) == -1]
        if len(face) != aug.lattice_rank:
            return False
        for w in face:
            if sum(1 for did in aug.divisor_ids() if u[did] == w) > 1:
                return False
    return True


@dataclass(frozen=True)
class MukaiReport:
    picard: int
    iota: int
    epsilon: Q
    dim: int
    mukai_lhs: Q
    holds: bool
    p_skeleton: Q | None
    p_polytope: Q | None
    cross_check: bool


def p_via_polytope(fp: FanoPolytope) -> Q | None:
    """The invariant computed through the dual polytope route.

    Optimizes sum_D (m_D - 1 + <rho'(D), theta>) over theta in
    Q* ∩ cone(sigma), with Q* described by the enumerated vertices of Q;
    independent of the skeleton-level LP data path.
    """
    aug = fp.aug
    k = len(aug.sigma_in_m)
    base = Q(sum(aug.m[did] - 1 for did in aug.divisor_ids()))
    if k == 0:
        return base
    c = []
    for j in range(k):
        c.append(
            sum(
                (dot(aug.rho_prime[did], aug.sigma_in_m[j]) for did in aug.divisor_ids()),
                Q(0),
            )
        )
    rows = []
    rhs = []
    for uvert in fp.q.vertices:
        rows.append([-dot(uvert, g) for g in aug.sigma_in_m])
        rhs.append(Q(1))
    res = lp.solve(lp.LpProblem.build(c, rows, rhs))
    if res.status != lp.OPTIMAL:
        return None
    return base + res.value


def mukai_check(fp: FanoPolytope) -> MukaiReport:
    """Generalized Mukai inequality report plus the invariant cross-check."""
    if not check_q_factorial(fp):
        raise NotQFactorial("a supported dual face violates the rank criterion")
    report = curve_degrees(fp)
    p_skel = compute_p(fp.aug.skeleton).p_value
    p_poly = p_via_polytope(fp)
    # Pasquier-style bound at each supported vertex inside cone(sigma).
    for idx in fp.supported:
        v = fp.qstar.vertices[idx]
        coords = _cone_coordinates(fp, v)
        if coords is None:
            continue
        value = sum(
            (
                fp.aug.m[did] - 1 + dot(fp.aug.rho_prime[did], v)
                for did in fp.aug.divisor_ids()
            ),
            Q(0),
        )
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


def _cone_coordinates(fp: FanoPolytope, v: Vec) -> Vec | None:
    """Express v as a nonnegative combination of sigma (None if outside)."""
    sigma = fp.aug.sigma_in_m
    if not sigma:
        return () if all(x == 0 for x in v) else None
    k = len(sigma)
    rows = []
    rhs = []
    for j in range(fp.aug.lattice_rank):
        row = [g[j] for g in sigma]
        rows.append(row)
        rhs.append(v[j])
        rows.append([-x for x in row])
        rhs.append(-v[j])
    res = lp.solve(lp.LpProblem.build([0] * k, rows, rhs))
    if res.status != lp.OPTIMAL:
        return None
    return res.x


def color_vertex_check(fp: FanoPolytope) -> bool:
    """Colors with u_D outside the valuation cone must be vertices of Q."""
    aug = fp.aug
    u = aug.u_map()
    for cid in aug.color_ids():
        if not _in_valuation_cone(aug, u[cid]) and u[cid] not in fp.q.vertices:
            return False
    return True
