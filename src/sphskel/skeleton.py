"""Spherical skeletons: validation, products, reductions, localization.

The lattice spanned by the spherical roots is always coordinatized by the
roots themselves (they are linearly independent), so a divisor is stored as
its integer pairing row against sigma.  The full color set is stored
explicitly, with the simple roots moving each color, because localization
needs that data.  Color reconstruction, the structural checks and fano's
augmentation checks read one table of sigma against the simple roots.
Isomorphism compares the divisors as one sorted key per Dynkin-diagram
isomorphism that carries S^p and sigma onto the other skeleton's.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, NamedTuple, Sequence

from .geometry import cone_contains
from .linalg import rank
from .roots import RootSystem, classify_subsystem, matrix_isomorphisms
from .sphroots import (
    SUM_OF_TWO,
    BadEmbedding,
    SphericalRoot,
    anticanonical_coefficient,
    is_compatible,
    make_root,
)

PAIR_PLUS = "pair_plus"
PAIR_MINUS = "pair_minus"
HALF = "half"
AROUND = "around"
COLOR_KINDS = (PAIR_PLUS, PAIR_MINUS, HALF, AROUND)


class SubsetNotInDelta(ValueError):
    pass


class InvalidSkeleton(ValueError):
    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class Color(NamedTuple):
    id: str
    kind: str
    moved_by: tuple[int, ...]
    pairings: tuple[int, ...]
    m: int


class GammaDivisor(NamedTuple):
    id: str
    pairings: tuple[int, ...]

    @property
    def m(self) -> int:
        return 1


class SphericalSkeleton(NamedTuple):
    root_system: RootSystem
    sigma: tuple[SphericalRoot, ...]
    sp: frozenset[int]
    colors: tuple[Color, ...]
    gamma: tuple[GammaDivisor, ...]

    @property
    def divisors(self) -> tuple[Color | GammaDivisor, ...]:
        return self.colors + self.gamma

    def pairing_rows(self) -> list[tuple[int, ...]]:
        return [d.pairings for d in self.divisors]

    def coefficients(self) -> list[int]:
        return [d.m for d in self.divisors]

    def color_set(self, alpha: int) -> tuple[Color, ...]:
        return tuple(c for c in self.colors if alpha in c.moved_by)


def sigma_table(
    rs: RootSystem, sigma: Sequence[SphericalRoot]
) -> tuple[tuple[tuple[int, ...], ...], dict[int, int], dict[int, int]]:
    """Sigma against the simple roots: ``(rows, simple, doubled)``.

    ``rows[alpha][j]`` is <alpha^vee, sigma[j]>; ``simple`` and ``doubled``
    map alpha, in increasing order, to the last j with sigma[j] = alpha or
    2 alpha over all n simple roots.
    """
    n = rs.total_rank
    rows = tuple(tuple(rs.coroot_pairing(a, g.coeffs) for g in sigma) for a in range(n))
    index = {g.coeffs: j for j, g in enumerate(sigma)}

    def located(k: int) -> dict[int, int]:
        units = (tuple(k if i == a else 0 for i in range(n)) for a in range(n))
        return {a: index[u] for a, u in enumerate(units) if u in index}

    return rows, located(1), located(2)


# How the pair colors at alpha split <alpha^vee, sigma[j]> for sigma[j] != alpha.
_PAIR_SPLIT = {0: (0, 0), -1: (0, -1), -2: (-1, -1)}


def build_full_colors(
    rs: RootSystem, sigma: Sequence[SphericalRoot], sp: Iterable[int]
) -> tuple[Color, ...]:
    """Reconstruct the full color set from a spherical system.

    All even splits are forced; an odd pairing -1 always goes to the minus
    color of the pair.
    """
    n = rs.total_rank
    spset = frozenset(sp)
    rows, simple, doubled = sigma_table(rs, sigma)

    # Vertices joined into one color come exactly from the orthogonal
    # two-vertex sums in sigma.
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in sigma:
        if g.kind == SUM_OF_TWO:
            a, b = g.embedding
            parent[find(a)] = find(b)

    groups: dict[int, list[int]] = {}
    for alpha in range(n):
        if alpha in spset:
            continue
        groups.setdefault(find(alpha), []).append(alpha)

    colors: list[Color] = []
    counter = 0

    def next_id() -> str:
        nonlocal counter
        counter += 1
        return f"D{counter}"

    for alpha in range(n):
        if alpha in spset:
            continue
        if alpha in simple:
            own, row = simple[alpha], rows[alpha]
            stuck = [v for j, v in enumerate(row) if j != own and v not in _PAIR_SPLIT]
            if stuck:
                raise ValueError(f"cannot split pairing {stuck[0]} at simple root {alpha}")
            split = [(1, 1) if j == own else _PAIR_SPLIT[v] for j, v in enumerate(row)]
            plus, minus = zip(*split)
            colors.append(Color(next_id(), PAIR_PLUS, (alpha,), plus, 1))
            colors.append(Color(next_id(), PAIR_MINUS, (alpha,), minus, 1))
        elif alpha in doubled:
            if any(v % 2 for v in rows[alpha]):
                raise ValueError(f"half color at {alpha} has fractional pairing")
            half = tuple(v // 2 for v in rows[alpha])
            colors.append(Color(next_id(), HALF, (alpha,), half, 1))
        else:
            group = tuple(sorted(groups[find(alpha)]))
            if any(beta in simple or beta in doubled for beta in group):
                # Valid systems never join a plain circle to a pair or half
                # vertex (axioms A1 / Sigma1 forbid it).
                raise ValueError(f"joined circles at {group} mix color kinds")
            if alpha != group[0]:
                continue
            images = {rows[beta] for beta in group}
            if len(images) != 1:
                raise ValueError(f"joined circles at {group} have unequal images")
            ms = {anticanonical_coefficient(rs, spset, beta, sigma) for beta in group}
            if len(ms) != 1:
                raise ValueError(f"joined circles at {group} have unequal coefficients")
            colors.append(Color(next_id(), AROUND, group, images.pop(), ms.pop()))
    return tuple(colors)


def make_skeleton(
    rs: RootSystem,
    sigma: Sequence[SphericalRoot],
    sp: Iterable[int],
    gamma_rows: Sequence[tuple[str, Sequence[int]]] = (),
) -> SphericalSkeleton:
    """Build a skeleton with its full color set reconstructed from the system."""
    colors = build_full_colors(rs, sigma, sp)
    gamma = tuple(
        GammaDivisor(gid, tuple(int(v) for v in row)) for gid, row in gamma_rows
    )
    return SphericalSkeleton(rs, tuple(sigma), frozenset(sp), colors, gamma)


def validate(sk: SphericalSkeleton) -> list[str]:
    """All axiom violations, with witnesses; empty means valid.

    Every check runs on every distinct value.  The checks that read only
    the root system, sigma, S^p and the colors are memoised by value in
    ``_structure_violations``: the markings of one family share that
    structure and differ only in Gamma.  The divisor id and Gamma row
    checks run on each call, and each call returns a new list.
    """
    head, tail = _structure_violations(sk.root_system, sk.sigma, sk.sp, sk.colors)
    out = list(head)
    ids = [d.id for d in sk.divisors]
    if len(set(ids)) != len(ids):
        out.append("divisor ids are not unique")
    out += tail
    nsigma = len(sk.sigma)
    for d in sk.gamma:
        if len(d.pairings) != nsigma:
            out.append(f"{d.id}: pairing row has wrong length")
        elif any(v > 0 for v in d.pairings):
            out.append(f"{d.id}: invariant divisor with positive pairing")
    return out


@cache
def _structure_violations(
    rs: RootSystem,
    sigma: tuple[SphericalRoot, ...],
    sp: frozenset[int],
    colors: tuple[Color, ...],
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Violations of the Gamma-free axioms, split where ``validate`` puts
    its divisor id check: (before it, after it)."""
    out: list[str] = []
    n = rs.total_rank
    nsigma = len(sigma)

    # Checks that index the coroot matrix are skipped on unknown indices.
    indices = frozenset(range(n))
    sp_known = sp <= indices
    if not sp_known:
        out.append("S^p contains an unknown simple root index")

    seen_coeffs: set[tuple[int, ...]] = set()
    for j, g in enumerate(sigma):
        try:
            rebuilt = make_root(g.kind, g.embedding, rs)
        except BadEmbedding as exc:
            out.append(f"sigma[{j}]: {exc}")
            continue
        if rebuilt.coeffs != g.coeffs:
            out.append(f"sigma[{j}]: stored expansion differs from its pattern")
        if g.coeffs in seen_coeffs:
            out.append(f"sigma[{j}]: duplicate spherical root")
        seen_coeffs.add(g.coeffs)
        if sp_known and not is_compatible(g, sp, rs):
            out.append(f"axiom S: sigma[{j}] is not compatible with S^p")
    if rank([g.coeffs for g in sigma]) != nsigma:
        out.append("sigma is linearly dependent")
    head = tuple(out)
    out = []

    rows, simple, doubled = sigma_table(rs, sigma)

    for c in colors:
        if c.kind not in COLOR_KINDS:
            out.append(f"{c.id}: unknown color kind {c.kind}")
            continue
        if len(c.pairings) != nsigma:
            out.append(f"{c.id}: pairing row has wrong length")
            continue
        if not c.moved_by:
            out.append(f"{c.id}: moved_by is empty")
            continue
        if not indices.issuperset(c.moved_by):
            out.append(f"{c.id}: moved by an unknown simple root index")
            continue
        if any(a in sp for a in c.moved_by):
            out.append(f"{c.id}: moved by a simple root in S^p")
        if c.kind in (PAIR_PLUS, PAIR_MINUS):
            if c.m != 1:
                out.append(f"{c.id}: colors of simple spherical roots have m = 1")
            if not set(c.moved_by) <= simple.keys():
                out.append(f"{c.id}: pair color moved by a root outside Sigma∩S")
            for j, v in enumerate(c.pairings):
                if v > 1:
                    out.append(f"axiom A1: <rho({c.id}), sigma[{j}]> = {v} > 1")
                elif v == 1:
                    moved = any(simple.get(a) == j for a in c.moved_by)
                    if not moved:
                        out.append(
                            f"axiom A1: <rho({c.id}), sigma[{j}]> = 1 but "
                            f"{c.id} is not moved through that root"
                        )
        elif c.kind == HALF:
            (alpha,) = c.moved_by if len(c.moved_by) == 1 else (None,)
            if alpha is None or alpha not in doubled:
                out.append(f"{c.id}: half color must be moved by one doubled root")
            else:
                if any(v % 2 for v in rows[alpha]):
                    out.append(f"axiom Sigma1: <alpha^vee, Lambda> not even at {alpha + 1}")
                elif tuple(v // 2 for v in rows[alpha]) != c.pairings:
                    out.append(f"{c.id}: half color row differs from alpha^vee/2")
                if c.m != 1:
                    out.append(f"{c.id}: half colors have m = 1")
        else:  # around
            bad = set(c.moved_by) & (simple.keys() | doubled.keys() | sp)
            if bad:
                out.append(f"{c.id}: around color moved by {[a + 1 for a in sorted(bad)]}")
                continue
            for alpha in c.moved_by:
                if rows[alpha] != c.pairings:
                    out.append(
                        f"{c.id}: around color row differs from alpha^vee at {alpha + 1}"
                    )
                    break
            expected_m = anticanonical_coefficient(rs, sp, c.moved_by[0], sigma)
            if c.m != expected_m:
                out.append(f"{c.id}: m = {c.m}, anticanonical formula gives {expected_m}")

    # Coverage: every simple root outside S^p moves the right number of colors.
    for alpha in range(n):
        if alpha in sp:
            continue
        cs = [c for c in colors if alpha in c.moved_by]
        if alpha in simple:
            pair = [c for c in cs if c.kind in (PAIR_PLUS, PAIR_MINUS)]
            if len(pair) != 2:
                out.append(f"axiom A2: {len(pair)} pair colors at simple root {alpha + 1}")
            else:
                total = tuple(a + b for a, b in zip(pair[0].pairings, pair[1].pairings))
                if total != rows[alpha]:
                    out.append(f"axiom A2: pair rows at {alpha + 1} do not sum to alpha^vee")
        elif alpha in doubled:
            if len([c for c in cs if c.kind == HALF]) != 1:
                out.append(f"full colors: doubled root {alpha + 1} needs one half color")
        else:
            if len([c for c in cs if c.kind == AROUND]) != 1:
                out.append(f"full colors: simple root {alpha + 1} needs one around color")

    # Axiom A3 is structural here: pair colors are exactly the abstract set.
    for c in colors:
        if c.kind in (PAIR_PLUS, PAIR_MINUS) and not set(c.moved_by) & simple.keys():
            out.append(f"axiom A3: {c.id} is not moved through Sigma∩S")

    for alpha, own in doubled.items():
        for j, v in enumerate(rows[alpha]):
            if v % 2 != 0:
                out.append(f"axiom Sigma1: <alpha_{alpha + 1}^vee, sigma[{j}]> = {v} is odd")
            if j != own and v > 0:
                out.append(
                    f"axiom Sigma1: <alpha_{alpha + 1}^vee, sigma[{j}]> = {v} > 0"
                )

    for g in sigma:
        if g.kind == SUM_OF_TWO:
            a, b = g.embedding
            if rows[a] != rows[b]:
                out.append(f"axiom Sigma2: alpha^vee differs across {a + 1}+{b + 1}")
    return head, tuple(out)


def is_complete(sk: SphericalSkeleton) -> bool:
    """cone(rho(D)) must be all of the dual space: contains every ±e_i."""
    nsigma = len(sk.sigma)
    rows = sk.pairing_rows()
    units = (
        tuple(s * (j == i) for j in range(nsigma)) for i in range(nsigma) for s in (1, -1)
    )
    return all(cone_contains(rows, e) for e in units)


def product(a: SphericalSkeleton, b: SphericalSkeleton) -> SphericalSkeleton:
    """Product skeleton: disjoint root systems, cross pairings zero."""
    rs = RootSystem(a.root_system.factors + b.root_system.factors)
    na = a.root_system.total_rank
    la, lb = len(a.sigma), len(b.sigma)
    sigma = [make_root(g.kind, g.embedding, rs) for g in a.sigma]
    sigma += [
        make_root(g.kind, tuple(e + na for e in g.embedding), rs) for g in b.sigma
    ]
    sp = frozenset(a.sp) | frozenset(e + na for e in b.sp)

    clash = {d.id for d in a.divisors} & {d.id for d in b.divisors}

    def rename(side: str, name: str) -> str:
        return f"{side}{name}" if clash else name

    colors = [
        c._replace(id=rename("1:", c.id), pairings=c.pairings + (0,) * lb)
        for c in a.colors
    ]
    colors += [
        c._replace(
            id=rename("2:", c.id),
            moved_by=tuple(e + na for e in c.moved_by),
            pairings=(0,) * la + c.pairings,
        )
        for c in b.colors
    ]
    gamma = [
        GammaDivisor(rename("1:", d.id), d.pairings + (0,) * lb) for d in a.gamma
    ]
    gamma += [
        GammaDivisor(rename("2:", d.id), (0,) * la + d.pairings) for d in b.gamma
    ]
    return SphericalSkeleton(rs, tuple(sigma), sp, tuple(colors), tuple(gamma))


def normalize(sk: SphericalSkeleton) -> SphericalSkeleton:
    """Drop invariant divisors with identically zero image."""
    keep = tuple(d for d in sk.gamma if any(v != 0 for v in d.pairings))
    return sk._replace(gamma=keep)


def _gamma_counts(sk: SphericalSkeleton) -> list[int]:
    return [
        -sum(d.pairings[j] for d in sk.gamma) for j in range(len(sk.sigma))
    ]


def elementary(sk: SphericalSkeleton) -> SphericalSkeleton:
    """Replace Gamma by n_gamma unit markings per spherical root."""
    nsigma = len(sk.sigma)
    gamma: list[GammaDivisor] = []
    for j, count in enumerate(_gamma_counts(sk)):
        for t in range(count):
            row = tuple(-1 if i == j else 0 for i in range(nsigma))
            gamma.append(GammaDivisor(f"g{j + 1}_{t + 1}", row))
    return sk._replace(gamma=tuple(gamma))


def reduced_elementary(sk: SphericalSkeleton) -> SphericalSkeleton:
    """Like elementary, but keep at most one marking per spherical root."""
    nsigma = len(sk.sigma)
    gamma: list[GammaDivisor] = []
    for j, count in enumerate(_gamma_counts(sk)):
        if count > 0:
            row = tuple(-1 if i == j else 0 for i in range(nsigma))
            gamma.append(GammaDivisor(f"g{j + 1}", row))
    return sk._replace(gamma=tuple(gamma))


def localize(sk: SphericalSkeleton, ids: Iterable[str]) -> SphericalSkeleton:
    """Restriction of the skeleton to the divisors containing a fixed orbit."""
    chosen = set(ids)
    known = {d.id for d in sk.divisors}
    missing = chosen - known
    if missing:
        raise SubsetNotInDelta(f"unknown divisor ids: {sorted(missing)}")

    rs = sk.root_system
    n = rs.total_rank
    s_loc: set[int] = set()
    for alpha in range(n):
        moved = {c.id for c in sk.color_set(alpha)}
        if moved <= chosen:
            s_loc.add(alpha)

    sub_rs, mapping = classify_subsystem(rs, sorted(s_loc))
    sigma_idx = [j for j, g in enumerate(sk.sigma) if g.support <= s_loc]
    sigma = tuple(
        make_root(
            sk.sigma[j].kind,
            tuple(mapping[e] for e in sk.sigma[j].embedding),
            sub_rs,
        )
        for j in sigma_idx
    )
    sp = frozenset(mapping[a] for a in sk.sp if a in s_loc)

    colors: list[Color] = []
    gamma: list[GammaDivisor] = []
    for c in sk.colors:
        inside = [a for a in c.moved_by if a in s_loc]
        row = tuple(c.pairings[j] for j in sigma_idx)
        if inside:
            colors.append(
                Color(c.id, c.kind, tuple(mapping[a] for a in inside), row, c.m)
            )
        elif c.id in chosen:
            gamma.append(GammaDivisor(c.id, row))
    for d in sk.gamma:
        if d.id in chosen:
            gamma.append(GammaDivisor(d.id, tuple(d.pairings[j] for j in sigma_idx)))
    return SphericalSkeleton(sub_rs, sigma, sp, tuple(colors), tuple(gamma))


def _signature(sk: SphericalSkeleton) -> tuple:
    return (
        sorted((f.letter, f.rank) for f in sk.root_system.factors),
        sorted(sorted(g.coeffs) for g in sk.sigma),
        len(sk.sp),
        sorted((c.kind in (PAIR_PLUS, PAIR_MINUS), c.m, sorted(c.pairings)) for c in sk.colors),
        sorted(sorted(d.pairings) for d in sk.gamma),
    )


def _carried(row: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """row with each entry row[j] moved to place perm[j]."""
    out = [0] * len(perm)
    for j, v in enumerate(row):
        out[perm[j]] = v
    return tuple(out)


def _divisor_keys(sk: SphericalSkeleton, tau: Sequence[int]) -> tuple[list, list]:
    """Sorted (kind class, m, row) of the colors, pair_plus and pair_minus in
    one class, and sorted Gamma rows, each row carried to the sigma order tau."""
    colors = sorted(
        (PAIR_PLUS if c.kind == PAIR_MINUS else c.kind, c.m, _carried(c.pairings, tau))
        for c in sk.colors
    )
    return colors, sorted(_carried(d.pairings, tau) for d in sk.gamma)


def isomorphic(a: SphericalSkeleton, b: SphericalSkeleton) -> bool:
    """Compare the divisor keys once per Dynkin-diagram isomorphism phi that
    maps S^p onto S^p and sigma onto sigma (by the permutation tau)."""
    if _signature(a) != _signature(b):
        return False
    b_roots = {g.coeffs: j for j, g in enumerate(b.sigma)}
    b_keys = _divisor_keys(b, range(len(b.sigma)))
    ma = a.root_system.coroot_matrix()
    mb = b.root_system.coroot_matrix()
    for phi in matrix_isomorphisms(ma, mb):
        if {phi[x] for x in a.sp} != set(b.sp):
            continue
        tau = [b_roots.get(_carried(g.coeffs, phi)) for g in a.sigma]
        if None in tau or len(set(tau)) != len(b.sigma):
            continue
        if _divisor_keys(a, tau) == b_keys:
            return True
    return False


def equivalent(a: SphericalSkeleton, b: SphericalSkeleton) -> bool:
    """Isomorphy after dropping zero-image invariant divisors."""
    return isomorphic(normalize(a), normalize(b))
