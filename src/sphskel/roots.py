"""Root systems of types A-G and finite products.

Roots are stored as integer coefficient vectors over the simple roots in
Bourbaki numbering; all pairings go through the coroot pairing matrix
``M[i][j] = <alpha_i^vee, alpha_j>``, so no euclidean realization is
needed.  Simple-root indices are 0-based internally and numbered factor by
factor.  Root systems are frozen values, so the data derived from them
(coroot matrix, positive roots, half-sums) is pure and memoised per process
by value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache
from typing import Iterable, Iterator, Sequence

_RANK_RULES = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


@dataclass(frozen=True)
class SimpleType:
    letter: str
    rank: int

    def __post_init__(self) -> None:
        if self.letter not in _RANK_RULES:
            raise ValueError(f"unknown simple type {self.letter!r}")
        if not _RANK_RULES[self.letter](self.rank):
            raise ValueError(f"invalid rank {self.rank} for type {self.letter}")

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"

    @staticmethod
    def parse(text: str) -> "SimpleType":
        text = text.strip()
        if not text or not text[0].isalpha():
            raise ValueError(f"cannot parse simple type {text!r}")
        return SimpleType(text[0].upper(), int(text[1:]))


def _simple_coroot_matrix(t: SimpleType) -> tuple[tuple[int, ...], ...]:
    """Matrix M with M[i][j] = <alpha_i^vee, alpha_j> in Bourbaki numbering."""
    n = t.rank
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, mij: int = -1, mji: int = -1) -> None:
        m[i][j] = mij
        m[j][i] = mji

    letter = t.letter
    if letter in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if letter == "B" and n >= 2:
            # alpha_n short: <alpha_n^vee, alpha_{n-1}> = -2.
            bond(n - 2, n - 1, -1, -2)
        if letter == "C" and n >= 2:
            # alpha_n long: <alpha_{n-1}^vee, alpha_n> = -2.
            bond(n - 2, n - 1, -2, -1)
    elif letter == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif letter == "E":
        # Chain 1-3-4-5-6(-7)(-8) with 2 attached to 4 (Bourbaki).
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    elif letter == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)  # alpha_3 short
        bond(2, 3)
    elif letter == "G":
        bond(0, 1, -3, -1)  # alpha_1 short
    return tuple(tuple(r) for r in m)


@dataclass(frozen=True)
class Root:
    """Integer coefficient vector over the simple roots."""

    coeffs: tuple[int, ...]

    def support(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.coeffs) if c != 0)


@dataclass(frozen=True)
class RootSystem:
    factors: tuple[SimpleType, ...]

    @staticmethod
    def build(factors: Iterable[SimpleType | str]) -> "RootSystem":
        return RootSystem(
            tuple(f if isinstance(f, SimpleType) else SimpleType.parse(f) for f in factors)
        )

    @staticmethod
    def parse(text: str) -> "RootSystem":
        text = text.strip()
        if not text:
            return RootSystem(())
        return RootSystem.build(text.split("x"))

    def __str__(self) -> str:
        return "x".join(str(f) for f in self.factors) if self.factors else "0"

    @property
    def total_rank(self) -> int:
        return sum(f.rank for f in self.factors)

    def factor_offsets(self) -> list[int]:
        offsets = []
        acc = 0
        for f in self.factors:
            offsets.append(acc)
            acc += f.rank
        return offsets

    def coroot_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Block-diagonal matrix M[i][j] = <alpha_i^vee, alpha_j>."""
        return _coroot_matrix(self)

    def coroot_pairing(self, i: int, coeffs: Sequence[int | Q]) -> int | Q:
        """<alpha_i^vee, sum coeffs_j alpha_j>."""
        row = self.coroot_matrix()[i]
        return sum(c * row[j] for j, c in enumerate(coeffs) if c)


@cache
def _coroot_matrix(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    n = rs.total_rank
    m = [[0] * n for _ in range(n)]
    for off, fac in zip(rs.factor_offsets(), rs.factors):
        block = _simple_coroot_matrix(fac)
        for i in range(fac.rank):
            for j in range(fac.rank):
                m[off + i][off + j] = block[i][j]
    return tuple(tuple(r) for r in m)


def cartan_matrix(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix in the form printed by Bourbaki's plates.

    Entry (i, j) is ``<alpha_j^vee, alpha_i>`` (for G2 with alpha_1 short
    this gives [[2, -1], [-3, 2]]); coroot-side pairings are taken from the
    transpose via :meth:`RootSystem.coroot_pairing`.
    """
    m = rs.coroot_matrix()
    n = len(m)
    return tuple(tuple(m[j][i] for j in range(n)) for i in range(n))


@cache
def _positive_roots_cached(rs: RootSystem) -> tuple[Root, ...]:
    n = rs.total_rank
    m = rs.coroot_matrix()
    known: set[tuple[int, ...]] = set()
    by_height: list[list[tuple[int, ...]]] = [[]]

    def coeff_unit(i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(n))

    layer = [coeff_unit(i) for i in range(n)]
    by_height.append(layer)
    known.update(layer)
    h = 1
    while by_height[h]:
        nxt: list[tuple[int, ...]] = []
        for beta in by_height[h]:
            for i in range(n):
                # Root string: beta + alpha_i is a root iff
                # p - <beta, alpha_i^vee> > 0 with p the string depth.
                pairing = sum(beta[j] * m[i][j] for j in range(n) if beta[j])
                p = 0
                cur = list(beta)
                while True:
                    cur[i] -= 1
                    if cur[i] < 0 or tuple(cur) not in known:
                        break
                    p += 1
                if p - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    t = tuple(up)
                    if t not in known:
                        known.add(t)
                        nxt.append(t)
        by_height.append(nxt)
        h += 1
    ordered = sorted(known, key=lambda c: (sum(c), c))
    return tuple(Root(c) for c in ordered)


def positive_roots(rs: RootSystem) -> tuple[Root, ...]:
    """All positive roots, built layer by layer through root strings."""
    return _positive_roots_cached(rs)


def positive_roots_of_subset(rs: RootSystem, subset: Iterable[int]) -> tuple[Root, ...]:
    """Positive roots of the standard sub-root-system generated by subset."""
    return _positive_roots_of_subset(rs, frozenset(subset))


@cache
def _positive_roots_of_subset(rs: RootSystem, s: frozenset[int]) -> tuple[Root, ...]:
    return tuple(r for r in positive_roots(rs) if r.support() <= s)


def half_sum(rs: RootSystem, subset: Iterable[int]) -> tuple[Q, ...]:
    """Half-sum of the positive roots generated by the subset (rho_I)."""
    return _half_sum(rs, frozenset(subset))


@cache
def _half_sum(rs: RootSystem, s: frozenset[int]) -> tuple[Q, ...]:
    total = [0] * rs.total_rank
    for r in _positive_roots_of_subset(rs, s):
        for j, c in enumerate(r.coeffs):
            total[j] += c
    return tuple(Q(t, 2) for t in total)


def parabolic_count(rs: RootSystem, sp: Iterable[int]) -> int:
    """|R+| - |R+ generated by sp| (the dimension of G/P)."""
    return len(positive_roots(rs)) - len(positive_roots_of_subset(rs, sp))


def matrix_isomorphisms(
    m1: Sequence[Sequence[int]], m2: Sequence[Sequence[int]]
) -> Iterator[tuple[int, ...]]:
    """All bijections phi with m2[phi(i)][phi(j)] == m1[i][j].

    Used for Dynkin-diagram isomorphisms (the coroot pairing matrix
    determines the labeled diagram) and for sub-diagram classification.
    """
    n = len(m1)
    if len(m2) != n:
        return
    sig1 = [tuple(sorted(m1[i])) for i in range(n)]
    sig2 = [tuple(sorted(m2[i])) for i in range(n)]
    assignment: list[int] = []
    used = [False] * n

    def backtrack() -> Iterator[tuple[int, ...]]:
        i = len(assignment)
        if i == n:
            yield tuple(assignment)
            return
        for cand in range(n):
            if used[cand] or sig1[i] != sig2[cand]:
                continue
            ok = True
            for j in range(i):
                if m1[i][j] != m2[cand][assignment[j]] or m1[j][i] != m2[assignment[j]][cand]:
                    ok = False
                    break
            if ok and m1[i][i] == m2[cand][cand]:
                assignment.append(cand)
                used[cand] = True
                yield from backtrack()
                assignment.pop()
                used[cand] = False

    yield from backtrack()


_TYPE_ORDER = "ABCDEFG"


def classify_subsystem(
    rs: RootSystem, subset: Sequence[int]
) -> tuple[RootSystem, dict[int, int]]:
    """Root system generated by a subset of simple roots, plus the relabeling.

    Components are identified against the simple-type templates and given
    Bourbaki numbering; the returned map sends old (ambient) indices to new
    indices.  The deterministic choice among equivalent labelings is the
    lexicographically smallest one.
    """
    m = rs.coroot_matrix()
    remaining = sorted(subset)
    components: list[list[int]] = []
    seen: set[int] = set()
    for start in remaining:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop()
            for w in remaining:
                if w not in seen and m[v][w] != 0:
                    comp.append(w)
                    seen.add(w)
                    queue.append(w)
        components.append(sorted(comp))
    components.sort(key=lambda c: c[0])

    factors: list[SimpleType] = []
    mapping: dict[int, int] = {}
    offset = 0
    for comp in components:
        sub = [[m[i][j] for j in comp] for i in comp]
        match: tuple[SimpleType, tuple[int, ...]] | None = None
        for letter in _TYPE_ORDER:
            if not _RANK_RULES[letter](len(comp)):
                continue
            t = SimpleType(letter, len(comp))
            best = None
            for phi in matrix_isomorphisms(sub, _simple_coroot_matrix(t)):
                if best is None or phi < best:
                    best = phi
            if best is not None:
                match = (t, best)
                break
        if match is None:
            raise ValueError(f"subset {comp} is not a finite-type diagram")
        t, phi = match
        factors.append(t)
        for local, old in enumerate(comp):
            mapping[old] = offset + phi[local]
        offset += t.rank
    return RootSystem(tuple(factors)), mapping
