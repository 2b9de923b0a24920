"""Root systems of types A-G and finite products.

Roots are stored as integer coefficient vectors over the simple roots in
Bourbaki numbering; all pairings go through the coroot pairing matrix
``M[i][j] = <alpha_i^vee, alpha_j>``, so no euclidean realization is
needed.  Simple-root indices are 0-based internally and numbered factor by
factor.  Root systems are frozen values, so the data derived from them is
pure and memoised per process by value: the coroot matrix, per (system,
subset of simple roots) the positive roots and their sum 2 rho, and |R+|
per simple type.  One routine builds those roots, by root strings along
the subset alone (Humphreys, *Introduction to Lie Algebras*, 10.4), so no
caller lists the roots of a whole product system: |R+| is summed over the
simple factors.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cache
from typing import Iterable, Iterator, NamedTuple, Sequence

_RANK_RULES = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


class _SimpleTypeFields(NamedTuple):
    letter: str
    rank: int


class SimpleType(_SimpleTypeFields):
    """A simple type such as ``B3``; construction checks the rank rule."""

    __slots__ = ()

    def __new__(cls, letter: str, rank: int) -> "SimpleType":
        if letter not in _RANK_RULES:
            raise ValueError(f"unknown simple type {letter!r}")
        if not _RANK_RULES[letter](rank):
            raise ValueError(f"invalid rank {rank} for type {letter}")
        return super().__new__(cls, letter, rank)

    @classmethod
    def _make(cls, iterable: Iterable) -> "SimpleType":
        """Build through ``__new__``, so ``_replace`` checks too."""
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"

    @staticmethod
    def parse(text: str) -> "SimpleType":
        """A letter, then the rank in ASCII digits with no leading zero, as
        a spec's l and m: ``int`` would also read signs, underscores, other
        scripts' digits and ``01``, which would not round-trip."""
        text = text.strip()
        digits = text[1:]
        if (
            not text[:1].isalpha()
            or not (digits.isascii() and digits.isdigit())
            or (digits[0] == "0" and digits != "0")
        ):
            raise ValueError(f"cannot parse simple type {text!r}")
        return SimpleType(text[0].upper(), int(digits))


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


class Root(NamedTuple):
    """Integer coefficient vector over the simple roots."""

    coeffs: tuple[int, ...]


class RootSystem(NamedTuple):
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
        """<alpha_i^vee, sum coeffs_j alpha_j>, reading no index past the rank."""
        return sum(c * m for m, c in zip(self.coroot_matrix()[i], coeffs) if c)


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


def positive_roots(rs: RootSystem) -> tuple[Root, ...]:
    """All positive roots, built layer by layer through root strings."""
    return _positive_roots(rs, frozenset(range(rs.total_rank)))


def positive_roots_of_subset(rs: RootSystem, subset: Iterable[int]) -> tuple[Root, ...]:
    """Positive roots of the standard sub-root-system generated by subset."""
    return _positive_roots(rs, frozenset(subset))


@cache
def _positive_roots(rs: RootSystem, s: frozenset[int]) -> tuple[Root, ...]:
    """Root strings along s only, from the units of s; unknown indices are
    dropped.  Ordered by (height, coefficients)."""
    n = rs.total_rank
    m = rs.coroot_matrix()
    s_known = sorted(i for i in s if 0 <= i < n)
    layer = [tuple(1 if j == i else 0 for j in range(n)) for i in s_known]
    known = set(layer)
    while layer:
        nxt: list[tuple[int, ...]] = []
        for beta in layer:
            for i in s_known:
                # Root string: beta + alpha_i is a root iff
                # p - <alpha_i^vee, beta> > 0 with p the string depth.
                pairing = sum(beta[j] * m[i][j] for j in s_known if beta[j])
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
        layer = nxt
    return tuple(Root(c) for c in sorted(known, key=lambda c: (sum(c), c)))


def half_sum(rs: RootSystem, subset: Iterable[int]) -> tuple[Q, ...]:
    """Half-sum of the positive roots generated by the subset (rho_I)."""
    return tuple(Q(t, 2) for t in two_rho(rs, frozenset(subset)))


@cache
def two_rho(rs: RootSystem, s: frozenset[int]) -> tuple[int, ...]:
    """Sum of the positive roots generated by s (2 rho_s), in integers."""
    total = [0] * rs.total_rank
    for r in _positive_roots(rs, s):
        for j, c in enumerate(r.coeffs):
            total[j] += c
    return tuple(total)


def parabolic_count(rs: RootSystem, sp: Iterable[int]) -> int:
    """|R+| - |R+ generated by sp| (the dimension of G/P); |R+| per factor."""
    whole = sum(_positive_count(f) for f in rs.factors)
    return whole - len(positive_roots_of_subset(rs, sp))


@cache
def _positive_count(t: SimpleType) -> int:
    return len(positive_roots(RootSystem((t,))))


def matrix_isomorphisms(
    m1: Sequence[Sequence[int]], m2: Sequence[Sequence[int]]
) -> Iterator[tuple[int, ...]]:
    """Every bijection phi with m2[phi(i)][phi(j)] == m1[i][j], in lexicographic order.

    Used for Dynkin-diagram isomorphisms (the coroot pairing matrix
    determines the labeled diagram) and for sub-diagram classification.
    """
    n = len(m1)
    if len(m2) != n:
        return
    sig1 = [tuple(sorted(m1[i])) for i in range(n)]
    sig2 = [tuple(sorted(m2[i])) for i in range(n)]
    phi: list[int] = []  # the images of the rows of m1 placed so far
    used = [False] * n
    cand = 0  # the next row of m2 to try for row len(phi) of m1
    # One frame, not one generator per row: a caller that stops at the
    # first isomorphism closes it cheaply.
    while True:
        i = len(phi)
        if i == n:
            yield tuple(phi)
            cand = n
        while cand < n and (
            used[cand]
            or sig1[i] != sig2[cand]
            or m1[i][i] != m2[cand][cand]
            or any(
                m1[i][j] != m2[cand][c] or m1[j][i] != m2[c][cand]
                for j, c in enumerate(phi)
            )
        ):
            cand += 1
        if cand < n:
            phi.append(cand)
            used[cand] = True
            cand = 0
        elif phi:  # nothing extends phi: move its last row on to the next image
            cand = phi.pop()
            used[cand] = False
            cand += 1
        else:
            return


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
        for letter in _TYPE_ORDER:
            if not _RANK_RULES[letter](len(comp)):
                continue
            t = SimpleType(letter, len(comp))
            phi = next(matrix_isomorphisms(sub, _simple_coroot_matrix(t)), None)
            if phi is not None:
                break
        else:
            raise ValueError(f"subset {comp} is not a finite-type diagram")
        factors.append(t)
        for local, old in enumerate(comp):
            mapping[old] = offset + phi[local]
        offset += t.rank
    return RootSystem(tuple(factors)), mapping
