"""Catalogue of spherically closed spherical root patterns.

Each pattern records, on an abstract support diagram: the expansion in
local simple roots, which support vertices must lie in S^p, which carry a
dotted circle (excluded from S^p but contributing no color), and the
implied color slots with their pairing values.  Embeddings into an ambient
root system are checked against the support's coroot pairing template, so
bond multiplicities and short/long orientation must match exactly.
``pattern`` builds each row once per (kind, support size) and process;
every embedding and every document read shares it.  A document's root is
found among the isomorphisms of its pattern's diagram onto the support's
(``roots.matrix_isomorphisms``), never among all orderings of the support.

A color's anticanonical coefficient needs only the positive roots of S^p:
<alpha^vee, rho> = 1 for every simple root alpha (Humphreys 10.2), so
m_D = 2 - <alpha^vee, 2 rho_{S^p}>, an integer, and m_D >= 2 for alpha
outside S^p because the coroot matrix is <= 0 off the diagonal.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, NamedTuple, Sequence

from .roots import (
    RootSystem,
    SimpleType,
    _simple_coroot_matrix,
    matrix_isomorphisms,
    two_rho,
)

ALPHA = "alpha"
DOUBLE_ALPHA = "2alpha"
SUM_OF_TWO = "alpha+alpha"
A_CHAIN = "a_chain"
A3_MIDDLE = "a3_middle"
B_CHAIN = "b_chain"
B_CHAIN_DOUBLED = "2b_chain"
B3_WEIGHTED = "b3_weighted"
C_CHAIN_FREE = "c_chain_free"
C_CHAIN_PINNED = "c_chain_pinned"
D_CHAIN = "d_chain"
F4_ROOT = "f4"
G2_SHORT_SUM = "g2_short_sum"
G2_DOUBLED = "g2_doubled"

PATTERN_KINDS = (
    ALPHA,
    DOUBLE_ALPHA,
    SUM_OF_TWO,
    A_CHAIN,
    A3_MIDDLE,
    B_CHAIN,
    B_CHAIN_DOUBLED,
    B3_WEIGHTED,
    C_CHAIN_FREE,
    C_CHAIN_PINNED,
    D_CHAIN,
    F4_ROOT,
    G2_SHORT_SUM,
    G2_DOUBLED,
)

SIZED_KINDS = (A_CHAIN, B_CHAIN, B_CHAIN_DOUBLED, C_CHAIN_FREE, C_CHAIN_PINNED, D_CHAIN)


class BadEmbedding(ValueError):
    pass


class Slot(NamedTuple):
    """One implied color circle: kind, local positions, pairing with the root."""

    kind: str  # 'pair' | 'half' | 'around'
    positions: tuple[int, ...]
    pairing: int


class SphericalRootPattern(NamedTuple):
    kind: str
    support_size: int
    template: tuple[tuple[int, ...], ...]  # coroot pairing matrix of the support
    expansion: tuple[int, ...]
    sp_pattern: frozenset[int]  # circle-free local positions (must lie in S^p)
    dotted: frozenset[int]  # dotted circles: outside S^p, no implied color
    slots: tuple[Slot, ...]
    coefficient: int  # anticanonical coefficient of the slot colors


def _tpl(letter: str, rank: int) -> tuple[tuple[int, ...], ...]:
    return _simple_coroot_matrix(SimpleType(letter, rank))


def _a1xa1() -> tuple[tuple[int, ...], ...]:
    return ((2, 0), (0, 2))


@cache
def pattern(kind: str, size: int | None = None) -> SphericalRootPattern:
    """Instantiate a table row; sized kinds need their support size.  Each
    (kind, size) row is built once per process and shared: rows are
    NamedTuples of tuples and frozensets, so no caller can change one."""
    if kind == ALPHA:
        return SphericalRootPattern(
            kind, 1, _tpl("A", 1), (1,), frozenset(), frozenset(),
            (Slot("pair", (0,), 1),), 1,
        )
    if kind == DOUBLE_ALPHA:
        return SphericalRootPattern(
            kind, 1, _tpl("A", 1), (2,), frozenset(), frozenset(),
            (Slot("half", (0,), 2),), 1,
        )
    if kind == SUM_OF_TWO:
        return SphericalRootPattern(
            kind, 2, _a1xa1(), (1, 1), frozenset(), frozenset(),
            (Slot("around", (0, 1), 2),), 2,
        )
    if kind == A_CHAIN:
        n = _size(kind, size, 2)
        return SphericalRootPattern(
            kind, n, _tpl("A", n), (1,) * n,
            frozenset(range(1, n - 1)), frozenset(),
            (Slot("around", (0,), 1), Slot("around", (n - 1,), 1)), n,
        )
    if kind == A3_MIDDLE:
        return SphericalRootPattern(
            kind, 3, _tpl("A", 3), (1, 2, 1), frozenset({0, 2}), frozenset(),
            (Slot("around", (1,), 2),), 4,
        )
    if kind == B_CHAIN:
        n = _size(kind, size, 2)
        return SphericalRootPattern(
            kind, n, _tpl("B", n), (1,) * n,
            frozenset(range(1, n - 1)), frozenset({n - 1}),
            (Slot("around", (0,), 1),), n,
        )
    if kind == B_CHAIN_DOUBLED:
        n = _size(kind, size, 2)
        return SphericalRootPattern(
            kind, n, _tpl("B", n), (2,) * n,
            frozenset(range(1, n)), frozenset(),
            (Slot("around", (0,), 2),), 2 * n - 1,
        )
    if kind == B3_WEIGHTED:
        return SphericalRootPattern(
            kind, 3, _tpl("B", 3), (1, 2, 3), frozenset({0, 1}), frozenset(),
            (Slot("around", (2,), 2),), 6,
        )
    if kind in (C_CHAIN_FREE, C_CHAIN_PINNED):
        n = _size(kind, size, 3)
        expansion = (1,) + (2,) * (n - 2) + (1,)
        if kind == C_CHAIN_FREE:
            sp = frozenset(range(2, n))
            dotted = frozenset({0})
            coeff = 2 * n - 2
        else:
            sp = frozenset({0}) | frozenset(range(2, n))
            dotted = frozenset()
            coeff = 2 * n - 1
        return SphericalRootPattern(
            kind, n, _tpl("C", n), expansion, sp, dotted,
            (Slot("around", (1,), 1),), coeff,
        )
    if kind == D_CHAIN:
        n = _size(kind, size, 3)
        return SphericalRootPattern(
            kind, n, _tpl("D", n), (2,) * (n - 2) + (1, 1),
            frozenset(range(1, n)), frozenset(),
            (Slot("around", (0,), 2),), 2 * n - 2,
        )
    if kind == F4_ROOT:
        return SphericalRootPattern(
            kind, 4, _tpl("F", 4), (1, 2, 3, 2), frozenset({0, 1, 2}), frozenset(),
            (Slot("around", (3,), 1),), 11,
        )
    if kind == G2_SHORT_SUM:
        return SphericalRootPattern(
            kind, 2, _tpl("G", 2), (1, 1), frozenset(), frozenset({0}),
            (Slot("around", (1,), 1),), 2,
        )
    if kind == G2_DOUBLED:
        return SphericalRootPattern(
            kind, 2, _tpl("G", 2), (4, 2), frozenset({1}), frozenset(),
            (Slot("around", (0,), 2),), 5,
        )
    raise ValueError(f"unknown pattern kind {kind!r}")


def _size(kind: str, size: int | None, minimum: int) -> int:
    if size is None:
        raise ValueError(f"pattern {kind} needs an explicit support size")
    if size < minimum:
        raise ValueError(f"pattern {kind} needs support size >= {minimum}")
    return size


class SphericalRoot(NamedTuple):
    """A table pattern embedded into an ambient root system."""

    kind: str
    embedding: tuple[int, ...]  # ambient simple-root index per local position
    coeffs: tuple[int, ...]  # expansion over the ambient simple roots

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.embedding)

    def pattern(self) -> SphericalRootPattern:
        return pattern(self.kind, len(self.embedding))

    def sp_vertices(self) -> frozenset[int]:
        pat = self.pattern()
        return frozenset(self.embedding[p] for p in pat.sp_pattern)


def make_root(kind: str, embedding: Sequence[int], rs: RootSystem) -> SphericalRoot:
    """Embed a pattern; raises BadEmbedding on a support-type mismatch."""
    pat = pattern(kind, len(embedding))
    emb = tuple(embedding)
    if len(emb) != pat.support_size:
        raise BadEmbedding(
            f"{kind} needs {pat.support_size} support vertices, got {len(emb)}"
        )
    if len(set(emb)) != len(emb):
        raise BadEmbedding("embedding is not injective")
    n = rs.total_rank
    if any(not 0 <= i < n for i in emb):
        raise BadEmbedding("embedding index out of range")
    m = rs.coroot_matrix()
    for a in range(pat.support_size):
        for b in range(pat.support_size):
            if m[emb[a]][emb[b]] != pat.template[a][b]:
                raise BadEmbedding(
                    f"support of {kind} does not induce the required diagram"
                )
    coeffs = [0] * n
    for pos, amb in enumerate(emb):
        coeffs[amb] = pat.expansion[pos]
    return SphericalRoot(kind, emb, tuple(coeffs))


def embed_from_coeffs(
    kind: str, coeffs: Sequence[int], rs: RootSystem
) -> SphericalRoot:
    """Recover an embedded root from its pattern tag and expansion vector:
    the first diagram isomorphism, in lexicographic order, that carries it."""
    support = [i for i, c in enumerate(coeffs) if c]
    pat = pattern(kind, len(support))
    m = rs.coroot_matrix()
    if len(coeffs) == len(m):
        if len(support) == 1 == pat.support_size:  # one bijection: no matcher
            a = support[0]
            isos = [(0,)] if m[a][a] == pat.template[0][0] else []
        else:
            sub = [[m[a][b] for b in support] for a in support]
            isos = matrix_isomorphisms(pat.template, sub)
        for phi in isos:
            emb = tuple(support[i] for i in phi)
            if all(coeffs[a] == pat.expansion[p] for p, a in enumerate(emb)):
                # What make_root checks, the isomorphism has: the support
                # induces the pattern's diagram.
                return SphericalRoot(kind, emb, tuple(map(int, coeffs)))
    raise BadEmbedding(f"no {kind} embedding matches coefficients {list(coeffs)}")


def is_compatible(root: SphericalRoot, sp: Iterable[int], rs: RootSystem) -> bool:
    """Axiom (S): S^p meets the support exactly in the circle-free vertices
    and is orthogonal to the root elsewhere."""
    spset = frozenset(sp)
    if root.support & spset != root.sp_vertices():
        return False
    for beta in spset - root.support:
        if rs.coroot_pairing(beta, root.coeffs) != 0:
            return False
    return True


def anticanonical_coefficient(
    rs: RootSystem,
    sp: Iterable[int],
    alpha: int,
    sigma: Sequence[SphericalRoot],
) -> int:
    """Anticanonical coefficient m_D of any color moved through alpha."""
    spset = frozenset(sp)
    if alpha in spset:
        raise ValueError("colors are attached to simple roots outside S^p")
    n = rs.total_rank
    simple = tuple(1 if j == alpha else 0 for j in range(n))
    doubled = tuple(2 if j == alpha else 0 for j in range(n))
    if any(root.coeffs in (simple, doubled) for root in sigma):
        return 1
    return 2 - rs.coroot_pairing(alpha, two_rho(rs, spset))
