from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from sphskel.catalog import FamilySpec, generate
from sphskel.roots import SimpleType, matrix_isomorphisms
from sphskel.skeleton import GammaDivisor, SphericalSkeleton, make_root

DATA = Path(__file__).parent / "data"


def load_fixture(name: str) -> dict:
    with open(DATA / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


# A small pool of catalog systems used as bases for randomized skeletons.
_BASE_SPECS = [
    FamilySpec("2", series=SimpleType("A", 1)),
    FamilySpec("2", series=SimpleType("A", 2)),
    FamilySpec("2", series=SimpleType("B", 2)),
    FamilySpec("2", series=SimpleType("G", 2)),
    FamilySpec("3", l=1, m=0),
    FamilySpec("3", l=1, m=1),
    FamilySpec("3", l=2, m=1),
    FamilySpec("4", m=1),
    FamilySpec("5", m=2),
    FamilySpec("5", m=3),
    FamilySpec("6", m=1),
    FamilySpec("8", l=1),
    FamilySpec("9", l=2, m=1),
    FamilySpec("10/11", l=2, m=0),
    FamilySpec("12", m=2),
    FamilySpec("13", m=2),
    FamilySpec("15", l=1, m=2),
    FamilySpec("29"),
    FamilySpec("30"),
]

_BASE_CACHE: dict[int, SphericalSkeleton] = {}


def random_base(rng: random.Random) -> SphericalSkeleton:
    idx = rng.randrange(len(_BASE_SPECS))
    if idx not in _BASE_CACHE:
        _BASE_CACHE[idx] = generate(_BASE_SPECS[idx])
    return _BASE_CACHE[idx]


def random_gamma_rows(
    rng: random.Random, nsigma: int, max_rows: int = 3, allow_zero: bool = True
) -> list[tuple[str, tuple[int, ...]]]:
    rows = []
    for t in range(rng.randrange(max_rows + 1)):
        row = tuple(rng.choice((0, 0, -1, -1, -2)) for _ in range(nsigma))
        if not allow_zero and all(v == 0 for v in row):
            row = tuple(-1 if j == rng.randrange(nsigma) else 0 for j in range(nsigma))
        rows.append((f"r{t + 1}", row))
    return rows


def random_skeleton(rng: random.Random) -> SphericalSkeleton:
    """A valid skeleton: catalog system (sometimes a product) + random Gamma."""
    sk = random_base(rng)
    if rng.random() < 0.3:
        from sphskel.skeleton import product

        sk = product(sk, random_base(rng))
    gamma = tuple(
        GammaDivisor(gid, row) for gid, row in random_gamma_rows(rng, len(sk.sigma))
    )
    return sk._replace(gamma=gamma)


def permuted_copy(sk: SphericalSkeleton, rng: random.Random) -> SphericalSkeleton:
    """An isomorphic skeleton through a random diagram automorphism."""
    m = sk.root_system.coroot_matrix()
    autos = list(matrix_isomorphisms(m, m))
    phi = rng.choice(autos)
    sigma = tuple(
        make_root(g.kind, tuple(phi[e] for e in g.embedding), sk.root_system)
        for g in sk.sigma
    )
    colors = tuple(
        c._replace(moved_by=tuple(sorted(phi[a] for a in c.moved_by)))
        for c in sk.colors
    )
    sp = frozenset(phi[a] for a in sk.sp)
    return SphericalSkeleton(sk.root_system, sigma, sp, colors, sk.gamma)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)
