from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import combinations, permutations

import pytest

from sphskel.catalog import all_specs, generate
from sphskel.roots import (
    RootSystem,
    SimpleType,
    cartan_matrix,
    classify_subsystem,
    half_sum,
    matrix_isomorphisms,
    parabolic_count,
    positive_roots,
    positive_roots_of_subset,
)
from sphskel.skeleton import AROUND
from sphskel.sphroots import anticanonical_coefficient

CLASSICAL_COUNTS = {
    "A1": 1, "A2": 3, "A5": 15, "B2": 4, "B3": 9, "C4": 16, "D4": 12,
    "D8": 56, "E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6,
}


def test_simple_type_rank_rules():
    with pytest.raises(ValueError):
        SimpleType("D", 2)
    with pytest.raises(ValueError):
        SimpleType("E", 5)
    with pytest.raises(ValueError):
        SimpleType("G", 3)
    assert str(SimpleType.parse("e7")) == "E7"


def test_cartan_a2():
    assert cartan_matrix(RootSystem.parse("A2")) == ((2, -1), (-1, 2))


def test_cartan_g2_bourbaki_orientation():
    # Printed plate form with alpha_1 short.
    assert cartan_matrix(RootSystem.parse("G2")) == ((2, -1), (-3, 2))


def test_cartan_block_diagonal():
    m = cartan_matrix(RootSystem.parse("A1xA2"))
    assert m == ((2, 0, 0), (0, 2, -1), (0, -1, 2))


def test_positive_root_counts():
    for name, count in CLASSICAL_COUNTS.items():
        assert len(positive_roots(RootSystem.parse(name))) == count, name


def test_positive_roots_an_formula():
    rs = RootSystem.parse("A2")
    got = {r.coeffs for r in positive_roots(rs)}
    assert got == {(1, 0), (0, 1), (1, 1)}


def test_half_sum_pairing_is_one_everywhere():
    # <alpha^vee, 2 rho_S> = 2 for every simple root of every system.
    for name in ("A1", "A4", "B2", "B5", "C3", "D4", "D6", "E6", "E7", "E8", "F4", "G2"):
        rs = RootSystem.parse(name)
        rho = half_sum(rs, range(rs.total_rank))
        for i in range(rs.total_rank):
            assert rs.coroot_pairing(i, tuple(2 * v for v in rho)) == 2, (name, i)


def test_half_sum_empty_subset():
    rs = RootSystem.parse("B3")
    assert half_sum(rs, ()) == (Q(0), Q(0), Q(0))


def test_half_sum_b3_tail_feeds_chain_coefficient():
    # B3 with S^p = {a2, a3}: <alpha_1^vee, 2 rho_S - 2 rho_{S^p}> = 5,
    # the doubled-chain coefficient 2n - 1 at n = 3.
    rs = RootSystem.parse("B3")
    rho_s = half_sum(rs, range(3))
    rho_sp = half_sum(rs, (1, 2))
    delta = tuple(2 * (a - b) for a, b in zip(rho_s, rho_sp))
    assert rs.coroot_pairing(0, delta) == 5


def test_parabolic_count_examples():
    rs = RootSystem.parse("B3")
    assert parabolic_count(rs, range(3)) == 0
    for n in (2, 3, 5):
        rs = RootSystem.parse(f"A{n}xA{n}")
        assert parabolic_count(rs, ()) == n * n + n


def test_parabolic_count_monotone():
    rs = RootSystem.parse("D5")
    chain = [set(), {0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}, {0, 1, 2, 3, 4}]
    counts = [parabolic_count(rs, s) for s in chain]
    assert counts == sorted(counts, reverse=True)


def test_matrix_isomorphisms_a3_reversal():
    m = RootSystem.parse("A3").coroot_matrix()
    autos = {phi for phi in matrix_isomorphisms(m, m)}
    assert autos == {(0, 1, 2), (2, 1, 0)}


def test_matrix_isomorphisms_d4_triality():
    m = RootSystem.parse("D4").coroot_matrix()
    assert len(list(matrix_isomorphisms(m, m))) == 6


def test_matrix_isomorphisms_b2_c2_flip():
    b2 = RootSystem.parse("B2").coroot_matrix()
    c2 = RootSystem.parse("C2").coroot_matrix()
    assert list(matrix_isomorphisms(b2, c2)) == [(1, 0)]


def test_matrix_isomorphisms_are_every_bijection_in_lexicographic_order():
    # classify_subsystem and sphroots.embed_from_coeffs take the first one
    # as the least.
    rng = random.Random(7)
    for text in ("A1xA1xA1xA1", "A3xA3", "D4xA1", "A2xG2xA2", "E6", "B2xC2", "C3xB3"):
        m1 = RootSystem.parse(text).coroot_matrix()
        n = len(m1)
        shuffle = rng.sample(range(n), n)
        m2 = [[m1[shuffle[i]][shuffle[j]] for j in range(n)] for i in range(n)]
        for target in (m1, m2, RootSystem.parse(f"A{n}").coroot_matrix()):
            brute = [
                phi for phi in permutations(range(n))
                if all(target[phi[i]][phi[j]] == m1[i][j] for i in range(n) for j in range(n))
            ]
            assert list(matrix_isomorphisms(m1, target)) == brute, text
    # Entries alone do not force a bijection here.
    zero = [[0] * 3] * 3
    assert list(matrix_isomorphisms(zero, zero)) == list(permutations(range(3)))


def test_classify_subsystem_relabels():
    rs = RootSystem.parse("A5")
    sub, mapping = classify_subsystem(rs, (0, 2, 3))
    assert [str(f) for f in sub.factors] == ["A1", "A2"]
    assert mapping[0] == 0 and {mapping[2], mapping[3]} == {1, 2}


def test_classify_subsystem_fork_is_a3():
    rs = RootSystem.parse("D4")
    sub, mapping = classify_subsystem(rs, (0, 1, 2))
    assert [str(f) for f in sub.factors] == ["A3"]
    assert mapping[1] == 1  # the center stays in the middle


def test_classify_subsystem_mixed_lengths():
    rs = RootSystem.parse("F4")
    sub, _ = classify_subsystem(rs, (1, 2))
    assert [str(f) for f in sub.factors] in (["B2"], ["C2"])


@pytest.mark.parametrize("system", ["A5", "B3", "D4", "E6", "F4", "G2xA2"])
def test_subset_data_independent_of_subset_type(system):
    rs = RootSystem.parse(system)
    n = rs.total_rank
    for subset in ([], [0], list(range(0, n, 2)), list(range(1, n)), list(range(n))):
        direct = _filtered(_oracle_positive_roots(rs), subset)
        expected = tuple(Q(sum(c[j] for c in direct), 2) for j in range(n))
        for form in (list(subset), set(subset), frozenset(subset), iter(subset)):
            assert half_sum(rs, form) == expected
        for form in (list(subset), set(subset), frozenset(subset)):
            assert tuple(r.coeffs for r in positive_roots_of_subset(rs, form)) == direct


# ---------------------------------------------------------------------------
# Oracle: root strings over the whole system, then filtered by support.

def _oracle_positive_roots(rs: RootSystem) -> list[tuple[int, ...]]:
    """Every positive root of rs, by root strings along every simple root."""
    n = rs.total_rank
    m = rs.coroot_matrix()
    layer = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    known = set(layer)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(n):
                pairing = sum(beta[j] * m[i][j] for j in range(n))
                p, cur = 0, list(beta)
                while True:
                    cur[i] -= 1
                    if cur[i] < 0 or tuple(cur) not in known:
                        break
                    p += 1
                up = tuple(c + (j == i) for j, c in enumerate(beta))
                if p - pairing > 0 and up not in known:
                    known.add(up)
                    nxt.append(up)
        layer = nxt
    return sorted(known, key=lambda c: (sum(c), c))


def _filtered(whole, subset) -> tuple:
    """The oracle's roots whose support lies in subset (unknown indices
    match nothing)."""
    s = set(subset)
    return tuple(c for c in whole if {j for j, v in enumerate(c) if v} <= s)


_SIMPLE_UP_TO_8 = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{x}{n}" for x in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

_CLOSED_FORM = {
    "A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n, "C": lambda n: n * n,
    "D": lambda n: n * (n - 1), "E": {6: 36, 7: 63, 8: 120}.get,
    "F": lambda n: 24, "G": lambda n: 6,
}


def _seeded_products(seed: int, count: int) -> list[RootSystem]:
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        factors, total = [], 0
        while True:
            t = SimpleType.parse(rnd.choice(_SIMPLE_UP_TO_8))
            if total + t.rank > 16:
                break
            factors.append(t)
            total += t.rank
            if rnd.random() < 0.3:
                break
        if factors:
            out.append(RootSystem(tuple(factors)))
    return out


def _random_subsets(rnd: random.Random, n: int, count: int) -> list[list[int]]:
    out = []
    for _ in range(count):
        s = [i for i in range(n) if rnd.random() < 0.6]
        s += rnd.sample([-1, n, n + 3], rnd.randint(0, 2))
        rnd.shuffle(s)
        out.append(s)
    return out


@pytest.mark.parametrize("system", _SIMPLE_UP_TO_8)
def test_subset_roots_match_whole_system_oracle(system):
    rs = RootSystem.parse(system)
    n = rs.total_rank
    whole = _oracle_positive_roots(rs)
    assert tuple(r.coeffs for r in positive_roots(rs)) == tuple(whole)
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            got = positive_roots_of_subset(rs, subset)
            assert tuple(r.coeffs for r in got) == _filtered(whole, subset), subset


def test_subset_roots_on_seeded_products_with_unknown_indices():
    rnd = random.Random(1903)
    for rs in _seeded_products(1903, 25):
        n = rs.total_rank
        whole = _oracle_positive_roots(rs)
        for subset in _random_subsets(rnd, n, 8):
            got = positive_roots_of_subset(rs, subset)
            assert tuple(r.coeffs for r in got) == _filtered(whole, subset), (rs, subset)


def test_parabolic_count_on_seeded_products_matches_closed_forms():
    rnd = random.Random(1904)
    for rs in _seeded_products(1904, 25):
        whole = _oracle_positive_roots(rs)
        assert len(whole) == sum(_CLOSED_FORM[f.letter](f.rank) for f in rs.factors)
        for sp in _random_subsets(rnd, rs.total_rank, 8):
            assert parabolic_count(rs, sp) == len(whole) - len(_filtered(whole, sp))


def _old_anticanonical(rs: RootSystem, sp, alpha: int) -> Q:
    """2 <alpha^vee, rho_S - rho_{S^p}>, with rho of the whole system."""
    rho_s = half_sum(rs, range(rs.total_rank))
    rho_sp = half_sum(rs, sp)
    return rs.coroot_pairing(alpha, tuple(2 * (a - b) for a, b in zip(rho_s, rho_sp)))


def test_anticanonical_matches_whole_system_rho_on_seeded_products():
    rnd = random.Random(1905)
    for rs in _seeded_products(1905, 25):
        n = rs.total_rank
        for sp in _random_subsets(rnd, n, 4):
            known = {i for i in sp if 0 <= i < n}
            for alpha in sorted(set(range(n)) - known):
                got = anticanonical_coefficient(rs, sp, alpha, [])
                assert type(got) is int and got >= 2
                assert got == _old_anticanonical(rs, known, alpha), (rs, sp, alpha)


def test_around_colors_of_catalog_have_coefficient_at_least_two():
    seen = 0
    for spec in all_specs(max_rank=8):
        sk = generate(spec)
        for c in sk.colors:
            if c.kind != AROUND:
                continue
            for alpha in c.moved_by:
                m = anticanonical_coefficient(sk.root_system, sk.sp, alpha, sk.sigma)
                assert m == c.m >= 2, (spec.label(), c.id)
                assert m == _old_anticanonical(sk.root_system, sk.sp, alpha)
                seen += 1
    assert seen == 639  # (around color, simple root) pairs over 287 families
