from __future__ import annotations

from fractions import Fraction as Q

import pytest

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
        direct = [r for r in positive_roots(rs) if r.support() <= set(subset)]
        expected = tuple(
            Q(sum(r.coeffs[j] for r in direct), 2) for j in range(n)
        )
        for form in (list(subset), set(subset), frozenset(subset), iter(subset)):
            assert half_sum(rs, form) == expected
        for form in (list(subset), set(subset), frozenset(subset)):
            assert positive_roots_of_subset(rs, form) == tuple(direct)
