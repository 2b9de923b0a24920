from __future__ import annotations

import pytest

from sphskel.catalog import all_specs, generate
from sphskel.roots import RootSystem
from sphskel.sphroots import (
    A3_MIDDLE,
    A_CHAIN,
    ALPHA,
    B3_WEIGHTED,
    B_CHAIN,
    B_CHAIN_DOUBLED,
    C_CHAIN_FREE,
    C_CHAIN_PINNED,
    D_CHAIN,
    DOUBLE_ALPHA,
    F4_ROOT,
    G2_DOUBLED,
    G2_SHORT_SUM,
    PATTERN_KINDS,
    SIZED_KINDS,
    SUM_OF_TWO,
    BadEmbedding,
    anticanonical_coefficient,
    embed_from_coeffs,
    is_compatible,
    make_root,
    pattern,
)


def _support_system(kind: str, size: int) -> RootSystem:
    letter = {"A": "A", "B": "B", "C": "C", "D": "D", "F": "F", "G": "G"}
    pat = pattern(kind, size)
    if kind == SUM_OF_TWO:
        return RootSystem.parse("A1xA1")
    if kind in (ALPHA, DOUBLE_ALPHA):
        return RootSystem.parse("A1")
    if kind in (A_CHAIN, A3_MIDDLE):
        return RootSystem.parse(f"A{pat.support_size}")
    if kind in (B_CHAIN, B_CHAIN_DOUBLED, B3_WEIGHTED):
        return RootSystem.parse(f"B{pat.support_size}")
    if kind in (C_CHAIN_FREE, C_CHAIN_PINNED):
        return RootSystem.parse(f"C{pat.support_size}")
    if kind == D_CHAIN:
        return RootSystem.parse(f"D{pat.support_size}")
    if kind == F4_ROOT:
        return RootSystem.parse("F4")
    return RootSystem.parse("G2")


def _all_pattern_instances(max_rank: int = 8):
    for kind in (ALPHA, DOUBLE_ALPHA, SUM_OF_TWO, A3_MIDDLE, B3_WEIGHTED,
                 F4_ROOT, G2_SHORT_SUM, G2_DOUBLED):
        yield kind, pattern(kind).support_size
    for kind in SIZED_KINDS:
        minimum = 3 if kind in (C_CHAIN_FREE, C_CHAIN_PINNED, D_CHAIN) else 2
        for size in range(minimum, max_rank + 1):
            yield kind, size


def test_expand_double_alpha():
    rs = RootSystem.parse("A4")
    root = make_root(DOUBLE_ALPHA, (2,), rs)
    assert root.coeffs == (0, 0, 2, 0)


def test_expand_f4_and_g2_rows():
    f4 = make_root(F4_ROOT, (0, 1, 2, 3), RootSystem.parse("F4"))
    assert f4.coeffs == (1, 2, 3, 2)
    g2 = make_root(G2_DOUBLED, (0, 1), RootSystem.parse("G2"))
    assert g2.coeffs == (4, 2)


def test_bad_embedding_rejected():
    rs = RootSystem.parse("A3")
    with pytest.raises(BadEmbedding):
        make_root(SUM_OF_TWO, (0, 1), rs)  # adjacent, needs orthogonal
    with pytest.raises(BadEmbedding):
        make_root(B_CHAIN, (0, 1, 2), rs)  # simply laced support
    with pytest.raises(BadEmbedding):
        make_root(ALPHA, (0, 0), rs)
    # Fixed-size patterns given too few or too many support vertices.
    with pytest.raises(BadEmbedding):
        make_root(ALPHA, (), rs)
    with pytest.raises(BadEmbedding):
        make_root(SUM_OF_TWO, (0, 2, 3), rs)
    with pytest.raises(BadEmbedding):
        embed_from_coeffs(ALPHA, (0, 0, 0), rs)


def test_embed_from_coeffs_roundtrip():
    rs = RootSystem.parse("C4")
    root = make_root(C_CHAIN_PINNED, (0, 1, 2, 3), rs)
    again = embed_from_coeffs(C_CHAIN_PINNED, root.coeffs, rs)
    assert again.coeffs == root.coeffs and again.kind == root.kind


def test_compatibility_simple_cases():
    rs = RootSystem.parse("A2")
    alpha = make_root(ALPHA, (0,), rs)
    assert is_compatible(alpha, (), rs)
    # adjacent simple root in S^p is not orthogonal to alpha
    assert not is_compatible(alpha, (1,), rs)


def test_compatibility_doubled_b_chain():
    rs = RootSystem.parse("B4")
    root = make_root(B_CHAIN_DOUBLED, (0, 1, 2, 3), rs)
    assert is_compatible(root, (1, 2, 3), rs)  # short end included
    assert not is_compatible(root, (1, 2), rs)


def test_anticanonical_simple_cases():
    rs = RootSystem.parse("A3")
    sigma = [make_root(ALPHA, (0,), rs)]
    assert anticanonical_coefficient(rs, (), 0, sigma) == 1
    # group-embedding style color: no root at alpha, S^p empty
    assert anticanonical_coefficient(rs, (), 1, []) == 2
    # chain ends get m = n
    chain = [make_root(A_CHAIN, (0, 1, 2), rs)]
    assert anticanonical_coefficient(rs, (1,), 0, chain) == 3


def test_anticanonical_rejects_sp_member():
    rs = RootSystem.parse("A2")
    with pytest.raises(ValueError):
        anticanonical_coefficient(rs, (0,), 0, [])


def test_table_coefficients_match_formula():
    # Third-column coefficients equal the anticanonical formula evaluated
    # on the support with the pattern's own S^p, for every row and size.
    for kind, size in _all_pattern_instances(8):
        pat = pattern(kind, size)
        rs = _support_system(kind, size)
        root = make_root(kind, tuple(range(pat.support_size)), rs)
        for slot in pat.slots:
            alpha = slot.positions[0]
            got = anticanonical_coefficient(rs, pat.sp_pattern, alpha, [root])
            assert got == pat.coefficient, (kind, size)


def test_slot_pairings_match_columns():
    # The small numbers beside the circles are the pairings with the root.
    for kind, size in _all_pattern_instances(8):
        pat = pattern(kind, size)
        rs = _support_system(kind, size)
        root = make_root(kind, tuple(range(pat.support_size)), rs)
        for slot in pat.slots:
            for alpha in slot.positions:
                value = rs.coroot_pairing(alpha, root.coeffs)
                if slot.kind == "pair":
                    assert value == 2 and slot.pairing == 1
                elif slot.kind == "half":
                    assert value % 2 == 0 and value // 2 == slot.pairing
                else:
                    assert value == slot.pairing, (kind, size, slot)


def test_c_chain_variants_share_expansion():
    rs = RootSystem.parse("C5")
    free = make_root(C_CHAIN_FREE, tuple(range(5)), rs)
    pinned = make_root(C_CHAIN_PINNED, tuple(range(5)), rs)
    assert free.coeffs == pinned.coeffs == (1, 2, 2, 2, 1)
    assert free.sp_vertices() == frozenset({2, 3, 4})
    assert pinned.sp_vertices() == frozenset({0, 2, 3, 4})


def test_g2_short_sum_dotted_vertex_excluded_from_sp():
    rs = RootSystem.parse("G2")
    root = make_root(G2_SHORT_SUM, (0, 1), rs)
    assert root.coeffs == (1, 1)
    assert root.sp_vertices() == frozenset()
    assert not is_compatible(root, (0,), rs)


def _frozen(value) -> bool:
    """True when ``value`` is built of ints, strs, tuples and frozensets only."""
    if isinstance(value, (int, str)):
        return True
    return isinstance(value, (tuple, frozenset)) and all(_frozen(v) for v in value)


@pytest.mark.parametrize("kind", PATTERN_KINDS)
def test_pattern_memo_equals_a_fresh_row(kind):
    accepted = 0
    for size in range(1, 9):
        try:
            fresh = pattern.__wrapped__(kind, size)
        except ValueError:
            with pytest.raises(ValueError):
                pattern(kind, size)
            continue
        row = pattern(kind, size)
        assert row == fresh and row is pattern(kind, size)
        assert _frozen(row), (kind, size)
        accepted += 1
    assert accepted


def test_embed_from_coeffs_gives_back_every_catalog_sigma():
    count = 0
    for spec in all_specs(8):
        sk = generate(spec)
        for root in sk.sigma:
            assert embed_from_coeffs(root.kind, root.coeffs, sk.root_system) == root, spec
            count += 1
    assert count == 867
