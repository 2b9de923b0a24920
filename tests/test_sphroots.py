from __future__ import annotations

import json
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

from conftest import permuted_copy
from sphskel.catalog import all_specs, generate
from sphskel.cli import main
from sphskel.roots import RootSystem, matrix_isomorphisms
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
    SphericalRoot,
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


def _embed_by_permutations(kind, coeffs, rs):
    """The permutation scan that embed_from_coeffs replaced: the reference."""
    support = [i for i, c in enumerate(coeffs) if c]
    pat = pattern(kind, len(support))
    for emb in permutations(support):
        if any(coeffs[a] != pat.expansion[p] for p, a in enumerate(emb)):
            continue
        try:
            root = make_root(kind, emb, rs)
        except BadEmbedding:
            continue
        if list(root.coeffs) == [int(c) for c in coeffs]:
            return root
    raise BadEmbedding(f"no {kind} embedding matches coefficients {list(coeffs)}")


def _outcome(embed, kind, coeffs, rs):
    try:
        return embed(kind, coeffs, rs)
    except ValueError as exc:
        return type(exc), str(exc)


_FACTORS = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "F4", "G2")


def _seeded_cases(rng: random.Random, count: int):
    """(kind, coeffs, root system) on supports of 1 to 7 vertices.  Half lay
    a pattern on its own diagram, through a random automorphism or in a
    random order, beside up to two other factors; half lay the expansion
    or random small entries on a random support.  Now and then the vector
    has the wrong length."""
    for _ in range(count):
        kind = rng.choice(PATTERN_KINDS)
        size = rng.randint(3 if kind in SIZED_KINDS else 1, 7)
        pat = pattern(kind, size)
        extra = rng.choices(_FACTORS, k=rng.randint(0, 2))
        if rng.random() < 0.5:
            home = _support_system(kind, size)
            cut = rng.randint(0, len(extra))
            before = RootSystem.parse("x".join(extra[:cut]))
            after = RootSystem.parse("x".join(extra[cut:]))
            rs = RootSystem(before.factors + home.factors + after.factors)
            m = home.coroot_matrix()
            if rng.random() < 0.7:
                phi = rng.choice(list(matrix_isomorphisms(m, m)))
            else:
                phi = rng.sample(range(home.total_rank), home.total_rank)
            placed = {before.total_rank + phi[p]: v for p, v in enumerate(pat.expansion)}
        else:
            rs = RootSystem.parse("x".join(extra + [rng.choice(_FACTORS)]))
            support = rng.sample(range(rs.total_rank), min(size, rs.total_rank))
            values = list(pat.expansion)
            if len(values) != len(support) or rng.random() < 0.3:
                values = [rng.choice((1, 1, 2, 3)) for _ in support]
            placed = dict(zip(support, values))
        coeffs = [placed.get(i, 0) for i in range(rs.total_rank)]
        roll = rng.random()
        if roll < 0.05:
            coeffs.append(0)
        elif roll < 0.1:
            coeffs.append(1)
        elif roll < 0.15:
            coeffs.pop()
        yield kind, tuple(coeffs), rs


def test_embed_from_coeffs_matches_the_permutation_scan():
    rng = random.Random(20261019)
    cases = []
    for spec in all_specs(8):
        sk = generate(spec)
        for other in (sk, permuted_copy(sk, rng)):
            cases += [(g.kind, g.coeffs, other.root_system) for g in other.sigma]
    cases += _seeded_cases(rng, 2000)
    found = 0
    for kind, coeffs, rs in cases:
        try:
            expected = _outcome(_embed_by_permutations, kind, coeffs, rs)
        except IndexError:  # the scan read past a fixed-size pattern's expansion
            expected = BadEmbedding, f"no {kind} embedding matches coefficients {list(coeffs)}"
        assert _outcome(embed_from_coeffs, kind, coeffs, rs) == expected, (kind, coeffs, rs)
        found += isinstance(expected, SphericalRoot)
    assert found > 2 * 867 + 600 and len(cases) - found > 1000


@pytest.mark.parametrize("kind", sorted(set(PATTERN_KINDS) - set(SIZED_KINDS)))
def test_support_larger_than_a_fixed_pattern_is_a_bad_embedding(kind, tmp_path, capsys):
    pat = pattern(kind)
    rs = RootSystem.parse("x".join(["A1"] * (pat.support_size + 1)))
    coeffs = pat.expansion + (1,)
    with pytest.raises(BadEmbedding, match="no .* embedding matches"):
        embed_from_coeffs(kind, coeffs, rs)
    doc = {
        "schema_version": 1,
        "root_system": [str(f) for f in rs.factors],
        "sigma": [{"pattern": kind, "coeffs": list(coeffs)}],
        "sp": [],
        "colors": [],
        "gamma": [],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["compute-p", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"violation: no {kind} embedding matches")


def test_a_chain_over_a1_factors_exits_2_within_a_cpu_second(tmp_path):
    # The support induces no A12 diagram.  A scan over the orderings of the
    # support tries all 12! of them before it gives up; the isomorphism
    # search finds no candidate for the first vertex.
    k = 12
    doc = {
        "schema_version": 1,
        "root_system": ["A1"] * k,
        "sigma": [{"pattern": A_CHAIN, "coeffs": [1] * k}],
        "sp": [],
        "colors": [],
        "gamma": [],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); from sphskel.cli import main; "
        "t = time.process_time(); code = main(['compute-p', sys.argv[2]]); "
        "print(code, time.process_time() - t)"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(src), str(path)],
        capture_output=True, text=True, timeout=60,
    )
    exit_code, cpu = done.stdout.split()
    assert exit_code == "2" and float(cpu) < 1.0
    assert done.stderr == (
        f"violation: no a_chain embedding matches coefficients {[1] * k}\n"
    )
