from __future__ import annotations

import gzip
import hashlib
import json
from collections import defaultdict
from fractions import Fraction as Q
from pathlib import Path

import pytest

from oracles import catalog_rows
from sphskel import catalog
from sphskel.catalog import (
    FamilySpec,
    ParameterOutOfRange,
    all_specs,
    equality_entries,
    expected_value,
    generate,
    mark,
    sigma_size,
    table_tasks,
    verify_catalog,
)
from sphskel.pinv import compute_p, compute_p_each
from sphskel.roots import SimpleType
from sphskel.serialize import equality_rows_to_json, table_rows_to_json
from sphskel.skeleton import (
    AROUND,
    HALF,
    PAIR_MINUS,
    PAIR_PLUS,
    GammaDivisor,
    is_complete,
    validate,
)

POOL = Path(__file__).parents[1] / "perfbench" / "data" / "query_pool.json.gz"


def test_spec_parsing():
    assert FamilySpec.parse("2:G2").series == SimpleType("G", 2)
    assert FamilySpec.parse("3:l=1,m=2") == FamilySpec("3", l=1, m=2)
    # l and m in either order, keys in either case, a lone 0, and
    # whitespace around the parts.
    for text in ("3:m=0,l=10", "3:L=10,M=0", " 3 : l = 10 , m = 0 "):
        assert FamilySpec.parse(text) == FamilySpec("3", l=10, m=0), text
    for fixed in ("29", "29:F4", " 29 : F4 ", "30:G2", "18:E6", "26:E8", "28:F4"):
        assert FamilySpec.parse(fixed) == FamilySpec(fixed.partition(":")[0].strip())
    with pytest.raises(ParameterOutOfRange):
        FamilySpec.parse("7")
    with pytest.raises(ParameterOutOfRange):
        FamilySpec.parse("2")


def test_every_catalog_and_pool_label_parses_back():
    # Every label the sweeps print, and every marking and document root
    # system of the benchmark's request pool, is in the strict grammar and
    # reads as int() reads it.
    specs = list(all_specs(24))
    for spec in specs:
        assert FamilySpec.parse(spec.label()) == spec, spec.label()
    with gzip.open(POOL, "rt", encoding="utf-8") as handle:
        pool = json.load(handle)
    known = set(specs)
    for label, _ in pool["markings"]:
        assert FamilySpec.parse(label) in known and FamilySpec.parse(label).label() == label
    types = {t for doc in pool["docs"] for t in doc["root_system"]}
    for text in types:
        assert SimpleType.parse(text) == SimpleType(text[0].upper(), int(text[1:])), text
    assert len(specs) > 1000 and len(pool["markings"]) == 867 and len(types) > 5


def test_group_embedding_structure():
    sk = generate(FamilySpec("2", series=SimpleType("A", 2)))
    assert str(sk.root_system) == "A2xA2"
    assert [g.coeffs for g in sk.sigma] == [(1, 0, 1, 0), (0, 1, 0, 1)]
    assert all(c.kind == AROUND and c.m == 2 for c in sk.colors)
    assert [c.pairings for c in sk.colors] == [(2, -1), (-1, 2)]
    assert [c.moved_by for c in sk.colors] == [(0, 2), (1, 3)]


def test_family3_worked_arrow_example():
    # l = 1, m = 1: the pair colors at the middle root both take -1 on the
    # adjacent orthogonal sum (the even split is forced).
    sk = generate(FamilySpec("3", l=1, m=1))
    pair_rows = [
        c.pairings for c in sk.colors if c.kind in (PAIR_PLUS, PAIR_MINUS)
    ]
    assert pair_rows == [(-1, 1), (-1, 1)]
    joined = [c for c in sk.colors if c.kind == AROUND]
    assert len(joined) == 1 and joined[0].moved_by == (0, 2)
    assert joined[0].m == 2


def test_family28_single_heavy_color():
    sk = generate(FamilySpec("28"))
    assert len(sk.colors) == 1
    color = sk.colors[0]
    assert color.kind == AROUND and color.m == 11 and color.pairings == (1,)


def test_family9_tail_color():
    sk = generate(FamilySpec("9", l=3, m=1))
    tail = [c for c in sk.colors if c.kind == AROUND]
    assert len(tail) == 1 and tail[0].m == 5  # 2l - 1
    halves = [c for c in sk.colors if c.kind == HALF]
    assert len(halves) == 1 and halves[0].m == 1


def test_generated_skeletons_validate_and_marked_complete():
    for spec in all_specs(max_rank=5):
        sk = generate(spec)
        assert validate(sk) == [], spec.label()
        for k in range(1, len(sk.sigma) + 1):
            assert is_complete(mark(spec, k)), (spec.label(), k)


def _expected_bound(spec):
    r"""|R+ \ R+_{S^p}| in closed form, from dim(G/H) - rank computations."""
    fam = spec.family
    if fam == "2":
        n = spec.series.rank
        letter = spec.series.letter
        if letter == "A":
            return n * n + n
        if letter in ("B", "C"):
            return 2 * n * n
        if letter == "D":
            return 2 * n * n - 2 * n
        return {"E6": 72, "E7": 126, "E8": 240, "F4": 48, "G2": 12}[f"{letter}{n}"]
    l, m = spec.l or 0, spec.m or 0
    closed = {
        "3": 2 * m * m + 2 * l * m + m + 2 * l - 1,
        "4": 2 * m * m + 3 * m + 1,
        "5": (m * m + m) // 2,
        "6": 2 * m * m + 2 * m,
        "8": 4 * l,
        "9": m * m + 2 * l * m + 2 * l - 1,
        "10/11": 4 * m * m + 4 * l * m + 3 * m + 4 * l - 1,
        "12": m * m + 2 * m + 1,
        "13": m * m + 2 * m + 1,
        "14": 4 * l + 2,
        "15": m * m + 2 * l * m + m + 2 * l,
        "16/1": 4 * m * m + 9 * m + 5,
        "16/2": 4 * m * m + 5 * m + 1,
        "17": 4 * m * m + 5 * m + 1,
    }
    fixed = {
        "18": 30, "19": 24, "20": 36, "21": 36, "22": 51, "23": 51,
        "24": 60, "25": 63, "26": 108, "27": 120, "28": 15, "29": 24, "30": 6,
    }
    return closed.get(fam, fixed.get(fam))


def test_bounds_match_dimension_counts():
    # The parabolic count of each family agrees with the closed-form
    # dim(G/H) - rank value of the corresponding symmetric space.
    for spec in all_specs(max_rank=6):
        rep = compute_p(mark(spec, 1))
        assert rep.bound == _expected_bound(spec), spec.label()


def test_mark_range_checked():
    spec = FamilySpec("30")
    with pytest.raises(ParameterOutOfRange):
        mark(spec, 3)
    with pytest.raises(ParameterOutOfRange):
        mark(spec, 0)


def test_parameter_ranges_enforced():
    for bad in (
        FamilySpec("3", l=0, m=1),
        FamilySpec("5", m=1),
        FamilySpec("9", l=1, m=0),
        FamilySpec("15", l=1, m=1),
        FamilySpec("10/11", l=1, m=0),
    ):
        with pytest.raises(ParameterOutOfRange):
            generate(bad)


def test_diagram_symmetry_pairs():
    # Values printed once for a symmetric pair agree computationally.
    for spec, pairs in [
        (FamilySpec("2", series=SimpleType("A", 5)), [(1, 5), (2, 4)]),
        (FamilySpec("2", series=SimpleType("D", 5)), [(4, 5)]),
        (FamilySpec("2", series=SimpleType("E", 6)), [(1, 6), (3, 5)]),
        (FamilySpec("5", m=4), [(1, 4), (2, 3)]),
        (FamilySpec("6", m=3), [(1, 3)]),
        (FamilySpec("21"), [(1, 6), (2, 3), (3, 5)]),
        (FamilySpec("19"), [(1, 2)]),
    ]:
        for a, b in pairs:
            pa = compute_p(mark(spec, a)).p_value
            pb = compute_p(mark(spec, b)).p_value
            assert pa == pb, (spec.label(), a, b)


def test_two_marking_strictness():
    # Doubly marked upper-bound families stay strictly below the bound.
    cases = [
        (FamilySpec("2", series=SimpleType("A", n)), (1, n)) for n in range(2, 7)
    ]
    cases += [(FamilySpec("5", m=m), (1, m)) for m in (2, 3, 4)]
    cases += [(FamilySpec("6", m=m), (1, m)) for m in (2, 3)]
    cases += [(FamilySpec("19"), (1, 2))]
    for spec, (k1, k2) in cases:
        sk = generate(spec)
        n = len(sk.sigma)
        gamma = tuple(
            GammaDivisor(f"mark{k}", tuple(-1 if j == k - 1 else 0 for j in range(n)))
            for k in (k1, k2)
        )
        doubled = sk._replace(gamma=gamma)
        rep = compute_p(doubled)
        assert rep.p_value < rep.bound, spec.label()


def test_expected_value_spot_checks():
    assert expected_value(FamilySpec("2", series=SimpleType("E", 6)), 1) == Q(37, 2)
    assert expected_value(FamilySpec("2", series=SimpleType("F", 4)), 2) == 10
    assert expected_value(FamilySpec("3", l=2, m=1), 2) is not None
    assert expected_value(FamilySpec("13", m=3), 2) == 2
    assert expected_value(FamilySpec("29"), 4) == Q(3, 2)


def test_verify_tables_small_budget():
    rows = verify_catalog(max_rank=4)
    assert rows and all(r.table_match for r in rows)


# Digest of the rank-4 table rows (with certificates) and equality rows as
# produced when each report ran its own sweep.
SWEEP_DIGEST_RANK_4 = "56e6aa5608bc062b6ca144782bf3837736ff4f776a5ffa5574c359d83f5d7326"


def test_verify_sweep_rows_unchanged():
    rows = verify_catalog(max_rank=4)
    doc = {
        "tables": table_rows_to_json(rows),
        "equality": equality_rows_to_json(rows),
    }
    text = json.dumps(doc, sort_keys=True).encode()
    assert len(rows) == 157
    assert hashlib.sha256(text).hexdigest() == SWEEP_DIGEST_RANK_4


# sha256 over repr((spec.label(), generate(spec))) of each spec of
# all_specs(16) in turn, recorded at 7ade945, when each family still stated
# its S^p and its roots by hand.
SKELETON_DIGEST_RANK_16 = "7ca69cb9c15ab53593481638cab7763bf1615160e6a833f3fc837e5e85b9197e"


def test_every_catalog_skeleton_unchanged():
    digest = hashlib.sha256()
    specs = list(all_specs(16))
    for spec in specs:
        digest.update(repr((spec.label(), generate(spec))).encode())
    assert len(specs) == 1031
    assert digest.hexdigest() == SKELETON_DIGEST_RANK_16


def test_verify_equality_small_budget():
    rows = verify_catalog(max_rank=4)
    assert rows and all(r.equality_match for r in rows)
    assert any(r.listed for r in rows)


def test_a_listed_row_matches_only_with_its_printed_vertex():
    row = verify_catalog(max_rank=1)[0]
    assert (row.family, row.params, row.marking) == ("2", "A1", 1)
    assert row.listed and row.is_equality and row.theta_ok and row.equality_match
    assert not row._replace(theta_ok=False).equality_match
    assert not row._replace(is_equality=False).equality_match
    assert not row._replace(listed=False).equality_match
    assert row._replace(listed=False, is_equality=False, theta_ok=False).equality_match
    assert not row._replace(expected=row.p_value + 1).table_match


@pytest.mark.parametrize("max_rank", [8, 12])
def test_the_sweep_equals_one_solve_per_marking(max_rank):
    assert verify_catalog(max_rank) == catalog_rows(max_rank)


@pytest.mark.parametrize(
    "max_rank, skeletons, markings",
    [pytest.param(8, 191, 675, id="8"), pytest.param(12, 363, 1657, id="12")],
)
def test_the_sweep_solves_each_distinct_skeleton_once(monkeypatch, max_rank, skeletons, markings):
    """One compute_p_each per distinct skeleton, carrying all its markings."""
    calls = []

    def counting(sk):
        calls.append(sk)
        return compute_p_each(sk)

    monkeypatch.setattr(catalog, "compute_p_each", counting)
    verify_catalog(max_rank)
    distinct = {generate(spec) for spec in all_specs(max_rank)}
    assert sum(len(sk.gamma) for sk in calls) == sum(len(sk.sigma) for sk in distinct) == markings
    assert {sk._replace(gamma=()) for sk in calls} == distinct
    assert len(calls) == len(distinct) == skeletons


def test_a_repeated_skeleton_gives_its_first_specs_rows():
    """Families 8 and 14 do not read the m that all_specs sweeps: each
    later m gives the rows of the first, but for its params text."""
    by_spec = defaultdict(list)
    for (spec, _), row in zip(table_tasks(8), verify_catalog(8)):
        by_spec[spec].append(row)
    first: dict = {}
    repeated = 0
    for spec, rows in by_spec.items():
        if spec.family not in ("8", "14"):
            continue
        key = (spec.family, spec.l)
        if key not in first:
            first[key] = rows
            continue
        assert rows[0].params == f"l={spec.l},m={spec.m}"
        assert [r._replace(params="") for r in rows] == [
            r._replace(params="") for r in first[key]
        ]
        repeated += len(rows)
    assert repeated == 192


def test_a_repeated_skeleton_keeps_its_own_listing(monkeypatch):
    """The listing and theta_ok are the spec's, not the first spec's: list
    a marking of two later specs of family 8, one with its optimal vertex
    and one with an infeasible vertex, and compare with the oracle."""
    own = FamilySpec("8", l=2, m=3)
    wrong = FamilySpec("8", l=2, m=5)
    vertex = compute_p(mark(own, 1)).theta
    listed = {own: {1: vertex}, wrong: {2: (-1, 0)}}
    original = catalog.equality_entries

    def entries(spec):
        return listed.get(spec) or original(spec)

    monkeypatch.setattr(catalog, "equality_entries", entries)
    rows = verify_catalog(8)
    assert rows == catalog_rows(8)
    marked = {(r.params, r.marking): r for r in rows if r.family == "8"}
    assert marked["l=2,m=0", 1].theta_ok and not marked["l=2,m=0", 1].listed
    assert marked["l=2,m=3", 1].listed and marked["l=2,m=3", 1].theta_ok
    assert marked["l=2,m=5", 2].listed and not marked["l=2,m=5", 2].theta_ok
    assert not marked["l=2,m=5", 2].equality_match


def test_equality_entries_match_sigma_sizes():
    for spec in all_specs(max_rank=5):
        for k, theta in equality_entries(spec).items():
            assert 1 <= k <= sigma_size(spec)
            assert len(theta) == sigma_size(spec)
