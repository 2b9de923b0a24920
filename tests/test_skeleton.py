from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import load_fixture, permuted_copy, random_skeleton
from sphskel.catalog import FamilySpec, generate
from sphskel.roots import RootSystem, SimpleType
from sphskel.serialize import skeleton_from_doc
from sphskel.skeleton import (
    GammaDivisor,
    SubsetNotInDelta,
    elementary,
    equivalent,
    is_complete,
    isomorphic,
    localize,
    make_skeleton,
    marked_roots,
    normalize,
    product,
    reduced_elementary,
    validate,
)
from sphskel.sphroots import ALPHA, make_root


def worked_example():
    return skeleton_from_doc(load_fixture("ex35.json"))


def test_worked_example_validates():
    assert validate(worked_example()) == []


def test_a1_violation_detected():
    sk = worked_example()
    bad = replace(sk, colors=(replace(sk.colors[0], pairings=(2,)),) + sk.colors[1:])
    assert any("A1" in v for v in validate(bad))


def test_gamma_sign_violation_detected():
    sk = worked_example()
    bad = replace(sk, gamma=(GammaDivisor("D3", (1,)),))
    assert any("positive pairing" in v for v in validate(bad))


def test_a2_violation_detected():
    sk = worked_example()
    bad = replace(sk, colors=sk.colors[:1])
    assert any("A2" in v for v in validate(bad))


def test_compatibility_violation_detected():
    rs = RootSystem.parse("A2")
    sk = make_skeleton(rs, [make_root(ALPHA, (0,), rs)], (1,))
    assert any("axiom S" in v for v in validate(sk))


def test_out_of_range_indices_reported_not_raised():
    sk = generate(FamilySpec.parse("2:A2"))
    assert "S^p contains an unknown simple root index" in validate(
        replace(sk, sp=frozenset({9}))
    )
    colors = (replace(sk.colors[0], moved_by=(9,)),) + sk.colors[1:]
    problems = validate(replace(sk, colors=colors))
    assert f"{sk.colors[0].id}: moved by an unknown simple root index" in problems


def test_is_complete_on_worked_example():
    assert is_complete(worked_example())


def test_incomplete_without_negative_rows():
    sk = replace(worked_example(), gamma=())
    assert not is_complete(sk)


def test_empty_sigma_is_complete():
    rs = RootSystem(())
    sk = make_skeleton(rs, [], ())
    assert validate(sk) == []
    assert is_complete(sk)


def test_product_identity_and_data():
    sk = worked_example()
    empty = make_skeleton(RootSystem(()), [], ())
    prod = product(sk, empty)
    assert len(prod.sigma) == len(sk.sigma)
    assert [d.pairings for d in prod.divisors] == [d.pairings for d in sk.divisors]

    two = product(sk, sk)
    assert validate(two) == []
    assert len(two.sigma) == 2
    # cross pairings vanish
    for c in two.colors[:2]:
        assert c.pairings[1] == 0


def test_normalize_drops_zero_rows_only():
    sk = worked_example()
    assert [d.id for d in normalize(sk).gamma] == ["D4"]
    assert normalize(normalize(sk)) == normalize(sk)


def test_elementary_counts():
    sk = worked_example()
    two = product(sk, sk)
    gamma = (GammaDivisor("g", (-2, -1)),)
    two = replace(two, gamma=gamma)
    el = elementary(two)
    assert [d.pairings for d in el.gamma] == [(-1, 0), (-1, 0), (0, -1)]
    vel = reduced_elementary(two)
    assert [d.pairings for d in vel.gamma] == [(-1, 0), (0, -1)]
    assert marked_roots(two) == {0, 1}
    assert validate(el) == [] and validate(vel) == []


def test_elementary_fixed_point():
    sk = reduced_elementary(worked_example())
    rows = [d.pairings for d in sk.gamma]
    assert [d.pairings for d in reduced_elementary(sk).gamma] == rows
    assert [d.pairings for d in elementary(sk).gamma] == rows


def test_localize_full_set_is_identity_up_to_relabel():
    sk = worked_example()
    loc = localize(sk, [d.id for d in sk.divisors])
    assert validate(loc) == []
    assert len(loc.sigma) == len(sk.sigma)
    assert sorted(d.id for d in loc.gamma) == ["D3", "D4"]
    assert equivalent(normalize(loc), normalize(sk))


def test_localize_worked_example_subset():
    sk = worked_example()
    loc = localize(sk, ["D1", "D2", "D4"])
    assert str(loc.root_system) == "A1"
    assert [g.coeffs for g in loc.sigma] == [(1,)]
    assert [d.id for d in loc.gamma] == ["D4"]


def test_localize_dropping_one_pair_color_kills_the_root():
    sk = worked_example()
    loc = localize(sk, ["D1", "D4"])
    assert loc.sigma == ()
    # D1 survives as an invariant divisor with empty image.
    assert sorted(d.id for d in loc.gamma) == ["D1", "D4"]


def test_localize_unknown_id():
    with pytest.raises(SubsetNotInDelta):
        localize(worked_example(), ["nope"])


def test_localize_orphaned_around_color():
    sk = generate(FamilySpec("2", series=SimpleType("A", 2)))
    ids = [sk.colors[0].id]
    loc = localize(sk, ids)
    assert str(loc.root_system) == "A1xA1"
    assert len(loc.sigma) == 1 and len(loc.colors) == 1
    assert validate(loc) == []


def test_isomorphic_identity_and_flip():
    sk = generate(FamilySpec("2", series=SimpleType("A", 3)))
    assert isomorphic(sk, sk)
    n = 3
    mark_first = replace(
        sk, gamma=(GammaDivisor("g", tuple(-1 if j == 0 else 0 for j in range(n))),)
    )
    mark_last = replace(
        sk, gamma=(GammaDivisor("g", tuple(-1 if j == n - 1 else 0 for j in range(n))),)
    )
    mark_mid = replace(
        sk, gamma=(GammaDivisor("g", tuple(-1 if j == 1 else 0 for j in range(n))),)
    )
    assert isomorphic(mark_first, mark_last)  # diagram flip
    assert not isomorphic(mark_first, mark_mid)


def test_equivalent_but_not_isomorphic():
    sk = worked_example()
    trimmed = normalize(sk)
    assert not isomorphic(sk, trimmed)  # gamma sizes differ
    assert equivalent(sk, trimmed)


def test_equivalence_relation_on_samples(rng):
    samples = [random_skeleton(rng) for _ in range(6)]
    for a in samples:
        assert equivalent(a, a)
    for a in samples:
        for b in samples:
            assert equivalent(a, b) == equivalent(b, a)
    # transitivity through permuted copies
    for a in samples:
        b = permuted_copy(a, rng)
        c = permuted_copy(b, rng)
        assert equivalent(a, b) and equivalent(b, c) and equivalent(a, c)


def test_random_skeletons_validate(rng):
    for _ in range(50):
        sk = random_skeleton(rng)
        assert validate(sk) == []


def test_localize_random_subsets_validate(rng):
    from sphskel.catalog import FamilySpec, mark
    from sphskel.roots import SimpleType

    pool = [
        mark(FamilySpec("3", l=2, m=1), 2),
        mark(FamilySpec("9", l=2, m=2), 1),
        mark(FamilySpec("16/2", m=1), 2),
        mark(FamilySpec("2", series=SimpleType("D", 4)), 3),
        mark(FamilySpec("24"), 3),
    ]
    for sk in pool:
        ids = [d.id for d in sk.divisors]
        for _ in range(4):
            subset = [i for i in ids if rng.random() < 0.6]
            assert validate(localize(sk, subset)) == []
