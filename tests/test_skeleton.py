from __future__ import annotations

import hashlib
import json

import pytest

from conftest import load_fixture, permuted_copy, random_skeleton
from sphskel import skeleton
from sphskel.catalog import FamilySpec, all_specs, generate, mark
from sphskel.pinv import compute_p
from sphskel.roots import RootSystem, SimpleType
from sphskel.serialize import augmented_from_doc, skeleton_from_doc, skeleton_to_doc
from sphskel.skeleton import (
    COLOR_KINDS,
    GammaDivisor,
    InvalidSkeleton,
    SubsetNotInDelta,
    elementary,
    equivalent,
    is_complete,
    isomorphic,
    localize,
    make_skeleton,
    normalize,
    product,
    reduced_elementary,
    sigma_table,
    validate,
)
from sphskel.sphroots import ALPHA, DOUBLE_ALPHA, SUM_OF_TWO, SphericalRoot, make_root


def worked_example():
    return skeleton_from_doc(load_fixture("ex35.json"))


def test_worked_example_validates():
    assert validate(worked_example()) == []


def test_a1_violation_detected():
    sk = worked_example()
    bad = sk._replace(colors=(sk.colors[0]._replace(pairings=(2,)),) + sk.colors[1:])
    assert any("A1" in v for v in validate(bad))


def test_gamma_sign_violation_detected():
    sk = worked_example()
    bad = sk._replace(gamma=(GammaDivisor("D3", (1,)),))
    assert any("positive pairing" in v for v in validate(bad))


def test_a2_violation_detected():
    sk = worked_example()
    bad = sk._replace(colors=sk.colors[:1])
    assert any("A2" in v for v in validate(bad))


def _bare(system: str, sigma, colors=()) -> skeleton.SphericalSkeleton:
    """A skeleton with the given colors and no Gamma, built without checks."""
    rs = RootSystem.parse(system)
    roots = tuple(make_root(kind, emb, rs) for kind, emb in sigma)
    return skeleton.SphericalSkeleton(rs, roots, frozenset(), tuple(colors), ())


def test_violations_number_simple_roots_from_one():
    # As the documents' sp and moved_by do; sigma[j] stays a list index.
    around = skeleton.Color("D1", skeleton.AROUND, (0,), (2,), 1)
    cases = [
        (_bare("A1", []), "full colors: simple root 1 needs one around color"),
        (_bare("A1", [(ALPHA, (0,))]), "axiom A2: 0 pair colors at simple root 1"),
        (_bare("A1", [(ALPHA, (0,))], [around]), "D1: around color moved by [1]"),
        (
            _bare("A2", [(DOUBLE_ALPHA, (0,)), (ALPHA, (1,))]),
            "axiom Sigma1: <alpha_1^vee, sigma[1]> = -1 is odd",
        ),
        (
            _bare("A4", [(SUM_OF_TWO, (0, 2)), (ALPHA, (3,))]),
            "axiom Sigma2: alpha^vee differs across 1+3",
        ),
    ]
    for sk, message in cases:
        assert message in validate(sk)


def test_compatibility_violation_detected():
    rs = RootSystem.parse("A2")
    sk = make_skeleton(rs, [make_root(ALPHA, (0,), rs)], (1,))
    assert any("axiom S" in v for v in validate(sk))


def test_out_of_range_indices_reported_not_raised():
    sk = generate(FamilySpec.parse("2:A2"))
    assert "S^p contains an unknown simple root index" in validate(
        sk._replace(sp=frozenset({9}))
    )
    colors = (sk.colors[0]._replace(moved_by=(9,)),) + sk.colors[1:]
    problems = validate(sk._replace(colors=colors))
    assert f"{sk.colors[0].id}: moved by an unknown simple root index" in problems


def test_is_complete_on_worked_example():
    assert is_complete(worked_example())


def test_incomplete_without_negative_rows():
    sk = worked_example()._replace(gamma=())
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
    two = two._replace(gamma=gamma)
    el = elementary(two)
    assert [d.pairings for d in el.gamma] == [(-1, 0), (-1, 0), (0, -1)]
    vel = reduced_elementary(two)
    assert [d.pairings for d in vel.gamma] == [(-1, 0), (0, -1)]
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
    mark_first = sk._replace(
        gamma=(GammaDivisor("g", tuple(-1 if j == 0 else 0 for j in range(n))),)
    )
    mark_last = sk._replace(
        gamma=(GammaDivisor("g", tuple(-1 if j == n - 1 else 0 for j in range(n))),)
    )
    mark_mid = sk._replace(
        gamma=(GammaDivisor("g", tuple(-1 if j == 1 else 0 for j in range(n))),)
    )
    assert isomorphic(mark_first, mark_last)  # diagram flip
    assert not isomorphic(mark_first, mark_mid)


def test_equivalent_but_not_isomorphic():
    sk = worked_example()
    trimmed = normalize(sk)
    assert not isomorphic(sk, trimmed)  # gamma sizes differ
    assert equivalent(sk, trimmed)


def test_isomorphic_across_factor_order():
    # a x b against b x a: phi swaps the factors and tau the sigma blocks,
    # so every pairing row must be carried to b's sigma order.
    a = generate(FamilySpec("3", l=1, m=1))._replace(gamma=(GammaDivisor("g", (-1, 0)),))
    b = generate(FamilySpec("5", m=2))._replace(gamma=(GammaDivisor("h", (0, -1)),))
    ab, ba = product(a, b), product(b, a)
    assert str(ab.root_system) == "A3xA2" and str(ba.root_system) == "A2xA3"
    assert isomorphic(ab, ba) and isomorphic(ba, ab)
    # g moved from a's first spherical root to its second.
    moved = ba._replace(gamma=(ba.gamma[0], GammaDivisor("g", (0, 0, 0, -1))))
    assert not isomorphic(ab, moved)


def test_isomorphic_does_not_tell_pair_kinds_apart():
    # The pair colors at alpha_1 have rows (1, 0) and (1, -1); swapping
    # their kinds changes no divisor class.
    rs = RootSystem.parse("A2")
    sk = make_skeleton(rs, [make_root(ALPHA, (0,), rs), make_root(ALPHA, (1,), rs)], ())
    plus, minus = sk.colors[:2]
    assert plus.pairings != minus.pairings
    swapped = sk._replace(
        colors=(
            plus._replace(kind=skeleton.PAIR_MINUS),
            minus._replace(kind=skeleton.PAIR_PLUS),
            *sk.colors[2:],
        )
    )
    assert isomorphic(sk, swapped) and isomorphic(swapped, sk)


def test_reversed_color_row_passes_the_signature_but_is_not_isomorphic():
    sk = generate(FamilySpec("29"))
    d3 = sk.colors[2]
    assert d3.pairings == (0, -2, 2, -1)
    reversed_row = sk._replace(
        colors=(*sk.colors[:2], d3._replace(pairings=d3.pairings[::-1]), sk.colors[3])
    )
    assert skeleton._signature(sk) == skeleton._signature(reversed_row)
    assert not isomorphic(sk, reversed_row)


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


def _uncached_validate(sk):
    """``validate`` rebuilt from the uncached structural checker."""
    head, tail = skeleton._structure_violations.__wrapped__(
        sk.root_system, sk.sigma, sk.sp, sk.colors
    )
    ids = [d.id for d in sk.divisors]
    unique = [] if len(set(ids)) == len(ids) else ["divisor ids are not unique"]
    rows = []
    for d in sk.gamma:
        if len(d.pairings) != len(sk.sigma):
            rows.append(f"{d.id}: pairing row has wrong length")
        elif any(v > 0 for v in d.pairings):
            rows.append(f"{d.id}: invariant divisor with positive pairing")
    return [*head, *unique, *tail, *rows]


def _mutate(sk, rng):
    """One random structural or Gamma edit of a skeleton."""
    n = sk.root_system.total_rank
    what = rng.randrange(8)
    if what == 0 and sk.colors:
        i = rng.randrange(len(sk.colors))
        c = sk.colors[i]
        edits = [
            {"pairings": tuple(v + rng.choice((-1, 1, 2)) for v in c.pairings)},
            {"pairings": c.pairings[1:] if rng.random() < 0.5 else c.pairings + (0,)},
            {"m": c.m + rng.choice((-1, 1))},
            {"kind": rng.choice(COLOR_KINDS + ("bogus",))},
            {"moved_by": rng.choice(((), (rng.randrange(-1, n + 2),)))},
        ]
        colors = list(sk.colors)
        colors[i] = c._replace(**rng.choice(edits))
        return sk._replace(colors=tuple(colors))
    if what == 1 and sk.colors:
        colors = list(sk.colors)
        i = rng.randrange(len(colors))
        if rng.random() < 0.5:
            del colors[i]
        else:
            colors.insert(i, colors[i])
        return sk._replace(colors=tuple(colors))
    if what == 2:
        return sk._replace(sp=sk.sp ^ {rng.randrange(n + 2)})
    if what == 3 and sk.sigma:
        sigma = list(sk.sigma)
        i = rng.randrange(len(sigma))
        if rng.random() < 0.5:
            del sigma[i]
        else:
            sigma.insert(i, sigma[i])
        return sk._replace(sigma=tuple(sigma))
    if what == 4 and sk.gamma and sk.colors:
        gamma = list(sk.gamma)
        i = rng.randrange(len(gamma))
        gamma[i] = gamma[i]._replace(id=rng.choice(sk.divisors).id)
        return sk._replace(gamma=tuple(gamma))
    if what == 5:
        nsigma = len(sk.sigma) + rng.choice((-1, 0, 0, 1))
        row = tuple(rng.choice((-2, -1, 0, 1)) for _ in range(max(nsigma, 0)))
        return sk._replace(gamma=sk.gamma + (GammaDivisor(f"x{rng.randrange(9)}", row),))
    if what == 6 and sk.gamma:
        return sk._replace(gamma=sk.gamma[1:])
    return sk


def _fixture_skeletons():
    return [
        worked_example(),
        augmented_from_doc(load_fixture("ex32_fano.json")).skeleton,
        augmented_from_doc(load_fixture("ex61_fano.json")).skeleton,
    ]


def test_validate_equals_uncached_checks(rng):
    samples = [random_skeleton(rng) for _ in range(40)]
    for base in _fixture_skeletons() + samples[:20]:
        for _ in range(15):
            sk = base
            for _ in range(rng.randint(1, 3)):
                sk = _mutate(sk, rng)
            samples.append(sk)
    # Twice each, in shuffled order: the second pass reads the memo.
    order = samples + rng.sample(samples, len(samples))
    for sk in order:
        assert validate(sk) == _uncached_validate(sk)
    assert sum(1 for sk in samples if validate(sk)) > len(samples) // 3


def test_equal_skeletons_built_apart_get_equal_lists():
    spec = FamilySpec.parse("3:l=2,m=1")
    marked = mark(spec, 2)
    bad = marked._replace(colors=(marked.colors[0]._replace(m=3),) + marked.colors[1:])
    for sk in (marked, bad):
        doc = skeleton_to_doc(sk)
        again = skeleton_from_doc(doc)
        assert again == sk and again.colors is not sk.colors
        assert validate(again) == validate(sk) == _uncached_validate(sk)
    assert validate(bad)


def test_validate_returns_a_new_list():
    sk = worked_example()
    bad = sk._replace(colors=(sk.colors[0]._replace(pairings=(2,)),) + sk.colors[1:])
    first = validate(bad)
    expected = list(first)
    first.append("edited by the caller")
    first[0] = "overwritten"
    assert validate(bad) == expected
    clean = validate(sk)
    clean.append("edited by the caller")
    assert validate(sk) == []


def test_violation_order_with_duplicate_ids_and_bad_color():
    sk = worked_example()
    bad = sk._replace(
        sp=frozenset({5}),
        colors=(sk.colors[0]._replace(pairings=(2,)),) + sk.colors[1:],
        gamma=(GammaDivisor("D1", (1,)),) + sk.gamma[1:],
    )
    assert validate(bad) == [
        "S^p contains an unknown simple root index",
        "divisor ids are not unique",
        "axiom A1: <rho(D1), sigma[0]> = 2 > 1",
        "axiom A2: pair rows at 1 do not sum to alpha^vee",
        "D1: invariant divisor with positive pairing",
    ]


def _root_locator(n, sigma):
    """Oracle: the index in sigma of mult * alpha_alpha, looked up per call."""
    index = {g.coeffs: j for j, g in enumerate(sigma)}

    def root_at(alpha, mult):
        return index.get(tuple(mult if j == alpha else 0 for j in range(n)))

    return root_at


def _coroot_row(rs, alpha, sigma):
    """Oracle: one coroot row, one pairing at a time."""
    return tuple(int(rs.coroot_pairing(alpha, g.coeffs)) for g in sigma)


def _oracle_table(rs, sigma):
    n = rs.total_rank
    root_at = _root_locator(n, sigma)
    rows = tuple(_coroot_row(rs, a, sigma) for a in range(n))
    simple = {a: root_at(a, 1) for a in range(n) if root_at(a, 1) is not None}
    doubled = {a: root_at(a, 2) for a in range(n) if root_at(a, 2) is not None}
    return rows, simple, doubled


def test_sigma_table_matches_the_oracle_on_catalog_and_seeded_skeletons(rng):
    bases = [generate(spec) for spec in all_specs(8)]
    seeded = [random_skeleton(rng) for _ in range(60)]
    seeded += [permuted_copy(sk, rng) for sk in seeded]
    assert any(len(sk.root_system.factors) > 1 for sk in seeded)
    for sk in bases + seeded:
        assert sigma_table(sk.root_system, sk.sigma) == _oracle_table(
            sk.root_system, sk.sigma
        )


def test_sigma_table_keeps_the_last_index_of_a_repeated_root():
    rs = RootSystem.parse("B3")
    a1, a2, d3 = (
        make_root(ALPHA, (0,), rs),
        make_root(ALPHA, (1,), rs),
        make_root(DOUBLE_ALPHA, (2,), rs),
    )
    sigma = (a1, d3, a2, a1, d3)
    rows, simple, doubled = sigma_table(rs, sigma)
    assert simple == {0: 3, 1: 2} and doubled == {2: 4}
    assert (rows, simple, doubled) == _oracle_table(rs, sigma)


def test_sigma_table_on_short_and_over_long_vectors():
    rs = RootSystem.parse("A3")
    cases = [
        ((1,), (1, 0, 0)),
        ((0, 2), (0, 2, 0)),
        ((1, 0, 0, 0), (1, 0, 0)),
        ((0, 0, 2, 5), (0, 0, 2)),
        ((1, 1, 0, 0, 7), (1, 1, 0)),
    ]
    for coeffs, within in cases:
        odd = SphericalRoot(ALPHA, (0,), coeffs)
        plain = SphericalRoot(ALPHA, (0,), within)
        rows, simple, doubled = sigma_table(rs, (odd,))
        # Entries past the rank are not read, and missing ones count as 0;
        # only vectors over all n simple roots name a simple root.
        assert rows == sigma_table(rs, (plain,))[0]
        assert simple == doubled == {}
        assert (rows, simple, doubled) == _oracle_table(rs, (odd,))


def test_odd_pairing_goes_to_the_minus_color():
    rs = RootSystem.parse("A2")
    sk = make_skeleton(rs, [make_root(ALPHA, (0,), rs), make_root(ALPHA, (1,), rs)], ())
    assert [(c.kind, c.moved_by, c.pairings) for c in sk.colors] == [
        (skeleton.PAIR_PLUS, (0,), (1, 0)),
        (skeleton.PAIR_MINUS, (0,), (1, -1)),
        (skeleton.PAIR_PLUS, (1,), (0, 1)),
        (skeleton.PAIR_MINUS, (1,), (-1, 1)),
    ]
    assert validate(sk) == []


# Digest of generate(spec).colors for every catalog spec up to rank 8, as
# reconstructed before the Sigma table: 287 specs, 1,008 colors.
COLORS_DIGEST_RANK_8 = "22d7f9c5fc6c0abe156473aaa8ba666fd2799a77a499f755aad7f2d3e2f7c2c5"


def test_reconstructed_colors_unchanged():
    doc = [[str(spec), [list(c) for c in generate(spec).colors]] for spec in all_specs(8)]
    assert (len(doc), sum(len(colors) for _, colors in doc)) == (287, 1008)
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == COLORS_DIGEST_RANK_8


def test_over_long_sigma_vectors_give_violations_not_index_errors():
    a2, a3 = RootSystem.parse("A2"), RootSystem.parse("A3")
    shapes = [
        make_skeleton(a2, [make_root(DOUBLE_ALPHA, (0,), a2)], ())._replace(
            sigma=(SphericalRoot(DOUBLE_ALPHA, (0,), (2, 0, 1)),)
        ),
        make_skeleton(a3, [make_root(DOUBLE_ALPHA, (0,), a3)], (2,))._replace(
            sigma=(SphericalRoot(DOUBLE_ALPHA, (0,), (2, 0, 0, 1)),)
        ),
        make_skeleton(a2, [make_root(ALPHA, (0,), a2)], ())._replace(
            sigma=(SphericalRoot(ALPHA, (0,), (1, 0, 1)),), colors=()
        ),
    ]
    for sk in shapes:
        problems = validate(sk)
        assert problems[0] == "sigma[0]: stored expansion differs from its pattern"
        with pytest.raises(InvalidSkeleton) as info:
            compute_p(sk)
        assert info.value.violations == problems
    assert validate(shapes[0]) == [
        "sigma[0]: stored expansion differs from its pattern",
        "D1: half color must be moved by one doubled root",
        "full colors: simple root 1 needs one around color",
    ]


def test_ragged_sigma_vectors_give_violations_and_no_false_dependence():
    a2 = RootSystem.parse("A2")
    base = make_skeleton(a2, [make_root(ALPHA, (0,), a2), make_root(ALPHA, (1,), a2)], ())
    long_first = (SphericalRoot(ALPHA, (1,), (0, 0, 1)), SphericalRoot(ALPHA, (0,), (1, 0)))
    short_first = (SphericalRoot(ALPHA, (0,), (1,)), make_root(ALPHA, (1,), a2))
    for sigma in (long_first, short_first):
        sk = base._replace(sigma=sigma)
        problems = validate(sk)
        assert problems[0] == "sigma[0]: stored expansion differs from its pattern"
        assert "sigma is linearly dependent" not in problems
        with pytest.raises(InvalidSkeleton) as info:
            compute_p(sk)
        assert info.value.violations == problems
    # Padded with zeros, a repeated vector is still dependent.
    dependent = (SphericalRoot(ALPHA, (0,), (1,)), SphericalRoot(ALPHA, (0,), (1, 0)))
    assert "sigma is linearly dependent" in validate(base._replace(sigma=dependent))


def test_sigma1_messages_follow_the_simple_roots():
    # Two doubled roots past the eighth simple root: in simple-root order.
    sigma = [(DOUBLE_ALPHA, (9,)), (DOUBLE_ALPHA, (3,)), (ALPHA, (2,)), (ALPHA, (8,))]
    assert [v for v in validate(_bare("A4xA6", sigma)) if "Sigma1" in v] == [
        "axiom Sigma1: <alpha_4^vee, sigma[2]> = -1 is odd",
        "axiom Sigma1: <alpha_10^vee, sigma[3]> = -1 is odd",
    ]
