"""Acceptance suite: one test and one printed pass line per criterion."""

from __future__ import annotations

import random
import time
from fractions import Fraction as Q

from conftest import load_fixture, permuted_copy, random_skeleton
from sphskel import fano, lp
from sphskel.catalog import (
    FamilySpec,
    all_specs,
    expected_value,
    mark,
    sigma_size,
    verify_catalog,
)
from sphskel.pinv import compute_p
from sphskel.roots import RootSystem, SimpleType, cartan_matrix
from sphskel.serialize import augmented_from_doc
from sphskel.skeleton import (
    GammaDivisor,
    elementary,
    equivalent,
    product,
    reduced_elementary,
)
from test_fano import toric_projective_space
from test_lp import brute_force_lp


def _sweep(predicate, max_rank=8):
    checked = 0
    for spec in all_specs(max_rank):
        if not predicate(spec):
            continue
        for k in range(1, sigma_size(spec) + 1):
            report = compute_p(mark(spec, k))
            expected = expected_value(spec, k)
            assert report.p_value == expected, (spec.label(), k)
            checked += 1
    return checked


def test_criterion_1_classical_group_embeddings():
    start = time.monotonic()
    n = _sweep(
        lambda s: s.family == "2" and s.series.letter in "ABCD", max_rank=8
    )
    elapsed = time.monotonic() - start
    assert n > 0 and elapsed < 30
    print(f"\nACCEPTANCE 1: PASS - classical group embeddings exact ({n} rows, {elapsed:.1f}s)")


def test_criterion_2_exceptional_group_embeddings():
    start = time.monotonic()
    n = _sweep(
        lambda s: s.family == "2" and s.series.letter in "EFG", max_rank=8
    )
    # the fractional entries are hit exactly
    assert compute_p(mark(FamilySpec("2", series=SimpleType("E", 6)), 1)).p_value == Q(37, 2)
    elapsed = time.monotonic() - start
    assert n == 21 + 4 + 2 and elapsed < 60
    print(f"\nACCEPTANCE 2: PASS - exceptional group embeddings exact ({n} rows, {elapsed:.1f}s)")


def test_criterion_3_symmetric_subgroup_tables():
    start = time.monotonic()
    n = _sweep(lambda s: s.family != "2", max_rank=8)
    assert compute_p(mark(FamilySpec("29"), 4)).p_value == Q(3, 2)
    assert compute_p(mark(FamilySpec("30"), 1)).p_value == 0
    elapsed = time.monotonic() - start
    assert n > 0 and elapsed < 120
    print(f"\nACCEPTANCE 3: PASS - symmetric subgroup tables exact ({n} rows, {elapsed:.1f}s)")


def test_criterion_4_equality_suite():
    rows = verify_catalog(max_rank=8)
    bad = [r for r in rows if not r.equality_match]
    assert bad == []
    listed = [r for r in rows if r.listed]
    assert listed and all(r.is_equality and r.theta_ok for r in listed)
    strict = [r for r in rows if not r.listed]
    assert all(not r.is_equality for r in strict)
    print(
        f"\nACCEPTANCE 4: PASS - {len(listed)} listed equalities attained "
        f"(printed vertices verified), {len(strict)} other markings strict"
    )


def test_criterion_5_closed_form_dual_certificates():
    checked = 0
    for n in range(1, 9):
        cart = cartan_matrix(RootSystem.parse(f"A{n}"))
        for k in range(1, (n + 1) // 2 + 1):
            a = [[Q(-v, 2) for v in row] for row in cart]
            a.append([Q(1) if j == k - 1 else Q(0) for j in range(n)])
            b = [Q(1)] * (n + 1)
            c = [Q(0)] * n
            c[0] += 1
            c[k - 1] -= 1
            c[n - 1] += 1
            problem = lp.LpProblem.build(c, a, b)
            res = lp.solve(problem)
            y = [Q(2 * (i - 1)) if i < k else Q(2 * (n - i)) for i in range(1, n + 1)]
            y.append(Q(n - 2 * (k - 1)))
            expected = Q(n * n - 2 * k * n + 2 * n + 2 * k * k - 6 * k + 4)
            assert res.status == lp.OPTIMAL and res.value == expected
            assert sum(y) == expected
            assert lp.check_certificate(
                problem, lp.LpResult(lp.OPTIMAL, expected, res.x, tuple(y))
            )
            # the marked skeleton value adds the anticanonical offset n
            spec = FamilySpec("2", series=SimpleType("A", n))
            assert compute_p(mark(spec, k)).p_value == expected + n
            checked += 1
    print(f"\nACCEPTANCE 5: PASS - closed-form dual certificates verified ({checked} cases)")


def test_criterion_6_worked_example_suite():
    aug = augmented_from_doc(load_fixture("ex32_fano.json"))
    violations, warnings = fano.validate_augmentation(aug)
    assert violations == [] and warnings == []
    assert fano.validate_reflexive(aug) == []
    fp = fano.build_fano(aug)
    supported = {fp.qstar.vertices[i] for i in fp.supported}
    assert supported == {(Q(2), Q(1)), (Q(-1), Q(1))}
    curves = fano.curve_degrees(fp)
    assert sorted(d for _, _, d in curves.dv_curves) == [2, 2, 3]
    assert [d for _, _, _, d in curves.edge_curves] == [3]
    assert curves.iota == 2 and curves.picard == 2
    mukai = fano.mukai_check(fp)
    assert mukai.mukai_lhs == 2 and mukai.dim == 3 and mukai.holds
    assert mukai.p_skeleton == 1 == mukai.p_polytope
    assert mukai.dim - aug.lattice_rank == 1

    aug61 = augmented_from_doc(load_fixture("ex61_fano.json"))
    assert fano.validate_reflexive(aug61) == []
    fp61 = fano.build_fano(aug61)
    supported61 = {fp61.qstar.vertices[i] for i in fp61.supported}
    assert supported61 == {(Q(1), Q(0)), (Q(0), Q(1))}
    print("\nACCEPTANCE 6: PASS - worked example suite end-to-end")


def test_criterion_7_property_suites():
    rng = random.Random(73)
    # (a) nonnegativity and (b) the reduction chain on 500 skeletons.
    chain_checked = 0
    skeletons = [random_skeleton(rng) for _ in range(500)]
    for sk in skeletons:
        values = [
            compute_p(s).p_value
            for s in (sk, elementary(sk), reduced_elementary(sk))
        ]
        for v in values:
            assert v is None or v >= 0
        filled = [v if v is not None else Q(10**12) for v in values]
        assert filled[0] <= filled[1] <= filled[2]
        chain_checked += 1
    assert chain_checked == 500

    # (c) marking monotonicity on 200 reduced-elementary pairs.
    for _ in range(200):
        base = random_skeleton(rng)
        nsigma = len(base.sigma)
        if nsigma == 0:
            continue
        small = {j for j in range(nsigma) if rng.random() < 0.4}
        big = small | {j for j in range(nsigma) if rng.random() < 0.4}

        def marked(subset):
            gamma = tuple(
                GammaDivisor(
                    f"g{j}", tuple(-1 if t == j else 0 for t in range(nsigma))
                )
                for j in sorted(subset)
            )
            return base._replace(gamma=gamma)

        p_small = compute_p(marked(small)).p_value
        p_big = compute_p(marked(big)).p_value
        if p_small is not None:
            assert p_big is not None and p_big <= p_small

    # (d) additivity under product on 100 pairs.
    for _ in range(100):
        a, b = random_skeleton(rng), random_skeleton(rng)
        pa = compute_p(a).p_value
        pb = compute_p(b).p_value
        pab = compute_p(product(a, b)).p_value
        if pa is not None and pb is not None:
            assert pab == pa + pb
        else:
            assert pab is None

    # (e) strong duality and oracle equivalence on 300 LPs of dimension <= 4.
    for _ in range(300):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 6)
        a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        b = [rng.randrange(-2, 6) for _ in range(m)]
        c = [rng.randrange(-4, 5) for _ in range(n)]
        problem = lp.LpProblem.build(c, a, b)
        res = lp.solve(problem)
        oracle = brute_force_lp(c, a, b)
        assert res.status == oracle[0]
        if res.status == lp.OPTIMAL:
            assert res.value == oracle[1]
            assert lp.check_certificate(problem, res)

    # (f) invariance under zero rows and diagram relabelings on 100 pairs.
    for _ in range(100):
        sk = random_skeleton(rng)
        other = permuted_copy(sk, rng)
        padded = other._replace(
            gamma=other.gamma
            + (GammaDivisor("zero", (0,) * len(sk.sigma)),),
        )
        assert equivalent(sk, padded)
        assert (
            compute_p(sk).p_value
            == compute_p(padded).p_value
        )
    print("\nACCEPTANCE 7: PASS - property suites (a)-(f)")


def test_criterion_8_fano_bounds():
    instances = [
        augmented_from_doc(load_fixture("ex32_fano.json")),
        augmented_from_doc(load_fixture("ex61_fano.json")),
        toric_projective_space(1),
        toric_projective_space(2),
        toric_projective_space(3),
    ]
    for aug in instances:
        fp = fano.build_fano(aug)
        curves = fano.curve_degrees(fp)
        assert curves.iota <= curves.epsilon
        assert fano.color_vertex_check(fp)
    print(f"\nACCEPTANCE 8: PASS - iota <= epsilon and color vertices on {len(instances)} instances")
