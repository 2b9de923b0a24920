from __future__ import annotations

from fractions import Fraction as Q

import pytest

from conftest import load_fixture, permuted_copy, random_skeleton
from sphskel import lp
from sphskel.catalog import FamilySpec, all_specs, generate, mark, table_tasks
from sphskel.pinv import (
    compute_p,
    compute_p_each,
    evaluate_objective,
    skeleton_lp,
    smoothness,
    theta_feasible,
)
from sphskel.roots import RootSystem, SimpleType
from sphskel.serialize import skeleton_from_doc
from sphskel.skeleton import (
    GammaDivisor,
    InvalidSkeleton,
    elementary,
    make_skeleton,
    product,
    reduced_elementary,
    validate,
)
from sphskel.linalg import rank


def worked_example():
    return skeleton_from_doc(load_fixture("ex35.json"))


def test_worked_example_value_and_vertex():
    rep = compute_p(worked_example())
    assert rep.p_value == 1
    assert rep.bound == 1 and rep.is_equality
    assert rep.theta == (Q(1),)  # theta = the spherical root itself
    assert lp.check_certificate(
        rep.problem, lp.LpResult(lp.OPTIMAL, rep.p_value - rep.base, rep.theta, rep.dual)
    )


def test_empty_sigma_sum_of_coefficients():
    rs = RootSystem.parse("A2")
    sk = make_skeleton(rs, [], ())  # two around colors, m = 2 each
    rep = compute_p(sk)
    assert rep.p_value == 2
    assert rep.theta == ()


def test_invalid_skeleton_raises():
    sk = worked_example()
    bad = sk._replace(gamma=(GammaDivisor("D3", (1,)),))
    with pytest.raises(InvalidSkeleton):
        compute_p(bad)


def test_a3_group_embedding_equality():
    rep = compute_p(mark(FamilySpec("2", series=SimpleType("A", 3)), 1))
    assert rep.p_value == 12 == rep.bound and rep.is_equality


def test_unbounded_without_gamma():
    sk = worked_example()._replace(gamma=())
    rep = compute_p(sk)
    assert rep.p_value is None and not rep.finite
    assert rep.theta is None and rep.gap is None


def test_nonnegative_on_randoms(rng):
    for _ in range(60):
        rep = compute_p(random_skeleton(rng))
        if rep.finite:
            assert rep.p_value >= 0


def test_monotone_under_reductions(rng):
    for _ in range(40):
        sk = random_skeleton(rng)
        values = [
            compute_p(s).p_value
            for s in (sk, elementary(sk), reduced_elementary(sk))
        ]
        cleaned = [v if v is not None else Q(10**9) for v in values]
        assert cleaned[0] <= cleaned[1] <= cleaned[2]


def test_additive_under_product(rng):
    for _ in range(25):
        a, b = random_skeleton(rng), random_skeleton(rng)
        pa, pb = compute_p(a), compute_p(b)
        pab = compute_p(product(a, b))
        if pa.finite and pb.finite:
            assert pab.p_value == pa.p_value + pb.p_value
        else:
            assert not pab.finite


def test_invariant_under_relabeling(rng):
    for _ in range(25):
        sk = random_skeleton(rng)
        other = permuted_copy(sk, rng)
        assert validate(other) == []
        assert compute_p(sk).p_value == compute_p(other).p_value


def test_theta_is_vertex_of_feasible_region(rng):
    for _ in range(25):
        sk = random_skeleton(rng)
        rep = compute_p(sk)
        if not rep.finite or not sk.sigma:
            continue
        assert theta_feasible(sk, rep.theta)
        assert evaluate_objective(sk, rep.theta) == rep.p_value
        problem = skeleton_lp(sk)
        nsigma = len(sk.sigma)
        active = [
            row
            for row, bound in zip(problem.a, problem.b)
            if sum(r * t for r, t in zip(row, rep.theta)) == bound
        ]
        active += [
            tuple(Q(-1) if j == i else Q(0) for j in range(nsigma))
            for i in range(nsigma)
            if rep.theta[i] == 0
        ]
        assert rank(active) == nsigma


def test_smoothness_worked_example():
    sk = worked_example()
    local, report = smoothness(sk, ["D1", "D2", "D4"])
    assert report.is_equality
    assert report == compute_p(local)
    assert smoothness(sk, [])[1].is_equality


def test_smoothness_fails_at_strict_gap():
    sk = mark(FamilySpec("2", series=SimpleType("G", 2)), 1)
    assert not smoothness(sk, [d.id for d in sk.divisors])[1].is_equality


def test_smoothness_validates_before_localizing():
    # localize would read the short row by index; validate rejects it first.
    sk = mark(FamilySpec("2", series=SimpleType("G", 2)), 1)
    short = sk.colors[0]._replace(pairings=sk.colors[0].pairings[:-1])
    cut = sk._replace(colors=(short, *sk.colors[1:]))
    with pytest.raises(InvalidSkeleton):
        smoothness(cut, [d.id for d in sk.divisors])


def test_compute_p_gap_cases():
    cases = [
        (FamilySpec("2", series=SimpleType("G", 2)), 1),
        (FamilySpec("2", series=SimpleType("G", 2)), 2),
        (FamilySpec("30"), 1),
        (FamilySpec("29"), 4),
    ]
    reports = [compute_p(mark(spec, k)) for spec, k in cases]
    assert [(r.p_value, r.bound) for r in reports] == [
        (Q(2), 12), (Q(4), 12), (Q(0), 6), (Q(3, 2), 24)
    ]


def test_certificates_on_catalog_samples():
    for spec, k in [
        (FamilySpec("2", series=SimpleType("E", 6)), 1),
        (FamilySpec("29"), 4),
        (FamilySpec("9", l=2, m=1), 2),
    ]:
        rep = compute_p(mark(spec, k))
        result = lp.LpResult(lp.OPTIMAL, rep.p_value - rep.base, rep.theta, rep.dual)
        assert lp.check_certificate(rep.problem, result)


def test_skeleton_lp_data_are_ints():
    # The LP is built from the skeleton's integers as they are.
    for spec, k in table_tasks(max_rank=4):
        problem = skeleton_lp(mark(spec, k))
        entries = [*problem.c, *problem.b, *(v for row in problem.a for v in row)]
        assert entries and all(type(v) is int for v in entries), (spec.label(), k)


def test_skeleton_lp_without_divisors_has_sigma_width():
    sk = worked_example()._replace(colors=(), gamma=())
    assert len(sk.sigma) == 1
    assert skeleton_lp(sk) == lp.LpProblem((0,), (), ())


def test_skeleton_lp_rejects_a_pairing_row_of_another_width():
    sk = worked_example()
    for pairings in ((), (1, 0)):
        with pytest.raises(ValueError):
            skeleton_lp(sk._replace(gamma=(GammaDivisor("D9", pairings),)))


def test_skeleton_lp_on_catalog_is_column_sums_negated_rows_and_m():
    # Every rank-8 catalog marking: c_g = sum_D <rho(D), g>, the rows
    # -<rho(D), .> and b_D = m_D, as the module docstring states them; and
    # compute_p's base is sum_D (m_D - 1).
    tasks = table_tasks(max_rank=8)
    for spec, k in tasks:
        sk = mark(spec, k)
        rows = [d.pairings for d in sk.divisors]
        c = tuple(sum(row[j] for row in rows) for j in range(len(sk.sigma)))
        a = tuple(tuple(-v for v in row) for row in rows)
        b = tuple(d.m for d in sk.divisors)
        assert skeleton_lp(sk) == lp.LpProblem(c, a, b), (spec.label(), k)
        assert compute_p(sk).base == sum(m - 1 for m in b), (spec.label(), k)
    assert len(tasks) == 867


def _one_by_one(sk):
    return [compute_p(sk._replace(gamma=(g,))) for g in sk.gamma]


def _assert_same_reports(got, want, where):
    # repr tells an int from an equal Fraction, in every field and in the
    # LP problem's entries; == alone would not.
    assert got == want, where
    assert repr(got) == repr(want), where


def test_compute_p_each_equals_compute_p_on_every_catalog_skeleton():
    # Each distinct catalog skeleton up to rank 12, carrying all of its
    # markings at once, gives the reports of its markings solved one by one.
    skeletons = {generate(spec): spec for spec in all_specs(12)}
    total = 0
    for base, spec in skeletons.items():
        n = len(base.sigma)
        sk = base._replace(gamma=tuple(mark(spec, k).gamma[0] for k in range(1, n + 1)))
        _assert_same_reports(compute_p_each(sk), _one_by_one(sk), spec.label())
        total += n
    assert total == 1657


def test_compute_p_each_equals_compute_p_with_several_gamma_rows(rng):
    several = 0
    for _ in range(150):
        sk = random_skeleton(rng)
        _assert_same_reports(compute_p_each(sk), _one_by_one(sk), sk.gamma)
        several += len(sk.gamma) >= 2
    assert several >= 50


def test_compute_p_each_of_an_empty_gamma_is_empty():
    for spec in (FamilySpec("2", series=SimpleType("G", 2)), FamilySpec("29")):
        assert compute_p_each(generate(spec)) == []
    sk = make_skeleton(RootSystem.parse("A2"), [], ())
    assert compute_p_each(sk) == []


@pytest.mark.parametrize(
    "bad",
    [
        lambda sk: GammaDivisor("bad", (1,) + (0,) * (len(sk.sigma) - 1)),
        lambda sk: GammaDivisor("bad", (-1,) * (len(sk.sigma) + 1)),
        lambda sk: GammaDivisor(sk.colors[0].id, (-1,) * len(sk.sigma)),
        lambda sk: GammaDivisor("r1", (-1,) * len(sk.sigma)),
    ],
    ids=["positive pairing", "wrong length", "a color's id", "two equal ids"],
)
def test_compute_p_each_raises_the_violations_of_validate(bad):
    # The bad divisor comes after two valid ones, r1 and r2.
    base = generate(FamilySpec("3", l=2, m=1))
    n = len(base.sigma)
    rows = (GammaDivisor("r1", (-1,) + (0,) * (n - 1)), GammaDivisor("r2", (-2,) * n))
    sk = base._replace(gamma=(*rows, bad(base)))
    violations = validate(sk)
    assert violations
    with pytest.raises(InvalidSkeleton) as err:
        compute_p_each(sk)
    assert err.value.violations == violations
