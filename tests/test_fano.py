from __future__ import annotations

import json
from fractions import Fraction as Q
from itertools import combinations
from itertools import product as iproduct

import pytest

from conftest import load_fixture
from sphskel import cli, fano, geometry
from sphskel.geometry import adjacent, polar_pair
from sphskel.pinv import compute_p
from sphskel.roots import RootSystem
from sphskel.serialize import augmented_from_doc, augmented_to_doc
from sphskel.skeleton import make_skeleton
from sphskel.sphroots import DOUBLE_ALPHA, SUM_OF_TWO, make_root
from test_geometry import _random_point_set


def ex32():
    return augmented_from_doc(load_fixture("ex32_fano.json"))


def ex61():
    return augmented_from_doc(load_fixture("ex61_fano.json"))


def toric(rays: list[tuple[int, ...]]) -> fano.AugmentedData:
    """The toric variety of a fan with the given rays, as an empty-sigma
    skeleton with one invariant divisor per ray."""
    ids = [f"D{i}" for i in range(len(rays))]
    sk = make_skeleton(RootSystem(()), [], (), gamma_rows=[(i, ()) for i in ids])
    return fano.AugmentedData(
        skeleton=sk,
        lattice_rank=len(rays[0]),
        sigma_in_m=(),
        rho_prime={i: tuple(r) for i, r in zip(ids, rays)},
        m={i: 1 for i in ids},
        coroot_on_m={},
    )


def projective_rays(n: int) -> list[tuple[int, ...]]:
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return rays + [(-1,) * n]


def product_rays(*factors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    total = sum(len(f[0]) for f in factors)
    out, offset = [], 0
    for rays in factors:
        d = len(rays[0])
        out += [(0,) * offset + r + (0,) * (total - offset - d) for r in rays]
        offset += d
    return out


def toric_projective_space(n: int) -> fano.AugmentedData:
    """P^n as an empty-sigma skeleton with n+1 invariant divisors."""
    return toric(projective_rays(n))


def test_ex32_augmentation_and_reflexivity():
    aug = ex32()
    violations, warnings = fano.validate_augmentation(aug)
    assert violations == [] and warnings == []
    assert fano.validate_reflexive(aug) == []


def test_u_map_is_int_where_m_divides():
    # ex32 has m = 1 throughout, so every point is integral; with m raised
    # to 2 on D1 and D3 only the coordinates 0 stay integral.
    aug = ex32()
    for m in (aug.m, {**aug.m, "D1": 2, "D3": 2}):
        u = aug._replace(m=m).u_map()
        for did, rho in aug.rho_prime.items():
            assert u[did] == tuple(Q(x, m[did]) for x in rho)
            kinds = [type(x) is int for x in u[did]]
            assert kinds == [x % m[did] == 0 for x in rho], did
    assert aug._replace(m={**aug.m, "D1": 2}).u_map()["D1"] == (Q(1, 2), 0)


def test_ex32_supported_vertices():
    fp = fano.build_fano(ex32())
    supported = {fp.qstar.vertices[i] for i in fp.supported}
    assert supported == {(Q(2), Q(1)), (Q(-1), Q(1))}


def test_ex32_curves_and_mukai():
    fp = fano.build_fano(ex32())
    curves = fano.curve_degrees(fp)
    assert sorted(d for _, _, d in curves.dv_curves) == [2, 2, 3]
    assert [d for _, _, _, d in curves.edge_curves] == [3]
    # the excluded incidence: u_D1 lies in the dual face of (-1, 1)
    labels = {(cid, v) for cid, v, _ in curves.dv_curves}
    assert ("D1", (Q(-1), Q(1))) not in labels
    assert curves.iota == 2 and curves.epsilon == 2
    assert curves.picard == 2 and curves.dim == 3
    mukai = fano.mukai_check(fp)
    assert mukai.holds and mukai.mukai_lhs == 2
    assert mukai.p_skeleton == 1 == mukai.p_polytope and mukai.cross_check
    assert curves.dim - fp.aug.lattice_rank == 1  # p equals dim - rank here


def test_ex32_color_vertices():
    fp = fano.build_fano(ex32())
    assert fano.color_vertex_check(fp)


def test_ex61_reflexive_and_supported():
    aug = ex61()
    violations, warnings = fano.validate_augmentation(aug)
    assert violations == [] and warnings == []
    assert fano.validate_reflexive(aug) == []
    fp = fano.build_fano(aug)
    supported = {fp.qstar.vertices[i] for i in fp.supported}
    assert supported == {(Q(1), Q(0)), (Q(0), Q(1))}
    assert set(fp.qstar.vertices) == {
        (Q(1), Q(0)), (Q(0), Q(1)), (Q(-1), Q(0)), (Q(0), Q(-1))
    }


def test_shifted_polytope_violates_interior_condition():
    aug = ex32()
    shifted = fano.AugmentedData(
        skeleton=aug.skeleton,
        lattice_rank=2,
        sigma_in_m=aug.sigma_in_m,
        rho_prime={k: tuple(x + 1 for x in v) for k, v in aug.rho_prime.items()},
        m=aug.m,
        coroot_on_m=None,
    )
    assert any("(2)" in v for v in fano.validate_reflexive(shifted))
    with pytest.raises(fano.FanoDataError, match=r"\(2\)"):
        fano.build_fano(shifted)


def test_wrong_rho_prime_breaks_restriction_law():
    aug = ex32()
    tampered = fano.AugmentedData(
        skeleton=aug.skeleton,
        lattice_rank=2,
        sigma_in_m=aug.sigma_in_m,
        rho_prime={**aug.rho_prime, "D1": (2, 0)},
        m=aug.m,
        coroot_on_m=aug.coroot_on_m,
    )
    violations, _ = fano.validate_augmentation(tampered)
    assert any("a1" in v for v in violations)


def test_missing_coroot_table_warns():
    aug = ex32()
    trimmed = fano.AugmentedData(
        skeleton=aug.skeleton,
        lattice_rank=2,
        sigma_in_m=aug.sigma_in_m,
        rho_prime=aug.rho_prime,
        m=aug.m,
        coroot_on_m=None,
    )
    violations, warnings = fano.validate_augmentation(trimmed)
    assert violations == [] and warnings



def _coroot_table(table):
    return lambda aug: aug._replace(coroot_on_m=table)


def _skeleton(**changes):
    return lambda aug: aug._replace(skeleton=aug.skeleton._replace(**changes))


def _sum_of_two(aug):
    # A1xA1 with the spherical root alpha_1 + alpha_2 and its one color;
    # the two coroots differ on M.
    rs = RootSystem.parse("A1xA1")
    sk = make_skeleton(rs, [make_root(SUM_OF_TWO, (0, 1), rs)], ())
    return fano.AugmentedData(
        skeleton=sk,
        lattice_rank=1,
        sigma_in_m=((1,),),
        rho_prime={d.id: (d.pairings[0],) for d in sk.divisors},
        m={d.id: d.m for d in sk.divisors},
        coroot_on_m={0: (2,), 1: (0,)},
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        (_coroot_table({0: (2,)}), "coroot_on_M[1] has wrong length"),
        (_coroot_table({0: (1, 2)}), "axiom a2: pair colors at 1 do not sum to alpha^vee"),
        (
            _skeleton(sigma=(make_root(DOUBLE_ALPHA, (0,), RootSystem.parse("A1")),)),
            "axiom sigma1: <alpha_1^vee, M> is not even",
        ),
        (_skeleton(sp=frozenset({0})), "axiom s: <alpha_1^vee, M> != 0 for alpha in S^p"),
        (_sum_of_two, "axiom sigma2: alpha^vee differs across 1+2 on M"),
    ],
    ids=["length", "a2", "sigma1", "s", "sigma2"],
)
def test_coroot_violations_name_simple_roots_from_one(edit, message):
    # Document keys number the simple roots from 1, and so do the messages.
    violations, _ = fano.validate_augmentation(edit(ex32()))
    assert message in violations, violations

def test_projective_line_equality_case():
    # P^1 and (P^1)^7: iota = 2 and picard = dim, so the bound is attained.
    for n in (1, 7):
        fp = fano.build_fano(toric(product_rays(*[projective_rays(1)] * n)))
        curves = fano.curve_degrees(fp)
        assert curves.iota == 2 and curves.epsilon == 2
        mukai = fano.mukai_check(fp)
        assert mukai.picard == n and mukai.dim == n
        assert mukai.mukai_lhs == n and mukai.holds
        assert mukai.p_skeleton == 0 == mukai.p_polytope


def test_projective_spaces_edge_degrees():
    for n in (2, 3):
        fp = fano.build_fano(toric_projective_space(n))
        assert len(fp.supported) == len(fp.qstar.vertices)  # empty sigma
        curves = fano.curve_degrees(fp)
        assert {d for _, _, _, d in curves.edge_curves} == {n + 1}
        assert curves.iota == n + 1
        mukai = fano.mukai_check(fp)
        assert mukai.mukai_lhs == mukai.dim  # the equality case P^n


def test_iota_bounded_by_epsilon_everywhere():
    for aug in (ex32(), ex61(), toric_projective_space(2), toric_projective_space(3)):
        curves = fano.curve_degrees(fano.build_fano(aug))
        assert curves.iota <= curves.epsilon


def test_convex_combinations_respect_epsilon_bound():
    # sum_D (m_D + <rho'(D), theta>) >= eps * picard at supported vertices
    # and their midpoints.
    for aug in (ex32(), ex61(), toric_projective_space(2)):
        fp = fano.build_fano(aug)
        curves = fano.curve_degrees(fp)
        pts = [fp.qstar.vertices[i] for i in fp.supported]
        samples = list(pts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                samples.append(
                    tuple((a + b) / 2 for a, b in zip(pts[i], pts[j]))
                )
        for theta in samples:
            total = sum(
                (
                    aug.m[did]
                    + sum(
                        (r * t for r, t in zip(aug.rho_prime[did], theta)), Q(0)
                    )
                    for did in aug.divisor_ids()
                ),
                Q(0),
            )
            assert total >= curves.epsilon * curves.picard


def test_edge_differences_are_integer_multiples():
    for aug in (ex32(), ex61(), toric_projective_space(3)):
        fp = fano.build_fano(aug)
        for v, w, chi, t in fano.curve_degrees(fp).edge_curves:
            assert all(x.denominator == 1 for x in chi)
            assert tuple(a - b for a, b in zip(v, w)) == tuple(t * x for x in chi)


def _with_qstar_vertices(fp, vertices):
    """fp with its Q* vertices replaced and the incidence kept."""
    return fp._replace(qstar=fp.qstar._replace(vertices=tuple(vertices)))


def test_curve_pass_refuses_a_fractional_edge_vector():
    # P^2's Q* has vertices (-1, -1), (-1, 2), (2, -1); moving the first off
    # the lattice makes its edge to the second a non-lattice vector.
    fp = fano.build_fano(toric_projective_space(2))
    broken = _with_qstar_vertices(fp, [(Q(-1, 2), -1), *fp.qstar.vertices[1:]])
    message = r"^difference \(1/2, -3\) is not a lattice vector$"
    with pytest.raises(fano.FanoDataError, match=message):
        fano.curve_degrees(broken)


def test_curve_pass_refuses_a_zero_edge_vector():
    fp = fano.build_fano(toric_projective_space(2))
    first, _, third = fp.qstar.vertices
    broken = _with_qstar_vertices(fp, [first, first, third])
    with pytest.raises(fano.FanoDataError, match="^zero edge vector$"):
        fano.curve_degrees(broken)


def test_curve_pass_refuses_a_fractional_or_nonpositive_color_degree():
    # ex32: the supported vertices are (-1, 1), on the facet of the color D1,
    # and (2, 1), off the facets of both colors D1 and D2.
    fp = fano.build_fano(ex32())
    assert [fp.qstar.vertices[i] for i in fp.supported] == [(-1, 1), (2, 1)]
    vertices = list(fp.qstar.vertices)
    vertices[fp.supported[1]] = (Q(3, 2), 1)
    with pytest.raises(fano.FanoDataError, match=r"^curve degree 5/2 at \(D1, \(3/2, 1\)\)$"):
        fano.curve_degrees(_with_qstar_vertices(fp, vertices))
    # m_D2 + <rho'(D2), (-1, 1)> = m_D2 + 1 is 0 at m_D2 = -1.
    aug = fp.aug._replace(m={**fp.aug.m, "D2": -1})
    with pytest.raises(fano.FanoDataError, match=r"^curve degree 0 at \(D2, \(-1, 1\)\)$"):
        fano.curve_degrees(fp._replace(aug=aug))


def test_random_rank2_color_vertex_scan(rng):
    # Brute-force valuation-cone membership agrees with the check.
    for _ in range(10):
        aug = ex61()
        fp = fano.build_fano(aug)
        u = aug.u_map()
        for cid in aug.color_ids():
            inside_cone = all(
                sum(a * b for a, b in zip(u[cid], g)) <= 0 for g in aug.sigma_in_m
            )
            if not inside_cone:
                assert u[cid] in fp.q.vertices


def test_non_simplicial_data_rejected():
    # A cube of invariant divisors: the dual faces are cubes of one
    # dimension less, so the rank criterion fails and the Mukai report
    # refuses to run.
    for d in (3, 5):
        fp = fano.build_fano(_cube(d))
        assert not fano.check_q_factorial(fp)
        with pytest.raises(fano.NotQFactorial):
            fano.mukai_check(fp)


def _rank_edges(fp):
    """Oracle: vertex pairs whose common facets have rank d - 1 and lie on
    no third vertex."""
    from sphskel.linalg import dot, rank

    verts = fp.qstar.vertices
    d = fp.qstar.ambient_dim
    normals = fp.q.vertices
    active = [
        frozenset(i for i, u in enumerate(normals) if dot(u, v) == -1) for v in verts
    ]
    edges = []
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            common = active[i] & active[j]
            if len(common) < d - 1 or rank([normals[t] for t in common]) != d - 1:
                continue
            if any(common <= active[z] for z in range(len(verts)) if z not in (i, j)):
                continue
            edges.append((i, j))
    return edges


def _cube(d):
    return toric(list(iproduct((-1, 1), repeat=d)))


_EDGE_CASES = {
    "ex32": ex32,
    "ex61": ex61,
    **{f"P{n}": (lambda n=n: toric_projective_space(n)) for n in (2, 3, 4, 5)},
    **{
        f"P1^{n}": (lambda n=n: toric(product_rays(*[projective_rays(1)] * n)))
        for n in (2, 3, 4, 7, 8)
    },
    "P2xP2": lambda: toric(product_rays(projective_rays(2), projective_rays(2))),
    "P2^4": lambda: toric(product_rays(*[projective_rays(2)] * 4)),
    "cube3": lambda: _cube(3),  # Q* is the cross-polytope: no vertex is simple
    "cube4": lambda: _cube(4),
}


def _restricted(pairs, among):
    keep = set(among)
    return [(i, j) for i, j in pairs if i in keep and j in keep]


@pytest.mark.parametrize("name", list(_EDGE_CASES))
def test_qstar_edges_match_rank_oracle(name):
    fp = fano.build_fano(_EDGE_CASES[name]())
    d, width = fp.qstar.ambient_dim, len(fp.aug.divisor_ids())
    edges = _all_edges(fp.incidence, d, width)
    assert edges == _rank_edges(fp) == _qstar_edges_by_scan(fp.incidence, d)
    # The edges from tight rows, over all vertices and over the supported
    # ones, and the edge curves of the curve pass.
    assert geometry.edges(fp.incidence, range(len(fp.incidence)), d + 1, width) == edges
    supported = _restricted(edges, fp.supported)
    assert geometry.edges(fp.incidence, fp.supported, d + 1, width) == supported
    vertices = fp.qstar.vertices
    curves = fano.curve_degrees(fp).edge_curves
    assert [(v, w) for v, w, _, _ in curves] == [(vertices[i], vertices[j]) for i, j in supported]
    # Each vertex of a d-polytope lies on at least d edges.
    for k in range(len(vertices)):
        assert sum(k in e for e in edges) >= d


def _all_edges(masks, d, width):
    """Edges of a d-polytope Q* from its vertex-facet masks: every vertex
    pair through geometry.adjacent, on the cone over Q* in Q^(d+1)."""
    return adjacent(masks, combinations(range(len(masks)), 2), d + 1, width)


def _qstar_edges_by_scan(masks, d):
    """Oracle: the vertex-by-vertex scan the transposed incidence replaced."""
    edges = []
    for i, j in combinations(range(len(masks)), 2):
        common = masks[i] & masks[j]
        if common.bit_count() < d - 1:
            continue
        if sum(z & common == common for z in masks) > 2:
            continue
        edges.append((i, j))
    return edges


def test_qstar_edges_match_scan_on_random_polar_pairs(rng):
    # Duplicates, midpoints, flattened and shifted sets: degenerate and
    # non-simple polytopes, checked against the scan and the rank oracle.
    checked = 0
    for t in range(300):
        d = 1 + t % 4
        pts = _random_point_set(rng, d)
        pair = polar_pair(pts, d)
        if pair is None:
            continue
        q, qstar, masks = pair
        fp = fano.FanoPolytope(None, q, qstar, masks, (), (), {})
        edges = _all_edges(masks, d, len(pts))
        assert edges == _qstar_edges_by_scan(masks, d) == _rank_edges(fp)
        everything = range(len(masks))
        assert geometry.edges(masks, everything, d + 1, len(pts)) == edges
        among = sorted(rng.sample(everything, rng.randrange(len(masks) + 1)))
        assert geometry.edges(masks, among, d + 1, len(pts)) == _restricted(edges, among)
        checked += 1
    assert checked > 100


def test_one_pass_matches_separate_steps():
    aug = toric(product_rays(projective_rays(2), projective_rays(1)))
    violations, fp = fano.reflexive_polytopes(aug)
    assert violations == fano.validate_reflexive(aug) == []
    assert fp == fano.build_fano(aug)
    curves = fano.curve_degrees(fp)
    assert fano.mukai_check(fp, curves) == fano.mukai_check(fp)
    invariant = compute_p(aug.skeleton)
    assert fano.mukai_check(fp, curves, invariant) == fano.mukai_check(fp)


def _cross_check_documents():
    docs = {name: load_fixture(f"{name}_fano.json") for name in ("ex32", "ex61")}
    rays = {f"P{n}": projective_rays(n) for n in range(2, 8)}
    rays.update({f"P1^{n}": product_rays(*[projective_rays(1)] * n) for n in range(2, 7)})
    rays.update({f"P2^{k}": product_rays(*[projective_rays(2)] * k) for k in (2, 3)})
    docs.update({name: augmented_to_doc(toric(r)) for name, r in rays.items()})
    return docs


_CROSS_CHECK_DOCUMENTS = _cross_check_documents()


@pytest.mark.parametrize("name", list(_CROSS_CHECK_DOCUMENTS))
def test_fano_json_p_cross_check(name, tmp_path, capsys):
    # The skeleton invariant equals the polytope route on every document
    # that reaches the Mukai report, through the command line.
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_CROSS_CHECK_DOCUMENTS[name]), encoding="utf-8")
    assert cli.main(["fano", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["p_cross_check"] is True
