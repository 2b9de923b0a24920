"""Reference code that tests compare the program against.

Nothing here is run by a command: each function is a plainer, slower
statement of what a part of ``src/`` computes, kept apart from the code it
checks.  Pytest does not collect this file.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from sphskel import catalog
from sphskel.geometry import GeometryError, VPolytope, point_in_hull
from sphskel.linalg import Vec
from sphskel.pinv import compute_p, evaluate_objective, theta_feasible


def hull(points: Iterable[Sequence], dim: int) -> VPolytope:
    """The vertices of conv(points): drop duplicates, then drop each point
    that lies in the hull of the others."""
    pts: list[Vec] = []
    for p in points:
        v = tuple(p)
        if len(v) != dim:
            raise GeometryError("point length differs from ambient dimension")
        if v not in pts:
            pts.append(v)
    keep = [
        p for i, p in enumerate(pts)
        if not point_in_hull(pts[:i] + pts[i + 1:], p)
    ]
    return VPolytope(tuple(sorted(keep)), dim)


def dense_pivot(
    tab: list[list[int]], basic: list[int], nonbasic: list[int], d: int, r: int, e: int
) -> int:
    """``lp._pivot`` as one dense update: every row with a nonzero entry in
    column e is rebuilt over the new d, and when p != d so is every other
    row."""
    prow = tab[r]
    p = prow[e]
    sign = 1
    if p < 0:
        prow = tab[r] = [-v for v in prow]
        p, sign = -p, -1
    for i, row in enumerate(tab):
        if i != r:
            f = row[e]
            if f:
                row = tab[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
                row[e] = -sign * f
            elif p != d:
                tab[i] = [p * a // d for a in row]
    prow[e] = sign * d
    basic[r], nonbasic[e] = nonbasic[e], basic[r]
    return p


def catalog_rows(max_rank: int) -> list[catalog.CatalogRow]:
    """``catalog.verify_catalog`` with no sharing: every (spec, marking) of
    ``catalog.table_tasks`` is marked, solved and checked on its own.  The
    family data (``equality_entries`` among it) is read through the module,
    so a test that patches it patches it here too."""
    return [_catalog_row(spec, k) for spec, k in catalog.table_tasks(max_rank)]


def _catalog_row(spec: catalog.FamilySpec, k: int) -> catalog.CatalogRow:
    sk = catalog.mark(spec, k)
    report = compute_p(sk)
    listed = catalog.equality_entries(spec)
    theta_ok = True
    if k in listed:
        theta = listed[k]
        theta_ok = (
            theta_feasible(sk, theta)
            and evaluate_objective(sk, theta) == report.p_value
        )
    fam, _, params = spec.label().partition(":")
    return catalog.CatalogRow(
        fam,
        params,
        k,
        catalog.expected_value(spec, k),
        report.p_value,
        report.bound,
        report.theta,
        report.dual,
        k in listed,
        report.is_equality,
        theta_ok,
    )
