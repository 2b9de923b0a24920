"""The p-invariant of a spherical skeleton, via an exact LP.

p(R) = sum_D (m_D - 1) + max{ c.x : A x <= b, x >= 0 } with
c_g = sum_D <rho(D), g>, A rows -<rho(D), .>, b_D = m_D.  An unbounded LP
means p = +infinity (the skeleton is then not complete).  smoothness
validates a skeleton, localizes it at a divisor subset and computes p there.
The value, gap, vertex and dual are ints unless they are true quotients,
and then Fractions, as ``lp.solve`` returns them.  compute_p_each gives
compute_p of each one-divisor skeleton of a Gamma, validating once and
solving through ``lp.solve_each``: the colors' LP runs its Bland path
once, and each divisor's LP resumes it where a column of its own row
first enters, or reads the colors' result if none does.  This is the
catalog sweep's path to its markings.  A report holds the solved values,
not the LP; compute_p certifies its optimum by ``lp.check_certificate``
and raises RuntimeError if that fails or if the LP is infeasible.
"""

from __future__ import annotations

from fractions import Fraction as Q
from operator import neg
from typing import Iterable, NamedTuple, Sequence

from . import lp
from .linalg import Vec, dot
from .roots import parabolic_count
from .skeleton import InvalidSkeleton, SphericalSkeleton, localize, validate


class PInvariantReport(NamedTuple):
    p_value: int | Q | None  # None encodes +infinity
    bound: int
    gap: int | Q | None
    theta: Vec | None  # coordinates of the optimal vertex over sigma
    dual: Vec | None
    is_equality: bool

    @property
    def finite(self) -> bool:
        return self.p_value is not None


def skeleton_lp(sk: SphericalSkeleton) -> lp.LpProblem:
    divisors = sk.divisors
    rows = [d.pairings for d in divisors]
    # The zero row gives c its width when there is no divisor; strict
    # rejects a pairing row of another width.
    c = tuple(map(sum, zip(*rows, (0,) * len(sk.sigma), strict=True)))
    a = tuple(tuple(map(neg, row)) for row in rows)
    return lp.LpProblem(c, a, tuple(d.m for d in divisors))


def compute_p(sk: SphericalSkeleton) -> PInvariantReport:
    """Value of the invariant, optimal vertex, dual certificate, Mukai gap."""
    violations = validate(sk)
    if violations:
        raise InvalidSkeleton(violations)
    problem = skeleton_lp(sk)
    res = lp.solve(problem)
    if res.status == lp.OPTIMAL and not lp.check_certificate(problem, res):
        raise RuntimeError("invariant LP optimum fails its certificate")
    base = sum(problem.b) - len(problem.b)
    return _report(res, parabolic_count(sk.root_system, sk.sp), base)


def compute_p_each(sk: SphericalSkeleton) -> list[PInvariantReport]:
    """``[compute_p(sk._replace(gamma=(g,))) for g in sk.gamma]``, with the
    work those skeletons share done once.

    sk is validated once, with all its Gamma divisors: the structure checks
    do not read Gamma, the Gamma row checks run divisor by divisor, and ids
    unique over all the divisors are unique over any one of them, so each
    one-divisor skeleton is valid too.  Gamma comes after the colors, so
    each g's LP is the colors' LP with g's column sums, row and m_D added:
    the problem skeleton_lp builds for that one-divisor skeleton.  The row
    is -<rho(g), .> and the column sums lower c by it, so ``lp.solve_each``
    solves them all along the colors' shared Bland path.  Each g has m_D =
    1, so sum_D (m_D - 1) is the colors'.  These optima are not certified.
    """
    violations = validate(sk)
    if violations:
        raise InvalidSkeleton(violations)
    colors = skeleton_lp(sk._replace(gamma=()))
    rows = [(tuple(map(neg, g.pairings)), g.m) for g in sk.gamma]
    bound = parabolic_count(sk.root_system, sk.sp)
    base = sum(colors.b) - len(colors.b)
    return [_report(res, bound, base) for res in lp.solve_each(colors, rows)]


def _report(res: lp.LpResult, bound: int, base: int) -> PInvariantReport:
    """The report of a skeleton's LP from its solve; base is sum_D (m_D - 1)."""
    if res.status == lp.UNBOUNDED:
        return PInvariantReport(None, bound, None, None, None, False)
    if res.status != lp.OPTIMAL:
        # validate makes every m_D > 0, so x = 0 is feasible: a solver fault.
        raise RuntimeError(f"invariant LP is {res.status}")
    value = base + res.value
    gap = bound - value
    return PInvariantReport(value, bound, gap, res.x, res.y, gap == 0)


def evaluate_objective(sk: SphericalSkeleton, theta: Sequence[int | Q]) -> int | Q:
    """sum_D (m_D - 1 + <rho(D), theta>) for theta in sigma coordinates."""
    base = sum(m - 1 for m in sk.coefficients())
    return base + sum(dot(row, theta) for row in sk.pairing_rows())


def theta_feasible(sk: SphericalSkeleton, theta: Sequence[int | Q]) -> bool:
    """theta lies in Q*_R ∩ cone(sigma), in sigma coordinates."""
    rows = zip(sk.pairing_rows(), sk.coefficients())
    return all(t >= 0 for t in theta) and all(dot(row, theta) >= -m for row, m in rows)


def smoothness(
    sk: SphericalSkeleton, ids: Iterable[str]
) -> tuple[SphericalSkeleton, PInvariantReport]:
    """R_I, the skeleton localized at the divisors ids, and its invariant:
    R_I is smooth iff p(R_I) = |R_I+ \\ R+_{S^p_I}| (report.is_equality).

    localize reads the pairing rows and color data as they are given, so
    the whole skeleton is validated first.
    """
    violations = validate(sk)
    if violations:
        raise InvalidSkeleton(violations)
    local = localize(sk, ids)
    return local, compute_p(local)
