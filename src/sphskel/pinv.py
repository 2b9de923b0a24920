"""The p-invariant of a spherical skeleton, via an exact LP.

p(R) = sum_D (m_D - 1) + max{ c.x : A x <= b, x >= 0 } with
c_g = sum_D <rho(D), g>, A rows -<rho(D), .>, b_D = m_D.  An unbounded LP
means p = +infinity (the skeleton is then not complete).  smoothness
validates a skeleton, localizes it at a divisor subset and computes p there.
The value, gap, vertex and dual are ints unless they are true quotients,
and then Fractions, as ``lp.solve`` returns them.
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
    problem: lp.LpProblem
    base: int  # sum_D (m_D - 1)

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
    base = sum(problem.b) - len(problem.b)
    bound = parabolic_count(sk.root_system, sk.sp)
    res = lp.solve(problem)
    if res.status == lp.UNBOUNDED:
        return PInvariantReport(None, bound, None, None, None, False, problem, base)
    if res.status != lp.OPTIMAL:
        # x = 0 is feasible whenever every m_D > 0, so this cannot happen
        # for genuine skeleton data.
        raise InvalidSkeleton([f"invariant LP is {res.status}"])
    value = base + res.value
    gap = bound - value
    return PInvariantReport(
        value, bound, gap, res.x, res.y, gap == 0, problem, base
    )


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
