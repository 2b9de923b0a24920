"""Reference code that tests compare the program against.

Nothing here is run by a command: each function is a plainer, slower
statement of what a part of ``src/`` computes, kept apart from the code it
checks.  Pytest does not collect this file.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from sphskel.geometry import GeometryError, VPolytope, point_in_hull
from sphskel.linalg import Vec


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
