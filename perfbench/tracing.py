"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each function in ``LAYERS`` with a wrapper at
every binding site in the sphskel package (the defining module, every
module that imported the name, and the class for methods), and ``remove``
puts the originals back.  A wrapper records one span per call: name,
start, end and parent, in flat arrays so that hundreds of thousands of
spans stay small.  Start and end are this process's CPU clock, which
leaves out time the host gives to other guests.  A span's self time is its
duration minus the durations of its child spans; the wrapped calls nest,
so self times partition the root spans exactly.

Some wrappers also keep the call's arguments or result.  The counters
derived from them (LP shapes and statuses, coefficient sizes, subsets
tried by vertex enumeration, distinct inputs) are computed after the run
from outside the program, and are labelled as computed.  Pivots and cache
hits need counters inside the program and are not measured here.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import defaultdict
from functools import update_wrapper
from typing import Any, Callable

# (module, attribute) of every traced function; "Class.method" for methods.
LAYERS = (
    ("roots", "RootSystem.coroot_matrix"),
    ("roots", "half_sum"),
    ("roots", "positive_roots"),
    ("roots", "parabolic_count"),
    ("sphroots", "make_root"),
    ("sphroots", "anticanonical_coefficient"),
    ("skeleton", "make_skeleton"),
    ("skeleton", "validate"),
    ("skeleton", "localize"),
    ("catalog", "generate"),
    ("catalog", "mark"),
    ("pinv", "compute_p"),
    ("pinv", "theta_feasible"),
    ("lp", "solve"),
    ("lp", "solve_free"),
    ("lp", "check_certificate"),
    ("linalg", "rank"),
    ("linalg", "solve_linear"),
    ("geometry", "vertex_enumerate"),
    ("geometry", "point_in_hull"),
    ("geometry", "origin_interior"),
    ("fano", "validate_reflexive"),
    ("fano", "build_fano"),
    ("fano", "supported_vertex_indices"),
    ("fano", "curve_degrees"),
    ("fano", "mukai_check"),
    ("serialize", "skeleton_from_doc"),
    ("serialize", "augmented_from_doc"),
    ("serialize", "load_schema"),
    ("serialize", "table_rows_to_json"),
    ("cli", "main"),
)

# Spans whose calls keep their arguments for computed counters, and
# whether they also keep the result.  Results of the hot root-data calls
# are not kept: they are rebuilt on every call and would pin memory.
CAPTURE = {
    "roots.coroot_matrix": False,
    "roots.half_sum": False,
    "catalog.generate": False,
    "lp.solve": True,
    "geometry.vertex_enumerate": True,
}


# Per-layer metrics derived from arguments and results rather than timed.
COMPUTED = (
    "distinct_ratio", "validate_per_compute", "rows_max", "cols_max", "cells_total",
    "phase1_share", "unbounded", "infeasible", "coeff_bits_max", "subsets",
    "vertices", "yield", "qstar_per_case",
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.captured: dict[str, list] = defaultdict(list)
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self.stack
        clock = time.process_time_ns
        keep = self.captured[name].append if name in CAPTURE else None
        with_result = CAPTURE.get(name, False)

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if keep is not None:
                keep((args, result) if with_result else args)
            return result

        return update_wrapper(traced, fn)

    def install(self) -> None:
        package = {
            name: mod for name, mod in sys.modules.items() if name.startswith("sphskel.")
        }
        for module, attr in LAYERS:
            owner = package[f"sphskel.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, original, self.wrap(span_name(module, attr), original))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(span_name(module, attr), original)
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapped)

    def _rebind(self, owner: object, key: str, original: object, wrapped: object) -> None:
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def remove(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, int]]:
        """Calls and self nanoseconds per span name."""
        n = len(self.start)
        child = [0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_ns[name] += dur[i] - child[i]
        return calls, self_ns

    def calls_per_root(self) -> list[dict[str, int]]:
        """Calls per span name under each root span, in the order run.

        A root span is one CLI call, so this is the work of each request.
        """
        roots: list[dict[str, int]] = []
        root_of = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p < 0:
                root_of[i] = len(roots)
                roots.append(defaultdict(int))
            else:
                root_of[i] = root_of[p]
            roots[root_of[i]][self.names[self.name_of[i]]] += 1
        return roots

    def layer_metrics(self, fano_cases: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of BENCHMARK.json, as (value, unit)."""
        calls, self_ns = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for module, attr in LAYERS:
            name = span_name(module, attr)
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self_ns.get(name, 0) / 1e9, "s")
        cap = self.captured

        def distinct(name: str, key: Callable[[tuple], object]) -> float:
            rows = cap.get(name, [])
            return len({key(args) for args in rows}) / len(rows) if rows else 0.0

        out["roots.coroot_matrix.distinct_ratio"] = (
            distinct("roots.coroot_matrix", lambda a: a[0]), "ratio"
        )
        out["roots.half_sum.distinct_ratio"] = (
            distinct("roots.half_sum", lambda a: (a[0], frozenset(a[1]))), "ratio"
        )
        out["catalog.generate.distinct_ratio"] = (
            distinct("catalog.generate", lambda a: a[0]), "ratio"
        )
        computes = calls.get("pinv.compute_p", 0)
        out["pinv.validate_per_compute"] = (
            calls.get("skeleton.validate", 0) / computes if computes else 0.0, "ratio"
        )
        out.update(_lp_counters(cap.get("lp.solve", [])))
        out.update(_enumeration_counters(cap.get("geometry.vertex_enumerate", [])))
        out["fano.qstar_per_case"] = (
            calls.get("geometry.vertex_enumerate", 0) / fano_cases if fano_cases else 0.0,
            "ratio",
        )
        out["trace.spans"] = (len(self.start), "count")
        out["trace.self_sum_s"] = (sum(self_ns.values()) / 1e9, "s")
        return out


def _bits(values) -> int:
    best = 0
    for v in values or ():
        best = max(best, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return best


def _lp_counters(rows: list[tuple[tuple, Any]]) -> dict[str, tuple[float, str]]:
    """Shapes, phase-1 share, statuses and result sizes of the LPs solved."""
    shapes = [(len(args[0].b), len(args[0].c)) for args, _ in rows]
    phase1 = sum(1 for args, _ in rows if any(b < 0 for b in args[0].b))
    bits = 0
    for _, res in rows:
        extra = [res.value] if res.value is not None else []
        bits = max(bits, _bits(res.x), _bits(res.y), _bits(extra))
    statuses = [res.status for _, res in rows]
    return {
        "lp.solve.rows_max": (max((r for r, _ in shapes), default=0), "count"),
        "lp.solve.cols_max": (max((c for _, c in shapes), default=0), "count"),
        "lp.solve.cells_total": (sum(r * c for r, c in shapes), "count"),
        "lp.solve.phase1_share": (phase1 / len(rows) if rows else 0.0, "share"),
        "lp.solve.unbounded": (statuses.count("unbounded"), "count"),
        "lp.solve.infeasible": (statuses.count("infeasible"), "count"),
        "lp.solve.coeff_bits_max": (bits, "bits"),
    }


def _enumeration_counters(rows: list[tuple[tuple, Any]]) -> dict[str, tuple[float, str]]:
    """Constraint subsets tried, sum C(m, d), against the vertices found."""
    subsets = sum(math.comb(len(args[0].rows), args[0].ambient_dim) for args, _ in rows)
    vertices = sum(len(res.vertices) for _, res in rows)
    return {
        "geometry.vertex_enumerate.subsets": (subsets, "count"),
        "geometry.vertex_enumerate.vertices": (vertices, "count"),
        "geometry.vertex_enumerate.yield": (vertices / subsets if subsets else 0.0, "ratio"),
    }
