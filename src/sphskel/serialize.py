"""Canonical JSON and CSV formats.

Rationals are rendered as exact "p/q" strings (plain "p" for integers);
floats never appear.  Skeleton documents are validated against the
packaged structural schema (parsed once per process) and reject unknown
fields.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from fractions import Fraction as Q
from importlib import resources
from typing import Any, Sequence

from .fano import AugmentedData
from .linalg import vec
from .roots import RootSystem
from .skeleton import Color, GammaDivisor, SphericalSkeleton
from .sphroots import embed_from_coeffs

SCHEMA_VERSION = 1


class DocumentError(ValueError):
    pass


def format_rational(value: Q | int | None) -> str:
    if value is None:
        return "inf"
    value = Q(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Q | None:
    text = text.strip()
    if text in ("inf", "+inf"):
        return None
    return Q(text)


# ---------------------------------------------------------------------------
# Minimal structural schema interpreter (type / required / properties /
# additionalProperties / items / enum / minimum), enough to express the
# documents.  additionalProperties is false (reject unknown fields) or a
# schema that every field not in properties must satisfy.

def _schema_check(doc: Any, schema: dict, path: str = "$") -> list[str]:
    out: list[str] = []
    expected = schema.get("type")
    if expected:
        ok = {
            "object": lambda v: isinstance(v, dict),
            "array": lambda v: isinstance(v, list),
            "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
            "string": lambda v: isinstance(v, str),
        }[expected](doc)
        if not ok:
            return [f"{path}: expected {expected}"]
    if "enum" in schema and doc not in schema["enum"]:
        out.append(f"{path}: {doc!r} not one of {schema['enum']}")
    if "minimum" in schema and doc < schema["minimum"]:
        out.append(f"{path}: {doc!r} is below {schema['minimum']}")
    if expected == "object":
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in doc:
                out.append(f"{path}: missing required field {key!r}")
        extra = schema.get("additionalProperties", True)
        for key in doc:
            if key in props:
                continue
            if extra is False:
                out.append(f"{path}: unknown field {key!r}")
            elif isinstance(extra, dict):
                out.extend(_schema_check(doc[key], extra, f"{path}.{key}"))
        for key, sub in props.items():
            if key in doc:
                out.extend(_schema_check(doc[key], sub, f"{path}.{key}"))
    if expected == "array" and "items" in schema:
        for i, item in enumerate(doc):
            out.extend(_schema_check(item, schema["items"], f"{path}[{i}]"))
    return out


@functools.cache
def load_schema() -> dict:
    """The packaged skeleton schema, parsed once; read-only (``_schema_check``
    never changes it), since every caller shares the parsed object."""
    with resources.files("sphskel").joinpath("data/skeleton.schema.json").open(
        "r", encoding="utf-8"
    ) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Skeleton documents (all simple-root indices are 1-based on the wire).

def skeleton_to_doc(sk: SphericalSkeleton) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "root_system": [str(f) for f in sk.root_system.factors],
        "sigma": [
            {"pattern": g.kind, "coeffs": list(g.coeffs)} for g in sk.sigma
        ],
        "sp": sorted(a + 1 for a in sk.sp),
        "colors": [
            {
                "id": c.id,
                "kind": c.kind,
                "moved_by": [a + 1 for a in c.moved_by],
                "pairings": list(c.pairings),
                "m": c.m,
            }
            for c in sk.colors
        ],
        "gamma": [
            {"id": d.id, "pairings": list(d.pairings)} for d in sk.gamma
        ],
    }


def skeleton_from_doc(doc: dict) -> SphericalSkeleton:
    problems = _schema_check(doc, load_schema())
    if problems:
        raise DocumentError("; ".join(problems))
    if doc["schema_version"] != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {doc['schema_version']}")
    rs = RootSystem.build(doc["root_system"])
    n = rs.total_rank
    sigma = []
    for entry in doc["sigma"]:
        if len(entry["coeffs"]) != n:
            raise DocumentError("sigma coefficient vector has wrong length")
        sigma.append(embed_from_coeffs(entry["pattern"], entry["coeffs"], rs))
    colors = tuple(
        Color(
            entry["id"],
            entry["kind"],
            tuple(a - 1 for a in entry["moved_by"]),
            tuple(entry["pairings"]),
            entry["m"],
        )
        for entry in doc["colors"]
    )
    gamma = tuple(
        GammaDivisor(entry["id"], tuple(entry["pairings"])) for entry in doc["gamma"]
    )
    return SphericalSkeleton(
        rs, tuple(sigma), frozenset(a - 1 for a in doc["sp"]), colors, gamma
    )


# ---------------------------------------------------------------------------
# Augmented documents for the Fano layer.

def augmented_to_doc(aug: AugmentedData) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "skeleton": skeleton_to_doc(aug.skeleton),
        "lattice_rank": aug.lattice_rank,
        "sigma_in_M": [[int(x) for x in g] for g in aug.sigma_in_m],
        "rho_prime": {k: [int(x) for x in v] for k, v in aug.rho_prime.items()},
        "m": dict(aug.m),
    }
    if aug.coroot_on_m is not None:
        doc["coroot_on_M"] = {
            str(a + 1): [int(x) for x in v] for a, v in aug.coroot_on_m.items()
        }
    return doc


_INT_VECTOR = {"type": "array", "items": {"type": "integer"}}

_AUGMENTED_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version", "skeleton", "lattice_rank", "sigma_in_M", "rho_prime", "m",
    ],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "integer"},
        "skeleton": {"type": "object"},
        "lattice_rank": {"type": "integer", "minimum": 0},
        "sigma_in_M": {"type": "array", "items": _INT_VECTOR},
        "rho_prime": {"type": "object", "additionalProperties": _INT_VECTOR},
        "m": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 1},
        },
        "coroot_on_M": {"type": "object", "additionalProperties": _INT_VECTOR},
    },
}


def augmented_from_doc(doc: dict) -> AugmentedData:
    problems = _schema_check(doc, _AUGMENTED_SCHEMA)
    if problems:
        raise DocumentError("; ".join(problems))
    sk = skeleton_from_doc(doc["skeleton"])
    coroot = None
    if "coroot_on_M" in doc:
        bad = [a for a in doc["coroot_on_M"] if not (a.isdecimal() and int(a) >= 1)]
        if bad:
            raise DocumentError(f"$.coroot_on_M: keys {bad} are not simple root indices")
        coroot = {
            int(a) - 1: vec(v) for a, v in doc["coroot_on_M"].items()
        }
    return AugmentedData(
        skeleton=sk,
        lattice_rank=doc["lattice_rank"],
        sigma_in_m=tuple(vec(g) for g in doc["sigma_in_M"]),
        rho_prime={k: vec(v) for k, v in doc["rho_prime"].items()},
        m=dict(doc["m"]),
        coroot_on_m=coroot,
    )


# ---------------------------------------------------------------------------
# Verification report emission.

CSV_HEADER = ["family", "params", "marking", "p_num", "p_den", "bound", "match"]


def table_rows_to_csv(rows: Sequence) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        value = Q(r.actual) if r.actual is not None else None
        writer.writerow(
            [
                r.family,
                r.params,
                r.marking,
                value.numerator if value is not None else "inf",
                value.denominator if value is not None else "",
                r.bound,
                "yes" if r.match else "no",
            ]
        )
    return buf.getvalue()


def table_rows_to_json(rows: Sequence) -> list[dict]:
    out = []
    for r in rows:
        entry = {
            "family": r.family,
            "params": r.params,
            "marking": r.marking,
            "expected": format_rational(r.expected),
            "p": format_rational(r.actual),
            "bound": r.bound,
            "match": r.match,
        }
        if getattr(r, "theta", None) is not None:
            entry["theta"] = [format_rational(t) for t in r.theta]
        if getattr(r, "dual", None) is not None:
            entry["dual"] = [format_rational(t) for t in r.dual]
        out.append(entry)
    return out


def equality_rows_to_json(rows: Sequence) -> list[dict]:
    return [
        {
            "family": r.family,
            "params": r.params,
            "marking": r.marking,
            "listed": r.listed,
            "p": format_rational(r.p_value),
            "bound": r.bound,
            "equality": r.is_equality,
            "theta_ok": r.theta_ok,
            "match": r.match,
        }
        for r in rows
    ]
