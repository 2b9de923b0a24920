"""Canonical JSON and CSV formats.

Integers read from a document stay ints; only quotients, such as an
optimum, are Fractions.  ``linalg.format_rational`` renders both as exact
"p/q" strings (plain "p" for integers); floats never appear.  Skeleton
documents are validated against the packaged structural schema (parsed
once per process) and reject unknown fields.  ``dumps`` and ``dump`` write
reports (str, int, bool, None, lists, tuples and str-keyed dicts; anything
else raises TypeError) as the exact text of ``json.dumps(doc, indent=2,
sort_keys=True)``.
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
from .linalg import format_rational
from .roots import RootSystem
from .skeleton import Color, GammaDivisor, SphericalSkeleton
from .sphroots import embed_from_coeffs

SCHEMA_VERSION = 1


class DocumentError(ValueError):
    pass


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

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
}


def _schema_check(doc: Any, schema: dict, path: str = "$") -> list[str]:
    out: list[str] = []
    expected = schema.get("type")
    if expected:
        if not _TYPE_CHECKS[expected](doc):
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
        items = schema["items"]
        if items.keys() == {"type"}:  # a leaf item schema: one type test per item
            leaf, check = items["type"], _TYPE_CHECKS[items["type"]]
            out += [
                f"{path}[{i}]: expected {leaf}" for i, x in enumerate(doc) if not check(x)
            ]
        else:
            for i, item in enumerate(doc):
                out.extend(_schema_check(item, items, f"{path}[{i}]"))
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
            int(a) - 1: tuple(v) for a, v in doc["coroot_on_M"].items()
        }
    return AugmentedData(
        skeleton=sk,
        lattice_rank=doc["lattice_rank"],
        sigma_in_m=tuple(tuple(g) for g in doc["sigma_in_M"]),
        rho_prime={k: tuple(v) for k, v in doc["rho_prime"].items()},
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
        writer.writerow(
            [
                r.family,
                r.params,
                r.marking,
                r.actual.numerator if r.actual is not None else "inf",
                r.actual.denominator if r.actual is not None else "",
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
        if r.theta is not None:
            entry["theta"] = list(r.theta)
        if r.dual is not None:
            entry["dual"] = list(r.dual)
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


# ---------------------------------------------------------------------------
# Report writer, without the pure-Python encoder that json's indent selects.

_quote = json.encoder.encode_basestring_ascii  # the ensure_ascii escaping


def _encode(o: Any, level: int, memo: dict) -> str:
    """The text of ``o`` nested ``level`` deep.  A list of strings (a vector)
    is joined once per depth and kept in ``memo`` under ``(id(o), level)``;
    the document keeps every such list alive while ``memo`` lives."""
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = "\n" + "  " * (level + 1)
    sep = "," + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        key = (id(o), level)
        if key not in memo:
            try:
                memo[key] = "[" + inner + sep.join(map(_quote, o)) + inner[:-2] + "]"
            except TypeError:  # not all strings: nothing to share
                items = [_encode(x, level + 1, memo) for x in o]
                return "[" + inner + sep.join(items) + inner[:-2] + "]"
        return memo[key]
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_quote(k) + ": " + _encode(o[k], level + 1, memo) for k in sorted(o)]
        return "{" + inner + sep.join(items) + inner[:-2] + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def dumps(doc: Any) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, for report values."""
    return _encode(doc, 0, {})


def dump(doc: Any, handle: Any) -> None:
    """Write the text of ``json.dump(doc, handle, indent=2, sort_keys=True)``.
    The document and its top-level lists go out one entry at a time, so a
    large report is never held as one string."""
    _stream(doc, 0, handle.write)


def _stream(o: Any, level: int, write: Any) -> None:
    if level == 2 or not (o and isinstance(o, (dict, list, tuple))):
        write(_encode(o, level, {}))
        return
    inner = "\n" + "  " * (level + 1)
    keys = sorted(o) if isinstance(o, dict) else None
    write("{" if keys else "[")
    for i, item in enumerate(o if keys is None else keys):
        write(("," if i else "") + inner)
        if keys:
            write(_quote(item) + ": ")
            item = o[item]
        _stream(item, level + 1, write)
    write(inner[:-2] + ("}" if keys else "]"))
