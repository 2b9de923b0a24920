"""Canonical JSON and CSV formats.

Integers read from a document stay ints; only quotients, such as an
optimum, are Fractions.  ``linalg.format_rational`` renders both as exact
"p/q" strings (plain "p" for integers); floats never appear.  Skeleton
documents are validated against the packaged structural schema (parsed
once per process, and compiled into checkers on its first use) and reject
unknown fields.  ``dumps`` and ``dump`` write reports (str, int, bool,
None, lists, tuples and str-keyed dicts; anything else raises TypeError)
as the exact text of ``json.dumps(doc, indent=2, sort_keys=True)``.  The
writer tests a value's exact type first and falls back to isinstance, so
NamedTuple records still print as arrays.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from fractions import Fraction as Q
from importlib import resources
from typing import Any, Callable, Sequence

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
# Minimal structural schema checker (type / required / properties /
# additionalProperties / items / enum / minimum), enough to express the
# documents.  additionalProperties is false (reject unknown fields) or a
# schema that every field not in properties must satisfy.  Each schema is
# compiled once into nested checkers, which read no schema dict while they
# run.  A checker ``check(value, path, out)`` appends the messages for
# ``value`` to ``out``: a failed type test is the node's only message;
# then enum, minimum, required fields, unknown fields in document order and
# known fields in schema order, and array items in order.

# The class of each schema type.  A value of exactly that class, as JSON
# parsing gives, passes at once; any other value passes if it is an
# instance, except that a bool is no integer.
_TYPES = {"object": dict, "array": list, "integer": int, "string": str}


def _is_a(value: Any, cls: type) -> bool:
    return type(value) is cls or (isinstance(value, cls) and not isinstance(value, bool))


Checker = Callable[[Any, str, list], None]

# id(schema) -> (schema, its checker).  The entry holds the schema, so its
# id is never reused for another object; a schema must not change after its
# first check.
_COMPILED: dict[int, tuple[dict, Checker]] = {}


def _schema_check(doc: Any, schema: dict, path: str = "$") -> list[str]:
    """Every structural violation of ``doc`` against ``schema``, in order.
    The schema is compiled on its first check."""
    entry = _COMPILED.get(id(schema))
    if entry is None:
        entry = _COMPILED[id(schema)] = (schema, _compile(schema))
    out: list[str] = []
    entry[1](doc, path, out)
    return out


def _compile(schema: dict) -> Checker:
    expected = schema.get("type")
    cls = _TYPES[expected] if expected else None
    steps: list[Checker] = []
    if "enum" in schema:
        steps.append(_compile_enum(schema["enum"]))
    if "minimum" in schema:
        steps.append(_compile_minimum(schema["minimum"]))
    if expected == "object":
        steps.append(_compile_object(schema))
    if expected == "array" and "items" in schema:
        steps.append(_compile_items(schema["items"]))

    def check(value: Any, path: str, out: list) -> None:
        if cls is not None and type(value) is not cls and not _is_a(value, cls):
            out.append(f"{path}: expected {expected}")
            return
        for step in steps:
            step(value, path, out)

    return check


def _compile_enum(enum: list) -> Checker:
    def check(value: Any, path: str, out: list) -> None:
        if value not in enum:
            out.append(f"{path}: {value!r} not one of {enum}")

    return check


def _compile_minimum(minimum: int) -> Checker:
    def check(value: Any, path: str, out: list) -> None:
        if value < minimum:
            out.append(f"{path}: {value!r} is below {minimum}")

    return check


def _compile_object(schema: dict) -> Checker:
    props = {key: _compile(sub) for key, sub in schema.get("properties", {}).items()}
    known = props.keys()
    required = tuple(schema.get("required", ()))
    extra = schema.get("additionalProperties", True)
    closed = extra is False
    extra_check = _compile(extra) if isinstance(extra, dict) else None

    def check(doc: dict, path: str, out: list) -> None:
        for key in required:
            if key not in doc:
                out.append(f"{path}: missing required field {key!r}")
        if (closed or extra_check) and not known >= doc.keys():
            for key in doc:
                if key in known:
                    continue
                if closed:
                    out.append(f"{path}: unknown field {key!r}")
                else:
                    extra_check(doc[key], f"{path}.{key}", out)
        for key, sub in props.items():
            if key in doc:
                sub(doc[key], f"{path}.{key}", out)

    return check


def _compile_items(items: dict) -> Checker:
    if items.keys() == {"type"}:  # a leaf item schema: one type test per item
        leaf = items["type"]
        cls = _TYPES[leaf]

        def check_leaves(doc: list, path: str, out: list) -> None:
            if set(map(type, doc)) <= {cls}:  # every item of exactly that class
                return
            out += [
                f"{path}[{i}]: expected {leaf}" for i, x in enumerate(doc) if not _is_a(x, cls)
            ]

        return check_leaves
    item = _compile(items)

    def check(doc: list, path: str, out: list) -> None:
        for i, x in enumerate(doc):
            item(x, f"{path}[{i}]", out)

    return check


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
                r.p_value.numerator if r.p_value is not None else "inf",
                r.p_value.denominator if r.p_value is not None else "",
                r.bound,
                "yes" if r.table_match else "no",
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
            "p": format_rational(r.p_value),
            "bound": r.bound,
            "match": r.table_match,
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
            "match": r.equality_match,
        }
        for r in rows
    ]


# ---------------------------------------------------------------------------
# Report writer, without the pure-Python encoder that json's indent selects.

_quote = json.encoder.encode_basestring_ascii  # the ensure_ascii escaping


def _encode(o: Any, level: int, memo: dict) -> str:
    """The text of ``o`` nested ``level`` deep.  A list of strings (a vector)
    is joined once per depth and kept in ``memo`` under ``(id(o), level)``;
    the document keeps every such list alive while ``memo`` lives.

    The exact types that JSON parsing and the reports build (str, int, list,
    dict) are told apart by one type test each; bools, None, tuples
    (NamedTuple records among them) and subclasses go through isinstance."""
    cls = type(o)
    if cls is str:
        return _quote(o)
    if cls is int:
        return int.__repr__(o)
    if cls is not list and cls is not dict:
        if o is None or o is True or o is False:
            return "null" if o is None else "true" if o else "false"
        if isinstance(o, str):
            return _quote(o)
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, (list, tuple)):
            cls = list
        elif isinstance(o, dict):
            cls = dict
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not o:
        return "[]" if cls is list else "{}"
    inner = "\n" + "  " * (level + 1)
    sep = "," + inner
    if cls is dict:
        items = [_quote(k) + ": " + _encode(o[k], level + 1, memo) for k in sorted(o)]
        return "{" + inner + sep.join(items) + inner[:-2] + "}"
    if type(o[0]) is str:
        key = (id(o), level)
        text = memo.get(key)
        if text is not None:
            return text
        try:
            text = memo[key] = "[" + inner + sep.join(map(_quote, o)) + inner[:-2] + "]"
            return text
        except TypeError:  # not all strings: nothing to share
            pass
    items = [_encode(x, level + 1, memo) for x in o]
    return "[" + inner + sep.join(items) + inner[:-2] + "]"


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
