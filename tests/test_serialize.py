from __future__ import annotations

import copy
import io
import json
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path
from typing import Any

import pytest

from conftest import load_fixture
from sphskel.catalog import FamilySpec, mark
from sphskel.roots import SimpleType
from sphskel.serialize import (
    _AUGMENTED_SCHEMA,
    DocumentError,
    _schema_check,
    augmented_from_doc,
    augmented_to_doc,
    dump,
    dumps,
    format_rational,
    load_schema,
    parse_rational,
    skeleton_from_doc,
    skeleton_to_doc,
)
from sphskel.skeleton import COLOR_KINDS
from sphskel.sphroots import PATTERN_KINDS
from test_fano import toric_projective_space

SRC = Path(__file__).resolve().parent.parent / "src"


def test_rational_rendering():
    assert format_rational(Q(37, 2)) == "37/2"
    assert format_rational(Q(4, 2)) == "2"
    assert format_rational(None) == "inf"
    assert parse_rational("37/2") == Q(37, 2)
    assert parse_rational("inf") is None


def test_format_rational_reads_ints_and_fractions_alike():
    for n in range(-40, 41):
        assert format_rational(n) == format_rational(Q(n)) == str(n)


@pytest.mark.parametrize("name", ["ex32_fano.json", "ex61_fano.json"])
def test_augmented_vectors_are_ints(name):
    aug = augmented_from_doc(load_fixture(name))
    vectors = [*aug.sigma_in_m, *aug.rho_prime.values(), *aug.coroot_on_m.values()]
    assert vectors and all(type(x) is int for v in vectors for x in v)


def test_skeleton_roundtrip_bit_exact():
    doc = load_fixture("ex35.json")
    sk = skeleton_from_doc(doc)
    assert skeleton_to_doc(sk) == doc
    again = skeleton_from_doc(skeleton_to_doc(sk))
    assert again == sk


def test_catalog_skeleton_roundtrip():
    sk = mark(FamilySpec("2", series=SimpleType("G", 2)), 1)
    doc = skeleton_to_doc(sk)
    assert skeleton_from_doc(doc) == sk


def test_unknown_field_rejected():
    doc = load_fixture("ex35.json")
    doc["extra"] = 1
    with pytest.raises(DocumentError):
        skeleton_from_doc(doc)


def test_unknown_color_field_rejected():
    doc = load_fixture("ex35.json")
    doc["colors"][0]["shadow"] = True
    with pytest.raises(DocumentError):
        skeleton_from_doc(doc)


def test_missing_field_rejected():
    doc = load_fixture("ex35.json")
    del doc["sp"]
    with pytest.raises(DocumentError):
        skeleton_from_doc(doc)


def test_bad_pattern_enum_rejected():
    doc = load_fixture("ex35.json")
    doc["sigma"][0]["pattern"] = "mystery"
    with pytest.raises(DocumentError):
        skeleton_from_doc(doc)


def test_augmented_roundtrip():
    doc = load_fixture("ex32_fano.json")
    aug = augmented_from_doc(doc)
    assert augmented_to_doc(aug) == doc


def test_augmented_unknown_field_rejected():
    doc = load_fixture("ex32_fano.json")
    doc["mystery"] = []
    with pytest.raises(DocumentError):
        augmented_from_doc(doc)


def test_schema_parsed_once():
    assert load_schema() is load_schema()


def test_schema_enums_match_the_code():
    # The packaged schema keeps its own copies of these two lists.
    props = load_schema()["properties"]
    pattern = props["sigma"]["items"]["properties"]["pattern"]
    kind = props["colors"]["items"]["properties"]["kind"]
    assert pattern["enum"] == list(PATTERN_KINDS)
    assert kind["enum"] == list(COLOR_KINDS)


# ---------------------------------------------------------------------------
# The compiled schema checker against the recursive interpreter.

_ORACLE_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
}


def _recursive_schema_check(doc: Any, schema: dict, path: str = "$") -> list[str]:
    """The schema interpreter as it was before leaf-typed arrays were checked
    in one loop and before schemas were compiled: it reads the schema dict
    at every node, and every array item is a recursive call.  The oracle."""
    out: list[str] = []
    expected = schema.get("type")
    if expected:
        if not _ORACLE_TYPE_CHECKS[expected](doc):
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
                out.extend(_recursive_schema_check(doc[key], extra, f"{path}.{key}"))
        for key, sub in props.items():
            if key in doc:
                out.extend(_recursive_schema_check(doc[key], sub, f"{path}.{key}"))
    if expected == "array" and "items" in schema:
        for i, item in enumerate(doc):
            out.extend(_recursive_schema_check(item, schema["items"], f"{path}[{i}]"))
    return out


_NON_INTEGERS = ("1", True, False, None, 2.5, [], [1], {}, {"a": 1})
_WRONG_VALUES = _NON_INTEGERS + (1, -3, 0)


def _containers(node: Any, out: list) -> list:
    """Every dict and list inside ``node``, ``node`` included."""
    if isinstance(node, (dict, list)):
        out.append(node)
        for child in node.values() if isinstance(node, dict) else node:
            _containers(child, out)
    return out


def _int_arrays(node: Any) -> list[list]:
    lists = [c for c in _containers(node, []) if isinstance(c, list) and c]
    return [c for c in lists if all(type(x) is int for x in c)]


def _mutate(rng: random.Random, doc: dict, klass: str) -> Any:
    """A copy of ``doc`` with one mutation of the given class.  The first
    five classes are the malformed classes of the query_mix benchmark;
    ``missing_file`` stands for a file that parses to something other than
    a document object."""
    doc = copy.deepcopy(doc)
    if klass == "missing_file":
        return rng.choice([None, [], "", 7, [doc]])
    dicts = [c for c in _containers(doc, []) if isinstance(c, dict)]
    if klass == "wrong_type":
        target = rng.choice([c for c in _containers(doc, []) if c])
        key = rng.choice(list(target)) if isinstance(target, dict) else rng.randrange(len(target))
        target[key] = rng.choice(_WRONG_VALUES)
    elif klass == "missing_field":
        target = rng.choice([d for d in dicts if d])
        del target[rng.choice(list(target))]
    elif klass == "unknown_field":
        rng.choice(dicts)[f"x_{rng.randrange(1000)}"] = rng.choice(_WRONG_VALUES)
    elif klass == "sp_out_of_range":
        sk = doc.get("skeleton", doc)
        sk["sp"] = sorted(set(sk["sp"]) | {99 + rng.randrange(3)})
    elif klass in ("int_item", "true_item"):
        # Wrong-typed items at some of the first, a middle and the last index.
        lists = [c for c in _containers(doc, []) if isinstance(c, list)]
        target = rng.choice(_int_arrays(doc) or lists)
        if not target:
            target.append(0)
        picks = sorted({0, len(target) // 2, len(target) - 1})
        for index in rng.sample(picks, rng.randrange(1, len(picks) + 1)):
            target[index] = True if klass == "true_item" else rng.choice(_NON_INTEGERS)
    else:
        raise ValueError(klass)
    return doc


_MUTATION_CLASSES = (
    "wrong_type", "missing_field", "unknown_field", "sp_out_of_range", "missing_file",
    "int_item", "true_item",
)


def _base_documents() -> dict[str, Any]:
    """The fixtures, plus a catalog skeleton and a toric augmented document
    whose integer arrays have a first, a middle and a last index."""
    docs = {name: load_fixture(f"{name}.json") for name in ("ex35", "ex32_fano", "ex61_fano")}
    docs["6:m=3"] = skeleton_to_doc(mark(FamilySpec("6", m=3), 1))
    docs["P4"] = augmented_to_doc(toric_projective_space(4))
    return docs


def _schema_for(doc: dict) -> dict:
    return _AUGMENTED_SCHEMA if "rho_prime" in doc else load_schema()


def test_schema_check_matches_recursive_oracle():
    rng = random.Random(20261019)
    rejected = 0
    for doc in _base_documents().values():
        for schema, base in [(_schema_for(doc), doc), (load_schema(), doc.get("skeleton", doc))]:
            assert _schema_check(base, schema) == _recursive_schema_check(base, schema) == []
            for klass in _MUTATION_CLASSES:
                for _ in range(40):
                    mutated = _mutate(rng, base, klass)
                    expected = _recursive_schema_check(mutated, schema)
                    assert _schema_check(mutated, schema) == expected, (klass, mutated)
                    rejected += bool(expected)
    assert rejected > 2000


@pytest.mark.parametrize(
    "name, path, at, message",
    [
        ("6:m=3", ("sigma", 1, "coeffs"), 0, "$.sigma[1].coeffs[0]: expected integer"),
        ("6:m=3", ("sigma", 1, "coeffs"), 3, "$.sigma[1].coeffs[3]: expected integer"),
        ("6:m=3", ("sigma", 1, "coeffs"), 6, "$.sigma[1].coeffs[6]: expected integer"),
        ("6:m=3", ("sp",), 2, "$.sp[2]: expected integer"),
        ("6:m=3", ("colors", 2, "pairings"), 1, "$.colors[2].pairings[1]: expected integer"),
        ("ex32_fano", ("rho_prime", "D3"), 1, "$.rho_prime.D3[1]: expected integer"),
        ("ex61_fano", ("sigma_in_M", 0), 0, "$.sigma_in_M[0][0]: expected integer"),
        ("P4", ("rho_prime", "D2"), 2, "$.rho_prime.D2[2]: expected integer"),
    ],
)
def test_true_in_an_integer_array_is_named_at_its_index(name, path, at, message):
    doc = _base_documents()[name]
    target = doc
    for key in path:
        target = target[key]
    target[at] = True
    schema = _schema_for(doc)
    expected = _recursive_schema_check(doc, schema)
    assert _schema_check(doc, schema) == expected == [message]


def test_checkers_are_kept_per_live_schema():
    # Each schema dict is dropped before the next is made, so a checker
    # memo keyed by a bare id() would hand a freed id's checker on.
    for n in range(50):
        schema = {"type": "array", "items": {"type": "integer", "minimum": n}}
        assert _schema_check([n - 1, n], schema) == [f"$[0]: {n - 1} is below {n}"]
        del schema


def test_importing_the_cli_compiles_no_schema():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import sphskel.cli; "
        "from sphskel import serialize; "
        "sys.exit(bool(serialize._COMPILED) or serialize.load_schema.cache_info().currsize)"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], timeout=60)
    assert done.returncode == 0


# ---------------------------------------------------------------------------
# The report writer against the stdlib encoder.

_TEXT_ALPHABET = "ab Z09" + "é€\u2603\U0001f600" + "\"\\/" + "\x00\x01\x1f\x7f\b\f\n\r\t" + "\ud800"


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(_TEXT_ALPHABET) for _ in range(rng.randrange(6)))


def _random_value(rng: random.Random, depth: int, shared: list) -> Any:
    roll = rng.random()
    if depth >= 4 or roll < 0.45:
        return rng.choice([
            _random_text(rng), rng.randrange(-5, 6), rng.randrange(-10**40, 10**40),
            True, False, None, shared,
        ])
    n = rng.randrange(5)
    if roll < 0.6:
        return [_random_text(rng) for _ in range(n)]  # a formatted vector
    if roll < 0.8:
        items = [_random_value(rng, depth + 1, shared) for _ in range(n)]
        return tuple(items) if rng.random() < 0.3 else items
    return {_random_text(rng): _random_value(rng, depth + 1, shared) for _ in range(n)}


def _stdlib_dump(doc: Any) -> str:
    buf = io.StringIO()
    json.dump(doc, buf, indent=2, sort_keys=True)
    return buf.getvalue()


def _dump(doc: Any) -> str:
    buf = io.StringIO()
    dump(doc, buf)
    return buf.getvalue()


def test_writer_matches_stdlib_on_random_documents():
    rng = random.Random(20261019)
    shapes = set()
    for _ in range(2000):
        # One list object, reachable at several depths of the same document.
        shared = [_random_text(rng) for _ in range(rng.randrange(1, 4))]
        doc = _random_value(rng, 0, shared)
        if rng.random() < 0.3:
            doc = {"a": shared, "b": [shared, {"c": [shared]}], "d": doc}
        expected = json.dumps(doc, indent=2, sort_keys=True)
        assert dumps(doc) == expected
        assert _dump(doc) == _stdlib_dump(doc) == expected
        shapes.add(type(doc))
    assert shapes >= {dict, list, tuple, str, int}


def test_writer_renders_a_shared_list_at_each_depth():
    vector = ["1", "-1/2"]
    doc = {"top": vector, "rows": [vector, {"v": vector, "w": [vector, vector]}]}
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)
    assert _dump(doc) == _stdlib_dump(doc)


def test_writer_matches_stdlib_on_a_document_300_levels_deep():
    # Lists, tuples and dicts in turn, each beside a leaf, around one shared
    # vector: the writer has no depth limit of its own.
    vector = ["1", "-1/2"]
    doc = [vector, "leaf", None]
    for k in range(300):
        doc = ({"k": doc, "n": k, "v": vector}, [doc, str(k)], (doc, k % 2 == 0))[k % 3]
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)
    assert _dump(doc) == _stdlib_dump(doc)


@pytest.mark.parametrize(
    "doc", [{}, [], (), {"a": {}}, {"a": []}, [[]], 0, -7, "", "x\u00e9", True, None]
)
def test_dump_matches_stdlib_on_edge_documents(doc):
    assert _dump(doc) == _stdlib_dump(doc)
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "doc",
    [1.5, Q(1, 2), {1, 2}, {1: "a"}, {"a": [0.0]}, {"a": {"b": Q(3)}}, [{"c": {2: 1}}]],
)
def test_writer_rejects_non_report_values(doc):
    with pytest.raises(TypeError):
        dumps(doc)
    with pytest.raises(TypeError):
        dump(doc, io.StringIO())
