"""Seeded mutation fuzz of the CLI input boundary.

Each fixture document is mutated a few times at random paths (values of
other JSON types, shifted or extreme integers, lists with elements dropped,
repeated or reordered, keys dropped or added) and run through
``cli.main``.  Malformed input must exit 2 with violations and valid input
exit 0: never 1 (table mismatch) or 3 (internal error), never a traceback.
Each document runs twice and must print the same both times, which also
covers the per-value memo of the structural skeleton checks.  Text that
breaks before the document exists (nesting past the parser's recursion
limit, truncated text, a BOM, invalid UTF-8, NaN, Infinity, 1e400, an int
past the 4,300-digit conversion limit) must exit 2 the same way.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from conftest import load_fixture
from sphskel.cli import _nesting_depth, main

SEED = 20261018
MUTANTS = 500

ALIENS = (
    0, 1, -1, 2, 3, 9, -9, 10**30, 1.5, -0.0, "x", "", "D1", True, False, None,
    [], [0], [1, 1], [[1]], {}, {"a": 1},
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _mutate_once(doc, rng: random.Random):
    path = rng.choice(list(_paths(doc)))
    if not path:
        return doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    value = parent[last]
    roll = rng.random()
    if isinstance(value, list) and value and roll < 0.5:
        i = rng.randrange(len(value))
        action = rng.choice(("drop", "repeat", "reverse", "swap"))
        if action == "drop":
            del value[i]
        elif action == "repeat":
            value.insert(i, copy.deepcopy(value[i]))
        elif action == "reverse":
            value.reverse()
        else:
            j = rng.randrange(len(value))
            value[i], value[j] = value[j], value[i]
    elif isinstance(value, dict) and roll < 0.5:
        if value and rng.random() < 0.6:
            del value[rng.choice(list(value))]
        else:
            value[rng.choice(("extra", "D9", "1"))] = rng.choice(ALIENS)
    elif isinstance(value, int) and not isinstance(value, bool) and roll < 0.6:
        parent[last] = value + rng.choice((-3, -2, -1, 1, 2, 3))
    elif isinstance(value, str) and roll < 0.5 and value:
        parent[last] = value[:-1] + rng.choice("0123456789x")
    elif isinstance(parent, dict) and roll > 0.9:
        del parent[last]
    else:
        parent[last] = copy.deepcopy(rng.choice(ALIENS))
    return doc


def _mutants(name: str, seed: int):
    rng = random.Random(f"{seed}:{name}")
    base = load_fixture(name)
    for _ in range(MUTANTS):
        doc = copy.deepcopy(base)
        for _ in range(rng.randint(1, 3)):
            doc = _mutate_once(doc, rng)
        yield doc


def _commands(name: str, path: str) -> list[list[str]]:
    if name == "ex35.json":
        return [
            ["compute-p", path, "--json"],
            ["smoothness", path, "--divisors", "D1,D2,D4"],
        ]
    return [["fano", path, "--json"]]


@pytest.mark.parametrize("name", ["ex35.json", "ex32_fano.json", "ex61_fano.json"])
def test_mutated_documents_exit_0_or_2(tmp_path, capsys, name):
    codes, problems = [], []
    for k, doc in enumerate(_mutants(name, SEED)):
        path = tmp_path / f"mutant{k}.json"
        path.write_text(json.dumps(doc))
        for argv in _commands(name, str(path)):
            runs = []
            for _ in range(2):
                code = main(argv)
                runs.append((code, capsys.readouterr()))
            (code, first), (again, second) = runs
            codes.append(code)
            where = f"{argv[0]} on {json.dumps(doc)}"
            if code not in (0, 2) or "Traceback" in first.err:
                problems.append(f"exit {code} from {where}: {first.err}")
            elif code == 2 and not (first.err or first.out):
                problems.append(f"exit 2 without violations from {where}")
            elif (again, second.out, second.err) != (code, first.out, first.err):
                problems.append(f"second run differs from the first: {where}")
    assert not problems, f"{len(problems)} escapes:\n" + "\n".join(problems[:5])
    # The mutations must reach both sides of the boundary.
    assert codes.count(2) > len(codes) // 2 and 0 in codes


def _invalid_twice(capsys, argv: list[str]) -> list[str]:
    """Run argv twice; both runs exit 2 with the same output, and the
    violations they report (from the --json document, or stderr) are
    returned."""
    runs = []
    for _ in range(2):
        code = main(argv)
        runs.append((code, capsys.readouterr()))
    (code, first), (again, second) = runs
    assert code == again == 2
    assert (first.out, first.err) == (second.out, second.err)
    if "--json" in argv:
        violations = json.loads(first.out)["violations"]
    else:
        assert first.out == ""
        violations = [line.removeprefix("violation: ") for line in first.err.splitlines()]
    assert violations and "Traceback" not in first.err
    return violations


# Nesting past the JSON parser's recursion limit, and nesting that parses.
DEPTHS = (500, 100_000)
NESTED_FIELD = {"ex35.json": "sp", "ex32_fano.json": "sigma_in_M"}


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("where", ["top", "field"])
@pytest.mark.parametrize(
    "argv",
    [("compute-p",), ("compute-p", "--json"), ("smoothness",), ("fano", "--json")],
    ids=" ".join,
)
def test_deep_nesting_exits_2_with_violations(tmp_path, capsys, argv, where, depth):
    name = "ex32_fano.json" if argv[0] == "fano" else "ex35.json"
    nested = "[" * depth + "]" * depth
    if where == "top":
        text = nested
    else:
        doc = load_fixture(name)
        doc[NESTED_FIELD[name]] = "NESTED"
        text = json.dumps(doc).replace('"NESTED"', nested)
    path = tmp_path / "nested.json"
    path.write_text(text)
    violations = _invalid_twice(capsys, [argv[0], str(path), *argv[1:]])
    if depth > 1000:
        levels = depth + (where == "field")
        assert violations == [f"$: arrays and objects nested {levels} levels deep, too deep to parse"]


def test_nesting_depth_counts_no_bracket_inside_a_string():
    assert _nesting_depth('[{"a]": "x\\"]["}, [[]]]') == 3
    assert _nesting_depth('[["[[[') == 2  # a string left open
    assert _nesting_depth('"[[" 1') == 0


def _text_case(name: str, case: str) -> bytes:
    """The fixture document as bytes, broken at the text level."""
    doc = load_fixture(name)
    raw = json.dumps(doc, indent=2).encode()
    if case == "truncated":
        return raw[: len(raw) // 2]
    if case == "bom":
        return b"\xef\xbb\xbf" + raw
    if case == "invalid utf-8":
        return raw.replace(b'"A1"', b'"A\xff1"', 1)
    # A number token JSON's grammar or Python's int conversion refuses, in
    # the anticanonical coefficient of the first color.
    skeleton = doc.get("skeleton", doc)
    skeleton["colors"][0]["m"] = "VALUE"
    token = {"NaN": "NaN", "Infinity": "Infinity", "1e400": "1e400", "4301 digits": "1" * 4301}
    return json.dumps(doc, indent=2).replace('"VALUE"', token[case]).encode()


@pytest.mark.parametrize(
    "case",
    ["truncated", "bom", "invalid utf-8", "NaN", "Infinity", "1e400", "4301 digits"],
)
@pytest.mark.parametrize(
    "argv",
    [("compute-p",), ("compute-p", "--json"), ("smoothness",), ("fano", "--json")],
    ids=" ".join,
)
def test_broken_text_exits_2_with_violations(tmp_path, capsys, argv, case):
    name = "ex32_fano.json" if argv[0] == "fano" else "ex35.json"
    path = tmp_path / "broken.json"
    path.write_bytes(_text_case(name, case))
    _invalid_twice(capsys, [argv[0], str(path), *argv[1:]])
